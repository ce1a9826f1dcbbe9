"""Deterministic seeding.

Every source of randomness in the toolkit is a ``random.Random`` built from
``derive_seed``, which hashes a root seed together with the structural
position of the consumer (step index, block index, ...).  Results therefore
depend only on the seed, and a run replays bit-for-bit.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from a tuple of hashable-ish parts.

    Uses blake2b over the repr of the parts; unlike ``hash()`` the result
    does not vary across processes or platforms.
    """
    payload = "\x1f".join(repr(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


def derive_rng(*parts: object) -> random.Random:
    return random.Random(derive_seed(*parts))
