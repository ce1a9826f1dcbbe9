"""Deterministic seeding.

Every source of randomness in the toolkit is a ``random.Random`` built from
``derive_seed``, which hashes a root seed together with the structural
position of the consumer (step index, block index, ...).  Results therefore
depend only on the seed, and a run replays bit-for-bit.

``blake2b`` comes from ``_blake2``, the module that ``hashlib`` itself takes
it from: ``hashlib`` never hands BLAKE2 to OpenSSL, so ``hashlib.blake2b``
is this very function and every seed is the one it gives.  Importing
``hashlib`` would load OpenSSL's ``_hashlib`` and libcrypto as well, which a
run never calls.  The import sits in ``derive_seed``, so a Python built
without BLAKE2 fails when a seed is derived, as it did through ``hashlib``,
and not when this module is imported.
"""

from __future__ import annotations

import random

from .core import int_str


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from a tuple of hashable-ish parts.

    Uses blake2b over the parts as text; unlike ``hash()`` the result does
    not vary across processes or platforms.  An ``int`` part is rendered by
    ``int_str``, its ``repr`` without the 4,300-digit cap, so a seed of any
    length works; any other part, ``bool`` too, by ``repr``.
    """
    from _blake2 import blake2b

    payload = "\x1f".join(int_str(p) if type(p) is int else repr(p) for p in parts).encode()
    return int.from_bytes(blake2b(payload, digest_size=8).digest(), "big")


def derive_rng(*parts: object) -> random.Random:
    return random.Random(derive_seed(*parts))
