"""Deterministic seeding and the shared worker pool.

Every source of randomness in the toolkit is a ``random.Random`` built from
``derive_seed``, which hashes a root seed together with the structural
position of the consumer (step index, block index, ...).  Results therefore
never depend on scheduling, and a run replays bit-for-bit at any pool size.
"""

from __future__ import annotations

import hashlib
import os
import random
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

THREADS_ENV = "LATFORGE_THREADS"

T = TypeVar("T")
R = TypeVar("R")


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from a tuple of hashable-ish parts.

    Uses blake2b over the repr of the parts; unlike ``hash()`` the result
    does not vary across processes or platforms.
    """
    payload = "\x1f".join(repr(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


def derive_rng(*parts: object) -> random.Random:
    return random.Random(derive_seed(*parts))


def worker_count(n_tasks: int) -> int:
    """Pool size: min(tasks, LATFORGE_THREADS or logical CPU count)."""
    cap = os.environ.get(THREADS_ENV)
    if cap and not (cap.isdecimal() and int(cap) >= 1):
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {cap!r}")
    limit = int(cap) if cap else (os.cpu_count() or 1)
    return max(1, min(n_tasks, limit))


def pmap(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Map ``fn`` over ``items``, results in input order.

    Tasks must be pure; the pool size never affects the output, only the
    wall clock.
    """
    workers = worker_count(len(items))
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
