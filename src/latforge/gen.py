"""Seeded synthetic lattices for experiments and tests.

Challenge lattices are not redistributable, so the harness runs on two
reproducible families: dense square bases with bounded entries, and
knapsack-style bases (identity block plus one dense column of large
integers) that mimic the entry growth of the challenge inputs.
"""

from __future__ import annotations

from .core import Basis, _quoted, gram_det
from .parallel import derive_rng


def uniform_basis(m: int, lo: int = -999, hi: int = 999, seed: int = 0) -> Basis:
    """Random m x m basis with entries uniform in [lo, hi], resampled until
    the rows are independent.  ValueError when no draw is (lo == hi, with
    m > 1 or lo == 0).  If hi > lo, [lo, hi] holds a nonzero entry and, for
    m > 1, some a and a + 1: a*J + I (J all ones) has det 1 + m*a != 0."""
    if lo == hi and (lo == 0 or m > 1):
        raise ValueError(f"every entry is {_quoted(lo)}: no {_quoted(m)}-row draw is independent")
    rng = derive_rng("uniform", m, lo, hi, seed)
    while True:
        b = Basis(tuple(tuple(rng.randint(lo, hi) for _ in range(m)) for _ in range(m)))
        if gram_det(b):
            return b


def knapsack_basis(m: int, bits: int = 60, seed: int = 0) -> Basis:
    """Rank-m knapsack-style basis in dimension m+1: row i is e_i extended
    by a random ``bits``-bit integer.  Always independent."""
    rng = derive_rng("knapsack", m, bits, seed)
    rows = []
    for i in range(m):
        weight = rng.randint(1 << (bits - 1), (1 << bits) - 1)
        rows.append(tuple(1 if j == i else 0 for j in range(m)) + (weight,))
    return Basis(tuple(rows))
