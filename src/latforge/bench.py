"""Sensitivity experiments: reduce many permuted copies of one basis and
tabulate what happens to the shortest vector."""

from __future__ import annotations

from decimal import Decimal
from typing import Iterable, Sequence

from .core import REAL, Basis, Record, _sqrt, format_real
from .lll import LllParams, lll_reduce
from .parallel import derive_rng
from .perm import apply, check_radius, sample_at_radius


_REALS = ("min", "max", "mean", "std", "range")


class SweepRow(Record):
    radius: int
    min: Decimal
    max: Decimal
    mean: Decimal
    std: Decimal
    range: Decimal

    def rendered(self) -> dict:
        """Column -> value, as both the CSV and the JSON report show the row."""
        return {"radius": self.radius, **{c: format_real(getattr(self, c)) for c in _REALS}}


class SweepResult(Record):
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        lines = [",".join(("radius", *_REALS))]
        lines += (",".join(map(str, row.rendered().values())) for row in self.rows)
        return "\n".join(lines) + "\n"


def summarize(radius: int, values: Sequence[Decimal]) -> SweepRow:
    """Min/max/mean/population-sigma/range of one sample of lengths."""
    lo, hi = min(values), max(values)
    if lo == hi:
        # mean inherits the shared value; sigma is 0 by definition, not by
        # cancellation at the 50th digit.
        return SweepRow(radius, lo, hi, lo, Decimal(0), Decimal(0))
    n = Decimal(len(values))
    mean = REAL.divide(sum(values, Decimal(0)), n)
    var = REAL.divide(
        sum((REAL.multiply(v - mean, v - mean) for v in values), Decimal(0)), n
    )
    return SweepRow(
        radius=radius,
        min=lo,
        max=hi,
        mean=mean,
        std=REAL.sqrt(var),
        range=hi - lo,
    )


def _checked(b: Basis, radii: Iterable[int], n_samples: int) -> list[int]:
    """The radii as a list, each feasible for ``b``; checked before any reduction."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    radii = list(radii)
    for r in radii:
        check_radius(b.m, r)
    return radii


def _shortest_sq_after(b: Basis, r: int, alpha: LllParams, seed: int, i: int) -> int:
    pi = sample_at_radius(b.m, r, derive_rng(seed, "sweep", r, i))
    reduced = lll_reduce(apply(b, pi), alpha)
    return min(reduced.row_normsq(j) for j in range(reduced.m))


def radius_sweep(
    b: Basis,
    radii: Iterable[int],
    n_samples: int,
    alpha: LllParams,
    seed: int = 0,
) -> SweepResult:
    """For each radius, reduce ``n_samples`` permuted copies of ``b`` and
    collect the distribution of the resulting shortest-vector lengths."""
    rows = []
    for r in _checked(b, radii, n_samples):
        lengths = [
            _sqrt(_shortest_sq_after(b, r, alpha, seed, i)) for i in range(n_samples)
        ]
        rows.append(summarize(r, lengths))
    return SweepResult(rows=tuple(rows))


def improvement_frequency(
    b_star: Basis,
    radii: Iterable[int],
    n_samples: int,
    alpha: LllParams,
    seed: int = 0,
) -> dict[int, float]:
    """Fraction of permutations at each radius whose re-reduction yields a
    strictly shorter shortest vector than ``b_star`` already has.

    ``b_star`` is expected to be reduced already; the comparison is exact
    on squared norms.
    """
    base_sq = min(b_star.row_normsq(j) for j in range(b_star.m))
    out = {}
    for r in _checked(b_star, radii, n_samples):
        wins = sum(
            _shortest_sq_after(b_star, r, alpha, seed, i) < base_sq
            for i in range(n_samples)
        )
        out[r] = wins / n_samples
    return out

