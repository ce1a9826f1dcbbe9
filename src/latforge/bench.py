"""Sensitivity experiments: reduce many permuted copies of one basis and
tabulate what happens to the shortest vector."""

from __future__ import annotations

from decimal import Decimal, localcontext
from typing import Iterable, Sequence

from .core import REAL, Basis, Record, _PLAIN, _quoted, _sqrt, format_real
from .lll import LllParams, lll_reduce
from .parallel import derive_rng
from .perm import apply, check_radius, sample_at_radius


class SweepRow(Record):
    radius: int
    min: Decimal
    max: Decimal
    mean: Decimal
    std: Decimal
    range: Decimal

    def rendered(self) -> dict:
        """Column -> value, as both the CSV and the JSON report show the row."""
        reals = {c: format_real(getattr(self, c)) for c in self._fields[1:]}
        return {"radius": self.radius, **reals}


def summarize(radius: int, values: Sequence[Decimal]) -> SweepRow:
    """Min/max/mean/population-sigma/range of one sample of lengths."""
    lo, hi = min(values), max(values)
    if lo == hi:
        # mean inherits the shared value; sigma is 0 by definition, not by
        # cancellation at the 50th digit.
        return SweepRow(radius, lo, hi, lo, Decimal(0), Decimal(0))
    n = Decimal(len(values))
    with localcontext(_PLAIN):
        mean = REAL.divide(sum(values, Decimal(0)), n)
        var = REAL.divide(
            sum((REAL.multiply(v - mean, v - mean) for v in values), Decimal(0)), n
        )
        return SweepRow(radius, lo, hi, mean, REAL.sqrt(var), hi - lo)


def _checked_radii(m: int, radii: Iterable[int], n_samples: int) -> list[int]:
    """``radii`` as a list, once each is feasible at rank ``m`` and none is
    repeated, and ``n_samples`` is at least 1; checked before any reduction."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    radii = list(radii)
    for r in radii:
        check_radius(m, r)
    for at, r in enumerate(radii):
        if r in radii[:at]:
            raise ValueError(f"radius {_quoted(r)} is repeated")
    return radii


def _sampled_shortest_sq(
    b: Basis, radii: list[int], n_samples: int, alpha: LllParams, seed: int
) -> list[tuple[int, list[int]]]:
    """(radius, the least squared row norm of each reduced permuted copy of
    ``b``) per radius, in order."""

    def shortest_sq(r: int, i: int) -> int:
        c = lll_reduce(apply(b, sample_at_radius(b.m, r, derive_rng(seed, "sweep", r, i))), alpha)
        return min(c.row_normsq(j) for j in range(c.m))

    return [(r, [shortest_sq(r, i) for i in range(n_samples)]) for r in radii]


def radius_sweep(
    b: Basis,
    radii: Iterable[int],
    n_samples: int,
    alpha: LllParams,
    seed: int = 0,
) -> tuple[SweepRow, ...]:
    """For each radius, reduce ``n_samples`` permuted copies of ``b`` and
    summarize the resulting shortest-vector lengths in one row."""
    radii = _checked_radii(b.m, radii, n_samples)
    samples = _sampled_shortest_sq(b, radii, n_samples, alpha, seed)
    return tuple(summarize(r, [_sqrt(sq) for sq in sqs]) for r, sqs in samples)


def improvement_frequency(
    b_star: Basis,
    radii: Iterable[int],
    n_samples: int,
    alpha: LllParams,
    seed: int = 0,
) -> dict[int, float]:
    """Fraction of permuted copies at each radius whose re-reduction yields
    a strictly shorter shortest vector than the reduced ``b_star`` has.

    ``b_star`` is reduced once at ``alpha`` (after the radius checks), and
    the copies are drawn from that reduced basis; the comparison is exact
    on squared norms.
    """
    radii = _checked_radii(b_star.m, radii, n_samples)
    reduced = lll_reduce(b_star, alpha)
    base_sq = min(reduced.row_normsq(j) for j in range(reduced.m))
    samples = _sampled_shortest_sq(reduced, radii, n_samples, alpha, seed)
    return {r: sum(sq < base_sq for sq in sqs) / n_samples for r, sqs in samples}
