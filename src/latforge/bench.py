"""Sensitivity experiments: reduce many permuted copies of one basis and
tabulate what happens to the shortest vector."""

from __future__ import annotations

from decimal import Decimal, localcontext
from typing import Iterable, Sequence

from .core import REAL, Basis, Record, _PLAIN, _quoted, _sqrt, format_real
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
    with localcontext(_PLAIN):
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


def _sampled_shortest_sq(
    b: Basis, radii: Iterable[int], n_samples: int, alpha: LllParams, seed: int
) -> list[tuple[int, list[int]]]:
    """(radius, the least squared row norm of each reduced permuted copy of
    ``b``) per radius, in order.  Before any reduction, every radius must be
    feasible for ``b``, and then none may be given twice."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    radii = list(radii)
    for r in radii:
        check_radius(b.m, r)
    for at, r in enumerate(radii):
        if r in radii[:at]:
            raise ValueError(f"radius {_quoted(r)} is repeated")
    out = []
    for r in radii:
        copies = (
            lll_reduce(apply(b, sample_at_radius(b.m, r, derive_rng(seed, "sweep", r, i))), alpha)
            for i in range(n_samples)
        )
        out.append((r, [min(c.row_normsq(j) for j in range(c.m)) for c in copies]))
    return out


def radius_sweep(
    b: Basis,
    radii: Iterable[int],
    n_samples: int,
    alpha: LllParams,
    seed: int = 0,
) -> SweepResult:
    """For each radius, reduce ``n_samples`` permuted copies of ``b`` and
    collect the distribution of the resulting shortest-vector lengths."""
    samples = _sampled_shortest_sq(b, radii, n_samples, alpha, seed)
    return SweepResult(rows=tuple(summarize(r, [_sqrt(sq) for sq in sqs]) for r, sqs in samples))


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
    samples = _sampled_shortest_sq(b_star, radii, n_samples, alpha, seed)
    return {r: sum(sq < base_sq for sq in sqs) / n_samples for r, sqs in samples}
