"""Hill climbing over row permutations.

Each step draws a sample of permutations, re-reduces the permuted basis for
every candidate, and moves to the best candidate unconditionally (the walk
may go uphill; the globally best basis seen is tracked and returned).  The
fixed-radius walk samples one sphere of S_m, the variable-radius walk
spirals outward by ``rstep`` per step, and the PSL2 variant samples group
elements of PSL(2,p) acting on the projective line.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Callable, Union

from . import perm
from .core import (
    REAL, Basis, BasisMetrics, Record, _exact_target, _quoted, _sqrt, gram_det, metrics,
    reduction_key,
)
from .errors import DegreeMismatchError, InfeasibleRadiusError
from .lll import LllParams, lll_reduce
from .parallel import derive_rng


class FixedRadius(Record):
    radius: int


class VariableRadius(Record):
    r0: int
    rstep: int = 1


class Psl2(Record):
    prime: int


HcKind = Union[FixedRadius, VariableRadius, Psl2]


class HcConfig(Record):
    """Sample size k, step budget, reduction parameter, stopping bound.

    ``target_bound`` of None falls back to the default output target
    m * det(L)^(1/m); pass 0 to disable early stopping entirely.  A bound
    is kept as an exact, finite Decimal.
    """

    kind: HcKind
    sample_size: int
    max_steps: int
    alpha: LllParams
    target_bound: float | Decimal | None = None
    seed: int = 0

    def __post_init__(self):
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if isinstance(self.kind, VariableRadius) and self.kind.rstep < 1:
            raise ValueError("rstep must be >= 1")
        object.__setattr__(self, "target_bound", _exact_target(self.target_bound, "target_bound"))


class HcStep(Record):
    index: int
    permutation: perm.Permutation
    basis: Basis
    after: BasisMetrics
    improved: bool


class HcTrace(Record):
    steps: tuple[HcStep, ...]
    best_basis: Basis
    best_metrics: BasisMetrics
    initial_metrics: BasisMetrics
    det_bound: Decimal
    target_bound: Decimal
    reached_target: bool
    det_bound_met: bool


def det_bound(b: Basis) -> Decimal:
    """The walk's default output target m * det(L)^(1/m), det(L) from ``gram_det(b)``."""
    det = _sqrt(gram_det(b))
    root = REAL.power(det, REAL.divide(Decimal(1), Decimal(b.m)))
    return REAL.multiply(Decimal(b.m), root)


Sampler = Callable[[int], list[perm.Permutation]]


def _sampler(m: int, cfg: HcConfig) -> Sampler:
    """Step index -> the k permutations of that step, for the walk that
    ``cfg.kind`` names; the radius or degree is checked here, up front."""
    kind = cfg.kind
    if isinstance(kind, Psl2):
        if m != kind.prime + 1:
            raise DegreeMismatchError(
                f"PSL(2,{_quoted(kind.prime)}) acts on {_quoted(kind.prime + 1)} points, "
                f"basis rank is {m}"
            )
        perm.check_prime(kind.prime)
        return lambda step: perm.psl2_permutations(
            kind.prime, cfg.sample_size, derive_rng(cfg.seed, "hc", step)
        )
    if isinstance(kind, FixedRadius):
        r0, rstep = kind.radius, 0
    else:
        r0, rstep = kind.r0, kind.rstep
    perm.check_radius(m, r0)
    # Step i samples radius min(m, r0 + (i-1)*rstep), which never falls, so
    # from r0 = 0 only step 2 can land on the infeasible radius 1.
    if r0 == 0 and min(m, rstep) == 1 and cfg.max_steps > 1:
        raise InfeasibleRadiusError(
            f"step 2 of the walk from r0 = 0 by rstep {_quoted(rstep)} has radius 1: "
            f"no permutation of degree {m} moves exactly 1 point"
        )

    def sampler(step: int) -> list[perm.Permutation]:
        r = min(m, r0 + (step - 1) * rstep)
        return [
            perm.sample_at_radius(m, r, derive_rng(cfg.seed, "hc", step, j))
            for j in range(cfg.sample_size)
        ]

    return sampler


def hill_climb(b0: Basis, cfg: HcConfig) -> HcTrace:
    """Walk from lll(b0) over row permutations drawn as ``cfg.kind`` says.

    FixedRadius samples one sphere of S_m every step; VariableRadius starts
    at r0 and grows the radius by rstep per step, clamped at m (the draws are
    right permutations once the schedule passes m/2); Psl2 draws elements of
    PSL(2,p) acting on p+1 points, so the rank must be p+1.
    Every basis of the walk spans the lattice of b0 and carries its
    ``gram_det``, taken of b0 before the first reduction.
    """
    sampler = _sampler(b0.m, cfg)
    bound = det_bound(b0)
    current = lll_reduce(b0, cfg.alpha)
    best = current
    best_key = reduction_key(current)
    initial = best_metrics = metrics(current)
    target = bound if cfg.target_bound is None else cfg.target_bound

    steps: list[HcStep] = []
    reached = initial.shortest <= target
    i = 1
    while i <= cfg.max_steps and not reached:
        sample = sampler(i)
        candidates = [lll_reduce(perm.apply(current, pi), cfg.alpha) for pi in sample]
        keyed = [reduction_key(c) for c in candidates]
        j = min(range(len(candidates)), key=keyed.__getitem__)
        current = candidates[j]
        after = metrics(current)
        improved = keyed[j] < best_key
        if improved:
            best, best_key, best_metrics = current, keyed[j], after
        steps.append(
            HcStep(index=i, permutation=sample[j], basis=current, after=after, improved=improved)
        )
        reached = best_metrics.shortest <= target
        i += 1

    return HcTrace(
        steps=tuple(steps),
        best_basis=best,
        best_metrics=best_metrics,
        initial_metrics=initial,
        det_bound=bound,
        target_bound=target,
        reached_target=reached,
        det_bound_met=best_metrics.shortest <= bound,
    )
