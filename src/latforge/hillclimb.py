"""Hill climbing over row permutations.

Each step draws a sample of permutations, re-reduces the permuted basis for
every candidate, and moves to the best candidate unconditionally (the walk
may go uphill; the globally best basis seen is tracked and returned).  The
fixed-radius walk samples one sphere of S_m, the variable-radius walk
spirals outward by ``rstep`` per step, and the PSL2 variant samples group
elements of PSL(2,p) acting on the projective line.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Union

from . import perm
from .core import REAL, Basis, BasisMetrics, gram_det, metrics, reduction_key, _sqrt
from .errors import DegreeMismatchError, InfeasibleRadiusError
from .lll import LllParams, lll_reduce
from .parallel import derive_rng, pmap


@dataclass(frozen=True)
class FixedRadius:
    radius: int


@dataclass(frozen=True)
class VariableRadius:
    r0: int
    rstep: int = 1


@dataclass(frozen=True)
class Psl2:
    prime: int


HcKind = Union[FixedRadius, VariableRadius, Psl2]


@dataclass(frozen=True)
class HcConfig:
    """Sample size k, step budget, reduction parameter, stopping bound.

    ``target_bound`` of None falls back to the default output target
    m * det(L)^(1/m); pass 0 to disable early stopping entirely.
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


@dataclass(frozen=True)
class HcStep:
    index: int
    permutation: perm.Permutation
    basis: Basis
    after: BasisMetrics
    improved: bool
    seconds: float


@dataclass(frozen=True)
class HcTrace:
    steps: tuple[HcStep, ...]
    best_basis: Basis
    best_metrics: BasisMetrics
    initial_metrics: BasisMetrics
    det_bound: Decimal
    target_bound: Decimal
    reached_target: bool
    det_bound_met: bool
    seconds: float


def det_bound(b: Basis, gram: int | None = None) -> Decimal:
    """The walk's default output target m * det(L)^(1/m); ``gram`` as in ``metrics``."""
    det = _sqrt(gram_det(b) if gram is None else gram)
    root = REAL.power(det, REAL.divide(Decimal(1), Decimal(b.m)))
    return REAL.multiply(Decimal(b.m), root)


Sampler = Callable[[int], list[perm.Permutation]]


def _climb(b0: Basis, cfg: HcConfig, sampler: Sampler) -> HcTrace:
    started = time.perf_counter()
    current = lll_reduce(b0, cfg.alpha)
    best = current
    best_key = reduction_key(current)
    # Every basis of the walk spans the lattice of b0: one determinant.
    gram = gram_det(current)
    initial = metrics(current, gram)
    bound = det_bound(b0, gram)
    target = bound if cfg.target_bound is None else Decimal(str(cfg.target_bound))

    steps: list[HcStep] = []
    best_shortest = initial.shortest
    reached = best_shortest <= target
    i = 1
    while i <= cfg.max_steps and not reached:
        step_started = time.perf_counter()
        sample = sampler(i)
        frozen = current
        candidates = pmap(
            lambda pi: lll_reduce(perm.apply(frozen, pi), cfg.alpha), sample
        )
        keyed = [reduction_key(c) for c in candidates]
        j = min(range(len(candidates)), key=keyed.__getitem__)
        current = candidates[j]
        improved = keyed[j] < best_key
        if improved:
            best, best_key = current, keyed[j]
        after = metrics(current, gram)
        steps.append(
            HcStep(
                index=i,
                permutation=sample[j],
                basis=current,
                after=after,
                improved=improved,
                seconds=time.perf_counter() - step_started,
            )
        )
        best_shortest = min(best_shortest, after.shortest)
        reached = best_shortest <= target
        i += 1

    best_metrics = metrics(best, gram)
    return HcTrace(
        steps=tuple(steps),
        best_basis=best,
        best_metrics=best_metrics,
        initial_metrics=initial,
        det_bound=bound,
        target_bound=target,
        reached_target=reached,
        det_bound_met=best_metrics.shortest <= bound,
        seconds=time.perf_counter() - started,
    )


def _check_radius(m: int, r: int) -> None:
    if r == 1 or r < 0 or r > m:
        raise InfeasibleRadiusError(
            f"no permutation of degree {m} moves exactly {r} points"
        )


def hc_fixed(b0: Basis, cfg: HcConfig) -> HcTrace:
    """Spherical walk: every step samples k permutations of one radius."""
    kind = cfg.kind
    if not isinstance(kind, FixedRadius):
        raise ValueError("hc_fixed needs a FixedRadius config")
    _check_radius(b0.m, kind.radius)

    def sampler(step: int) -> list[perm.Permutation]:
        return [
            perm.sample_at_radius(b0.m, kind.radius, derive_rng(cfg.seed, "hc", step, j))
            for j in range(cfg.sample_size)
        ]

    return _climb(b0, cfg, sampler)


def hc_variable(b0: Basis, cfg: HcConfig) -> HcTrace:
    """Spiral walk: the sampling radius grows by rstep per step, clamped at m.

    Intended for right radii; the sample at a given radius is exact, so the
    draws are right permutations as soon as the schedule passes m/2.
    """
    kind = cfg.kind
    if not isinstance(kind, VariableRadius):
        raise ValueError("hc_variable needs a VariableRadius config")
    _check_radius(b0.m, kind.r0)

    def sampler(step: int) -> list[perm.Permutation]:
        r = min(b0.m, kind.r0 + (step - 1) * kind.rstep)
        return [
            perm.sample_at_radius(b0.m, r, derive_rng(cfg.seed, "hc", step, j))
            for j in range(cfg.sample_size)
        ]

    return _climb(b0, cfg, sampler)


def hc_psl2(b0: Basis, cfg: HcConfig) -> HcTrace:
    """Fixed walk with samples drawn from PSL(2,p) acting on p+1 points."""
    kind = cfg.kind
    if not isinstance(kind, Psl2):
        raise ValueError("hc_psl2 needs a Psl2 config")
    if b0.m != kind.prime + 1:
        raise DegreeMismatchError(
            f"PSL(2,{kind.prime}) acts on {kind.prime + 1} points, basis rank is {b0.m}"
        )

    def sampler(step: int) -> list[perm.Permutation]:
        return perm.psl2_permutations(
            kind.prime, cfg.sample_size, derive_rng(cfg.seed, "hc", step)
        )

    return _climb(b0, cfg, sampler)
