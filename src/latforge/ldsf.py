"""Lattice diffusion and sublattice fusion.

Each round of ``ldsf_run`` (one inner iteration) shuffles the rows, cuts
them into disjoint blocks, reduces every block independently, concatenates
the reduced blocks and rearranges the result with a fresh right permutation.
The outer loop drops the block count by one each pass, so blocks grow until
the reduction is effectively whole-basis.  ``sigma_candidates`` runs it
from n sampled starting permutations; a sigma stage of ``run_pipeline``
keeps the best of them.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal

from .core import Basis, BasisMetrics, Record, gram_det, metrics, _exact_target, _sqrt
from .errors import BadBlockingError
from .lll import DEFAULT_PARAMS, LllParams, lll_reduce
from .parallel import derive_rng, derive_seed
from .perm import Permutation, apply, check_right_degree, sample_right


class LdsfConfig(Record):
    """Block count, loop depths, stop bound (kept as an exact, finite
    Decimal).  Blocks hold ceil(m / servers) rows each; see ``ldsf_run``."""

    servers: int
    inner_iters: int = 1
    outer_iters: int = 1
    alpha: LllParams = DEFAULT_PARAMS
    target_bound: float | Decimal | None = None
    seed: int = 0

    def __post_init__(self):
        if self.servers < 1:
            raise ValueError("servers must be >= 1")
        if self.inner_iters < 1 or self.outer_iters < 1:
            raise ValueError("inner_iters and outer_iters must be >= 1")
        object.__setattr__(self, "target_bound", _exact_target(self.target_bound, "target_bound"))


class LdsfRound(Record):
    outer: int
    inner: int
    block_metrics: tuple[BasisMetrics, ...]
    fused_metrics: BasisMetrics
    fused_basis: Basis
    permutation: Permutation


class LdsfTrace(Record):
    rounds: tuple[LdsfRound, ...]
    best_vector_norm: Decimal
    best_basis: Basis
    final_basis: Basis
    reached_target: bool


def block_sizes(m: int, k: int) -> list[int]:
    """Sizes of k blocks covering m rows, each of size >= 2.

    The first k-1 blocks get beta = ceil(m/k) rows and the last the rest;
    when that leaves the last block short, fall back to an even split.
    """
    if k < 1:
        raise BadBlockingError("need at least one block")
    beta = math.ceil(m / k)
    if beta < 2:
        raise BadBlockingError("block size must be >= 2")
    if k == 1:
        return [m]
    last = m - (k - 1) * beta
    if last >= 2:
        return [beta] * (k - 1) + [last]
    base, rem = divmod(m, k)
    if base < 2:
        raise BadBlockingError(
            f"cannot cover {m} rows with {k} blocks of size >= 2"
        )
    return [base + 1] * rem + [base] * (k - rem)


def ldsf_run(b: Basis, cfg: LdsfConfig) -> LdsfTrace:
    """Diffuse / reduce / fuse for M inner rounds per outer pass.

    A round shuffles the row positions with the (seed, "ldsf", outer, inner,
    "cut") generator and cuts them into ``block_sizes(m, k)`` blocks, so
    every row lands in exactly one block and each block is a basis.  It
    reduces each block, joins the reduced rows in block order and
    rearranges them by a right permutation drawn from (..., "mix"): fused
    row i is joined row pi(i).  Each outer pass drops the block count k by
    one (floored at 1), so blocks grow to ceil(m / k) rows.  Stops after an
    outer pass whose best fused shortest vector meets ``target_bound``.
    Fused bases span the lattice of ``b`` and carry ``gram_det(b)``.
    The fusing permutation is a right one, so a rank below 3 raises
    DegreeTooSmallError before any reduction.
    """
    check_right_degree(b.m)
    gram_det(b)
    m = b.m
    k = cfg.servers
    current = b
    rounds: list[LdsfRound] = []
    best_sq: int | None = None
    best_basis = b
    reached = False
    for outer in range(1, cfg.outer_iters + 1):
        for inner in range(1, cfg.inner_iters + 1):
            order = list(range(m))
            derive_rng(cfg.seed, "ldsf", outer, inner, "cut").shuffle(order)
            reduced, at = [], 0
            for size in block_sizes(m, k):
                block = Basis._built(tuple(current.rows[i] for i in order[at : at + size]))
                reduced.append(lll_reduce(block, cfg.alpha))
                at += size
            pi = sample_right(m, derive_rng(cfg.seed, "ldsf", outer, inner, "mix"))
            joined = Basis._built(tuple(row for blk in reduced for row in blk.rows), like=b)
            current = apply(joined, pi)
            fused_min_sq = min(current.row_normsq(i) for i in range(m))
            if best_sq is None or fused_min_sq < best_sq:
                best_sq, best_basis = fused_min_sq, current
            rounds.append(
                LdsfRound(
                    outer=outer,
                    inner=inner,
                    block_metrics=tuple(metrics(blk) for blk in reduced),
                    fused_metrics=metrics(current),
                    fused_basis=current,
                    permutation=pi,
                )
            )
        if cfg.target_bound is not None and _sqrt(best_sq) <= cfg.target_bound:
            reached = True
            break
        k = max(1, k - 1)
    return LdsfTrace(
        rounds=tuple(rounds),
        best_vector_norm=_sqrt(best_sq),
        best_basis=best_basis,
        final_basis=current,
        reached_target=reached,
    )


def sigma_candidates(
    n_perms: int, b: Basis, cfg: LdsfConfig, rng: random.Random
) -> list[tuple[Permutation, LdsfTrace]]:
    """LDSF runs of ``cfg`` from n sampled right permutations of b, each with
    its permutation; a sigma stage keeps the run whose final basis has the
    least ``reduction_key``.  Every start carries ``gram_det(b)``."""
    if n_perms < 1:
        raise ValueError("n_perms must be >= 1")
    gram_det(b)
    out = []
    for i in range(n_perms):
        pi = sample_right(b.m, rng)
        run_cfg = cfg.replace(seed=derive_seed(cfg.seed, "sigma", i))
        out.append((pi, ldsf_run(apply(b, pi), run_cfg)))
    return out

