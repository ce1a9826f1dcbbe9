"""Lattice diffusion and sublattice fusion.

One inner iteration shuffles the rows, cuts them into disjoint blocks,
reduces every block independently, concatenates the reduced blocks and
rearranges the result with a fresh right permutation.
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


def diffuse(b: Basis, k: int, rng: random.Random) -> list[Basis]:
    """Random disjoint partition of the rows into k blocks of about m/k rows.

    Every row lands in exactly one block, so the union of the blocks spans
    the original lattice and each block is itself a basis.
    """
    sizes = block_sizes(b.m, k)
    order = list(range(b.m))
    rng.shuffle(order)
    blocks = []
    at = 0
    for size in sizes:
        blocks.append(Basis._built(tuple(b.rows[i] for i in order[at : at + size])))
        at += size
    return blocks


def fuse(blocks: list[Basis], p: Permutation) -> Basis:
    """Concatenate blocks in order, then rearrange rows by p; ``apply``
    raises DegreeMismatchError when p's degree is not the row count.  The
    rows are the blocks' own ints, so only the shape is checked."""
    joined = Basis._built(tuple(row for blk in blocks for row in blk.rows))
    joined._check_shape()
    return apply(joined, p)


def ldsf_run(b: Basis, cfg: LdsfConfig, gram: int | None = None) -> LdsfTrace:
    """Diffuse / reduce / fuse for M inner iterations per outer pass.

    Each outer pass drops the block count k by one (floored at 1), so blocks
    grow to ceil(m / k) rows.  Stops after an outer pass whose best fused
    shortest vector meets ``target_bound``.  All randomness is derived from
    (seed, outer, inner), so traces replay identically.
    Fused bases span the lattice of ``b``: ``gram`` as in ``metrics``.
    The fusing permutation is a right one, so a rank below 3 raises
    DegreeTooSmallError before any reduction.
    """
    check_right_degree(b.m)
    gram = gram_det(b) if gram is None else gram
    m = b.m
    k = cfg.servers
    current = b
    rounds: list[LdsfRound] = []
    best_sq: int | None = None
    best_basis = b
    reached = False
    for outer in range(1, cfg.outer_iters + 1):
        for inner in range(1, cfg.inner_iters + 1):
            blocks = diffuse(current, k, derive_rng(cfg.seed, "ldsf", outer, inner, "cut"))
            reduced = [lll_reduce(blk, cfg.alpha) for blk in blocks]
            pi = sample_right(m, derive_rng(cfg.seed, "ldsf", outer, inner, "mix"))
            current = fuse(reduced, pi)
            fused_min_sq = min(current.row_normsq(i) for i in range(m))
            if best_sq is None or fused_min_sq < best_sq:
                best_sq, best_basis = fused_min_sq, current
            rounds.append(
                LdsfRound(
                    outer=outer,
                    inner=inner,
                    block_metrics=tuple(metrics(blk) for blk in reduced),
                    fused_metrics=metrics(current, gram),
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
    n_perms: int, b: Basis, cfg: LdsfConfig, rng: random.Random, gram: int | None = None
) -> list[tuple[Permutation, LdsfTrace]]:
    """LDSF runs of ``cfg`` from n sampled right permutations of b, each with
    its permutation; a sigma stage keeps the run whose final basis has the
    least ``reduction_key``.  ``gram`` as in ``ldsf_run``."""
    if n_perms < 1:
        raise ValueError("n_perms must be >= 1")
    gram = gram_det(b) if gram is None else gram
    out = []
    for i in range(n_perms):
        pi = sample_right(b.m, rng)
        run_cfg = cfg.replace(seed=derive_seed(cfg.seed, "sigma", i))
        out.append((pi, ldsf_run(apply(b, pi), run_cfg, gram)))
    return out

