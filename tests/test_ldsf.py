import math
from collections import Counter
from fractions import Fraction

import pytest

from latforge import (
    Basis,
    BadBlockingError,
    DegreeMismatchError,
    LdsfConfig,
    LllParams,
    Permutation,
    StageSpec,
    diffuse,
    fuse,
    gram_det,
    hnf,
    knapsack_basis,
    ldsf_run,
    lll_reduce,
    metrics,
    run_pipeline,
    uniform_basis,
)
from latforge import core
from latforge import ldsf as ldsf_mod
from latforge.ldsf import block_sizes, sigma_candidates
from latforge.parallel import derive_rng, derive_seed

from helpers import counting, reference_metrics

A34 = LllParams(Fraction(3, 4))


def cfg(servers, inner=1, outer=1, seed=0, target=None):
    return LdsfConfig(
        servers=servers,
        inner_iters=inner,
        outer_iters=outer,
        alpha=A34,
        target_bound=target,
        seed=seed,
    )


class TestBlocking:
    def test_exact_partition(self):
        assert block_sizes(6, 3) == [2, 2, 2]

    def test_last_absorbs_remainder(self):
        assert block_sizes(8, 3) == [3, 3, 2]

    def test_single_block(self):
        assert block_sizes(6, 1) == [6]

    def test_even_fallback_when_last_too_small(self):
        assert block_sizes(7, 3) == [3, 2, 2]

    def test_infeasible(self):
        for m, k, message in [
            (5, 3, "cannot cover 5 rows with 3 blocks of size >= 2"),
            (3, 3, "block size must be >= 2"),
            (1, 1, "block size must be >= 2"),
            (6, 0, "need at least one block"),
        ]:
            with pytest.raises(BadBlockingError, match=message):
                block_sizes(m, k)

    def test_sizes_are_ceil_then_even_split(self):
        # Written out: the first k-1 blocks of ceil(m/k) rows when the last
        # keeps >= 2, else sizes differing by at most one, larger first.
        for m in range(2, 40):
            for k in range(1, m // 2 + 1):
                beta = math.ceil(m / k)
                last = m - (k - 1) * beta
                if k == 1 or last >= 2:
                    expect = [beta] * (k - 1) + [last]
                else:
                    expect = [m // k + (i < m % k) for i in range(k)]
                assert block_sizes(m, k) == expect, (m, k)

    def test_diffuse_partitions_rows(self):
        b = uniform_basis(7, -9, 9, seed=1)
        blocks = diffuse(b, 3, derive_rng("cut"))
        assert [blk.m for blk in blocks] == [3, 2, 2]
        scattered = Counter(row for blk in blocks for row in blk.rows)
        assert scattered == Counter(b.rows)

    def test_diffuse_whole_basis(self):
        b = uniform_basis(6, -9, 9, seed=2)
        (block,) = diffuse(b, 1, derive_rng("one"))
        assert Counter(block.rows) == Counter(b.rows)


class TestFuse:
    def test_single_block_identity_perm(self):
        b = uniform_basis(5, -9, 9, seed=3)
        assert fuse([b], Permutation.identity(5)) == b

    def test_partition_roundtrip_same_lattice(self):
        b = uniform_basis(6, -99, 99, seed=4)
        blocks = diffuse(b, 2, derive_rng("f"))
        fused = fuse(blocks, Permutation.identity(6))
        assert hnf(fused) == hnf(b)

    def test_reversal(self):
        b = Basis(((1, 0), (0, 2)))
        assert fuse([b], Permutation((2, 1))).rows == ((0, 2), (1, 0))

    def test_degree_mismatch(self):
        b = uniform_basis(4, -9, 9, seed=5)
        with pytest.raises(DegreeMismatchError):
            fuse([b], Permutation.identity(5))


class TestRun:
    def test_single_block_matches_whole_reduction(self):
        b = uniform_basis(6, -99, 99, seed=6)
        trace = ldsf_run(b, cfg(servers=1, inner=2))
        assert trace.best_vector_norm <= metrics(lll_reduce(b, A34)).shortest

    def test_rounds_preserve_lattice(self):
        b = uniform_basis(12, -999, 999, seed=7)
        trace = ldsf_run(b, cfg(servers=3, inner=2, outer=2))
        h = hnf(b)
        assert all(hnf(r.fused_basis) == h for r in trace.rounds)
        assert hnf(trace.final_basis) == h

    def test_best_norm_is_running_min(self):
        b = uniform_basis(10, -999, 999, seed=8)
        trace = ldsf_run(b, cfg(servers=3, inner=2, outer=3))
        assert trace.best_vector_norm == min(
            r.fused_metrics.shortest for r in trace.rounds
        )

    def test_a_tied_round_keeps_the_earlier_best(self):
        # Every fused round of the identity basis has shortest row 1.
        trace = ldsf_run(Basis.identity(6), cfg(servers=2, inner=3))
        assert [r.fused_metrics.shortest for r in trace.rounds] == [1, 1, 1]
        assert trace.rounds[-1].fused_basis != trace.rounds[0].fused_basis
        assert trace.best_basis == trace.rounds[0].fused_basis

    def test_block_count_decrements_and_size_grows(self):
        b = uniform_basis(12, -99, 99, seed=9)
        trace = ldsf_run(b, cfg(servers=3, inner=1, outer=3))
        per_outer = {r.outer: len(r.block_metrics) for r in trace.rounds}
        assert per_outer == {1: 3, 2: 2, 3: 1}

    def test_entry_shrinkage_on_knapsack(self):
        b = knapsack_basis(12, bits=120, seed=10)
        trace = ldsf_run(b, cfg(servers=3, inner=2, outer=2))
        assert trace.final_basis.max_abs_entry() < b.max_abs_entry()

    def test_target_stops_after_outer_pass(self):
        b = uniform_basis(8, -99, 99, seed=12)
        huge_target = float(metrics(b).longest) * 10
        trace = ldsf_run(b, cfg(servers=2, inner=1, outer=5, target=huge_target))
        assert trace.reached_target
        assert max(r.outer for r in trace.rounds) == 1

    def test_target_past_4300_digits(self):
        b = uniform_basis(8, -99, 99, seed=12)
        trace = ldsf_run(b, cfg(servers=2, outer=5, target=10**5000))
        assert trace.reached_target
        assert len(trace.rounds) == 1

    def test_equal_seeds_give_equal_records(self):
        # A trace holds results only, so no clock tells two equal runs apart.
        b = uniform_basis(10, -999, 999, seed=8)
        runs = [ldsf_run(b, cfg(servers=3, inner=2, outer=2, seed=5)) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LdsfConfig(servers=0)
        with pytest.raises(ValueError):
            LdsfConfig(servers=1, inner_iters=0)


def sigma_stage(b, blocks, sample, inner=1, seed=0):
    """Final basis of a pipeline whose only stage is sigma."""
    stage = StageSpec(
        kind="sigma", alpha=A34, blocks=blocks, sample_n=sample, inner_iters=inner
    )
    return run_pipeline(b, [stage], seed=seed).final_basis


class TestSigma:
    """The best-of-n selection, as a sigma stage of ``run_pipeline`` makes it."""

    def test_identity_permutation_degenerates_to_plain_run(self, monkeypatch):
        b = uniform_basis(8, -99, 99, seed=13)
        monkeypatch.setattr(
            ldsf_mod, "sample_right", lambda m, rng: Permutation.identity(m)
        )
        got = sigma_stage(b, 2, 1, inner=2, seed=21)
        run_seed = derive_seed(derive_seed(21, "stage", 1), "sigma", 0)
        expect = ldsf_run(
            b, LdsfConfig(servers=2, inner_iters=2, alpha=A34, seed=run_seed)
        ).final_basis
        assert got == expect

    def test_lattice_preserved(self):
        b = uniform_basis(9, -99, 99, seed=14)
        out = sigma_stage(b, 3, 3, seed=5)
        assert hnf(out) == hnf(b)

    def test_best_of_sample_selection(self):
        b = uniform_basis(9, -999, 999, seed=15)
        best = sigma_stage(b, 3, 5, inner=2, seed=6)
        base = cfg(servers=3, inner=2, seed=derive_seed(6, "stage", 1))
        candidates = sigma_candidates(5, b, base, derive_rng(6, "stage", 1, "perms"))
        assert best in [t.final_basis for _, t in candidates]
        assert metrics(best).shortest == min(
            metrics(t.final_basis).shortest for _, t in candidates
        )

    def test_no_candidates_is_an_error(self):
        b = uniform_basis(6, -99, 99, seed=18)
        with pytest.raises(ValueError, match="n_perms must be >= 1"):
            sigma_candidates(0, b, cfg(servers=2), derive_rng("none"))


def assert_reference_metrics(trace, servers):
    """Every fused and block metric of ``trace`` equals the metric of its
    basis with that basis's own reference determinant.  The blocks are the
    fused rows put back in concatenation order and split as ``diffuse``."""
    for rnd in trace.rounds:
        fused = rnd.fused_basis
        assert rnd.fused_metrics == reference_metrics(fused)
        rows = [None] * fused.m
        for row, image in zip(fused.rows, rnd.permutation.images):
            rows[image - 1] = row
        k = max(1, servers - rnd.outer + 1)
        blocks, at = [], 0
        for size in block_sizes(fused.m, k):
            blocks.append(Basis(tuple(rows[at : at + size])))
            at += size
        assert rnd.block_metrics == tuple(reference_metrics(blk) for blk in blocks)


class TestCarriedDeterminant:
    def test_ldsf_run(self):
        b = knapsack_basis(9, bits=40, seed=16)
        assert_reference_metrics(ldsf_run(b, cfg(servers=3, inner=2, outer=3, seed=4)), 3)

    def test_sigma_candidates(self):
        b = knapsack_basis(8, bits=40, seed=17)
        base = cfg(servers=2, inner=2, outer=2, seed=8)
        candidates = sigma_candidates(3, b, base, derive_rng("carried"))
        for _, trace in candidates:
            assert_reference_metrics(trace, 2)


class TestLazyMetrics:
    def test_block_determinant_waits_for_a_read(self, monkeypatch):
        b = knapsack_basis(9, bits=40, seed=16)
        gram = gram_det(b)
        calls = Counter()
        counted = counting(calls, "gram_det", gram_det)
        monkeypatch.setattr(core, "gram_det", counted)
        monkeypatch.setattr(ldsf_mod, "gram_det", counted)
        trace = ldsf_run(b, cfg(servers=3, inner=2, outer=2, seed=4), gram)
        rounds = trace.rounds
        assert sum(len(r.block_metrics) for r in rounds) > 1
        for r in rounds:
            r.fused_metrics.det_lattice  # carried: computes nothing
            for bm in r.block_metrics:
                bm.shortest, bm.longest, bm.log10_weight
        assert calls == {}
        block = rounds[-1].block_metrics[0]
        det = block.det_lattice
        assert calls == {"gram_det": 1}
        assert block.det_lattice == det
        assert calls == {"gram_det": 1}
