from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latforge import (
    BadStageParamsError,
    LllParams,
    StageInfeasibleError,
    StageReport,
    StageSpec,
    default_four_stage,
    hnf,
    is_lll_reduced,
    knapsack_basis,
    ldsf_run,
    lll_reduce,
    reduction_key,
    run_pipeline,
    svp_oracle,
    uniform_basis,
)
from latforge import pipeline
from latforge.ldsf import sigma_candidates
from latforge.pipeline import KIND_LDSF, KIND_LLL, KIND_SIGMA, stage_from_dict

from helpers import reference_metrics, run_pipeline_reference
from test_core import SMALL_BASES
from test_same_bytes import STAGES

A34 = LllParams(Fraction(3, 4))


class TestTemplates:
    def test_four_stage_shape(self):
        stages = default_four_stage(3, 10, 2, A34)
        assert [s.kind for s in stages] == [KIND_LDSF, KIND_SIGMA, KIND_SIGMA, KIND_LLL]
        assert [s.blocks for s in stages[:3]] == [3, 3, 2]
        assert stages[1].sample_n == 10

    def test_shrinking_blocks_required(self):
        with pytest.raises(BadStageParamsError):
            default_four_stage(2, 5, 2, A34)

    def test_table_shaped_five_stage_list(self):
        # the 5-stage layout: blocks 3,6,3,2,2 with samples 1,10,5,5,5
        stages = [
            StageSpec(kind=KIND_LDSF, alpha=A34, blocks=3),
            StageSpec(kind=KIND_SIGMA, alpha=A34, blocks=6, sample_n=10),
            StageSpec(kind=KIND_SIGMA, alpha=A34, blocks=3, sample_n=5),
            StageSpec(kind=KIND_SIGMA, alpha=A34, blocks=2, sample_n=5),
            StageSpec(kind=KIND_SIGMA, alpha=A34, blocks=2, sample_n=5),
        ]
        assert [s.blocks for s in stages] == [3, 6, 3, 2, 2]
        assert [s.sample_n for s in stages] == [1, 10, 5, 5, 5]

    def test_stage_validation(self):
        with pytest.raises(BadStageParamsError):
            StageSpec(kind="bogus", alpha=A34)
        with pytest.raises(BadStageParamsError):
            StageSpec(kind=KIND_SIGMA, alpha=A34, blocks=2, sample_n=0)

    @pytest.mark.parametrize(
        "kind, fields, message",
        [
            (KIND_LLL, {"blocks": 0}, "lll stage does not use blocks"),
            (
                KIND_LLL,
                {"blocks": 0, "sample_n": -5, "inner_iters": 0, "target_bound": Decimal(2)},
                "lll stage does not use blocks, sample_n, target_bound, inner_iters",
            ),
            (KIND_LLL, {"target_bound": Decimal("NaN")}, "lll stage does not use target_bound"),
            (KIND_LLL, {"outer_iters": 2}, "lll stage does not use outer_iters"),
            (KIND_LDSF, {"blocks": 2, "sample_n": 2}, "ldsf stage does not use sample_n"),
            (KIND_LDSF, {"sample_n": 99}, "ldsf stage does not use sample_n"),
        ],
        ids=["lll-blocks", "lll-four", "lll-nan-target", "lll-outer", "ldsf-two", "ldsf-sample"],
    )
    def test_unread_field_must_hold_its_default(self, kind, fields, message):
        with pytest.raises(BadStageParamsError, match=message):
            StageSpec(kind=kind, alpha=A34, **fields)

    def test_each_kind_reports_its_own_fields(self):
        b = uniform_basis(8, -99, 99, seed=9)
        stages = [
            StageSpec(kind=KIND_LDSF, alpha=A34, blocks=3, inner_iters=2, outer_iters=2),
            StageSpec(kind=KIND_SIGMA, alpha=A34, blocks=2, sample_n=3, target_bound=0),
            StageSpec(kind=KIND_LLL, alpha=A34),
        ]
        report = run_pipeline(b, stages, seed=4)
        got = [(s.blocks, s.sample_n) for s in report.stage_reports]
        assert got == [(3, 1), (2, 3), (1, 1)]


class TestRun:
    def test_single_lll_stage_is_plain_reduction(self):
        b = uniform_basis(8, -99, 99, seed=1)
        report = run_pipeline(b, [StageSpec(kind=KIND_LLL, alpha=A34)], seed=0)
        assert report.final_basis == lll_reduce(b, A34)

    def test_empty_stage_list_rejected(self):
        b = uniform_basis(4, -9, 9, seed=2)
        with pytest.raises(BadStageParamsError):
            run_pipeline(b, [], seed=0)

    def test_stage_infeasible(self):
        b = uniform_basis(4, -9, 9, seed=3)
        stages = [StageSpec(kind=KIND_LDSF, alpha=A34, blocks=9)]
        with pytest.raises(StageInfeasibleError):
            run_pipeline(b, stages, seed=0)

    def test_four_stage_end_state(self):
        b = uniform_basis(12, -999, 999, seed=4)
        report = run_pipeline(b, default_four_stage(4, 3, 2, A34), seed=7)
        assert is_lll_reduced(report.final_basis, A34)
        assert hnf(report.final_basis) == hnf(b)
        assert len(report.stage_reports) == 4

    def test_llb_at_least_lambda1(self):
        b = uniform_basis(5, -30, 30, seed=5)
        lam_sq = sum(x * x for x in svp_oracle(b, 8).vector)
        report = run_pipeline(b, default_four_stage(2, 2, 1, A34), seed=1)
        for stage in report.stage_reports:
            assert stage.llb * stage.llb >= lam_sq - 1e-20

    def test_deterministic(self):
        b = uniform_basis(10, -99, 99, seed=6)
        stages = default_four_stage(3, 2, 2, A34)
        r1 = run_pipeline(b, stages, seed=5)
        r2 = run_pipeline(b, stages, seed=5)
        assert r1.final_basis == r2.final_basis
        assert [s.llb for s in r1.stage_reports] == [s.llb for s in r2.stage_reports]

    def test_input_determinant_is_computed_once(self, computed_gram_dets):
        # det(B.B^T) of b0 is taken before the first stage, so even an lll
        # stage first hands on a basis that carries it.
        b = knapsack_basis(8, bits=40, seed=8)
        stages = [
            StageSpec(kind=KIND_LLL, alpha=A34),
            StageSpec(kind=KIND_SIGMA, alpha=A34, blocks=2, sample_n=2),
        ]
        report = run_pipeline(b, stages, seed=3)
        for stage in report.stage_reports:
            stage.before.det_lattice, stage.after.det_lattice
        assert computed_gram_dets == [b.rows]

    def test_carried_determinant_matches_reference(self):
        # Stage seeds depend only on the stage index, so a run of the first
        # i stages ends on the basis that stage i handed on.
        b = knapsack_basis(8, bits=40, seed=8)
        stages = [
            StageSpec(kind=KIND_LDSF, alpha=A34, blocks=2, inner_iters=2),
            StageSpec(kind=KIND_SIGMA, alpha=A34, blocks=2, sample_n=2),
            StageSpec(kind=KIND_LLL, alpha=LllParams("99/100")),
        ]
        report = run_pipeline(b, stages, seed=3)
        bases = [b] + [
            run_pipeline(b, stages[:i], seed=3).final_basis
            for i in range(1, len(stages) + 1)
        ]
        assert bases[-1] == report.final_basis
        for stage, before, after in zip(report.stage_reports, bases, bases[1:]):
            assert stage.before == reference_metrics(before)
            assert stage.after == reference_metrics(after)

    def test_each_stage_keeps_its_wall_clock(self):
        # StageReport.seconds is the one clock a result keeps: perfbench's
        # tracer reads it on every traced hybrid run.
        b = uniform_basis(8, -99, 99, seed=7)
        report = run_pipeline(b, default_four_stage(2, 2, 1, A34), seed=2)
        assert len(report.stage_reports) == 4
        assert all(s.seconds >= 0 for s in report.stage_reports)


class TestSigmaStageDecisions:
    """What a sigma stage keeps of its candidates, and what it reports."""

    @pytest.fixture
    def run(self, monkeypatch):
        """The stage report of a sigma stage, and the candidates it saw."""
        seen = []

        def recording(*args):
            out = sigma_candidates(*args)
            seen.extend(out)
            return out

        monkeypatch.setattr(pipeline, "sigma_candidates", recording)
        b = uniform_basis(9, -999, 999, seed=15)
        stage = StageSpec(kind=KIND_SIGMA, alpha=A34, blocks=3, sample_n=3, inner_iters=2)
        report = run_pipeline(b, [stage], seed=0)
        return report, [trace for _, trace in seen]

    def test_keeps_the_least_reduction_key(self, run):
        report, traces = run
        keys = [reduction_key(t.final_basis) for t in traces]
        least = keys.index(min(keys))
        assert least > 0  # so keeping the first candidate would differ
        assert report.final_basis == traces[least].final_basis

    def test_llb_and_lub_are_the_least_fused_values(self, run):
        report, traces = run
        fused = [r.fused_metrics for t in traces for r in t.rounds]
        longest = [f.longest for f in fused]
        assert min(longest) < max(longest)
        assert report.stage_reports[0].lub == min(longest)
        assert report.stage_reports[0].llb == min(f.shortest for f in fused)


class TestStageDecisions:
    """What an ldsf or an lll stage hands on and reports.  Each test first
    checks that its input tells the right decision from the wrong one."""

    LDSF = StageSpec(kind=KIND_LDSF, alpha=A34, blocks=3, inner_iters=2, outer_iters=2)

    @pytest.fixture
    def ldsf_stage(self, monkeypatch):
        """b -> the report of the LDSF stage alone on b at seed 0, and its trace."""
        seen = []

        def recording(*args):
            seen.append(ldsf_run(*args))
            return seen[-1]

        monkeypatch.setattr(pipeline, "ldsf_run", recording)

        def run(b):
            report = run_pipeline(b, [self.LDSF], seed=0)
            (trace,) = seen
            return report, trace

        return run

    def test_ldsf_stage_hands_on_its_final_basis(self, ldsf_stage):
        report, trace = ldsf_stage(knapsack_basis(12, bits=40, seed=0))
        assert trace.final_basis != trace.best_basis
        assert report.final_basis == trace.final_basis

    def test_ldsf_stage_lub_is_the_least_over_its_rounds(self, ldsf_stage):
        report, trace = ldsf_stage(uniform_basis(8, -99, 99, seed=1))
        longest = [r.fused_metrics.longest for r in trace.rounds]
        stage = report.stage_reports[0]
        assert min(longest) < stage.after.longest
        assert stage.lub == min(longest)

    def test_ldsf_stage_llb_is_the_least_fused_shortest(self, ldsf_stage):
        report, trace = ldsf_stage(knapsack_basis(12, bits=40, seed=0))
        shortest = [r.fused_metrics.shortest for r in trace.rounds]
        assert min(shortest) < max(shortest)
        assert report.stage_reports[0].llb == min(shortest)

    def test_lll_stage_reduces_at_its_own_alpha(self):
        b = uniform_basis(10, seed=0)
        a99 = LllParams("99/100")
        assert lll_reduce(b, A34) != lll_reduce(b, a99)
        report = run_pipeline(b, [StageSpec(kind=KIND_LLL, alpha=a99)], seed=0)
        assert report.final_basis == lll_reduce(b, a99)

    def test_lll_stage_reports_its_output(self):
        b = uniform_basis(10, seed=0)
        given, out = reference_metrics(b), reference_metrics(lll_reduce(b, A34))
        assert given.shortest != out.shortest and given.longest != out.longest
        stage = run_pipeline(b, [StageSpec(kind=KIND_LLL, alpha=A34)], seed=0).stage_reports[0]
        assert (stage.llb, stage.lub) == (out.shortest, out.longest)


ALPHAS = st.sampled_from([A34, LllParams("51/100"), LllParams("99/100")])


def _stages(m: int):
    """Feasible stage lists for rank m: up to three stages of any kind."""
    loops = {"inner_iters": st.integers(1, 2), "outer_iters": st.integers(1, 2)}
    searched = {"alpha": ALPHAS, "blocks": st.integers(1, m // 2), **loops}
    stage = st.one_of(
        st.builds(StageSpec, kind=st.just(KIND_LLL), alpha=ALPHAS),
        st.builds(StageSpec, kind=st.just(KIND_LDSF), target_bound=st.none() | st.integers(1, 60),
                  **searched),
        st.builds(StageSpec, kind=st.just(KIND_SIGMA), sample_n=st.integers(1, 3), **searched),
    )
    return st.lists(stage, min_size=1, max_size=3)


class TestAgainstTheReference:
    """``run_pipeline`` against ``run_pipeline_reference``: every stage
    report but its clock, and the final basis."""

    @staticmethod
    def check(b, stages, seed):
        report = run_pipeline(b, stages, seed=seed)
        want, final = run_pipeline_reference(b, stages, seed)
        assert [s.replace(seconds=0.0) for s in report.stage_reports] == [
            StageReport(*row, seconds=0.0) for row in want
        ]
        assert report.final_basis == final

    def test_same_bytes_row(self):
        # The stage file, input and seed of the hybrid same-bytes row.
        stages = [stage_from_dict(entry, A34) for entry in STAGES]
        self.check(knapsack_basis(12, 40, seed=3), stages, seed=2)

    @given(b=SMALL_BASES, data=st.data())
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    def test_small_pipelines(self, b, data):
        self.check(b, data.draw(_stages(b.m)), data.draw(st.integers(0, 10)))


class TestSerialization:
    def test_alpha_default_applies(self):
        spec = stage_from_dict({"kind": "lll"}, A34)
        assert spec.alpha == A34

    def test_bad_kind(self):
        with pytest.raises(BadStageParamsError):
            stage_from_dict({"kind": 3}, A34)
