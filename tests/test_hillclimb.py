import statistics
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latforge import (
    Basis,
    DegreeMismatchError,
    FixedRadius,
    HcConfig,
    InfeasibleRadiusError,
    LllParams,
    Psl2,
    VariableRadius,
    det_bound,
    gram_det,
    hill_climb,
    hnf,
    knapsack_basis,
    lll_reduce,
    metrics,
    reduction_key,
    uniform_basis,
)
from latforge import hillclimb
from latforge.serialize import hc_trace_dict

from helpers import _gram_det_bareiss, hill_climb_reference, moved_points, reference_metrics
from test_core import SMALL_BASES

A34 = LllParams(Fraction(3, 4))


def cfg_fixed(r, k=10, p=5, seed=0, target=0):
    return HcConfig(
        kind=FixedRadius(r),
        sample_size=k,
        max_steps=p,
        alpha=A34,
        target_bound=target,
        seed=seed,
    )


class TestFixed:
    def test_identity_already_optimal(self):
        b = Basis.identity(6)
        trace = hill_climb(b, cfg_fixed(4, k=3, p=2))
        assert trace.best_metrics.shortest == 1
        assert trace.best_basis == b

    def test_never_worse_than_plain_reduction(self):
        b = uniform_basis(10, -99, 99, seed=1)
        trace = hill_climb(b, cfg_fixed(8))
        assert trace.best_metrics.shortest <= metrics(lll_reduce(b, A34)).shortest

    def test_global_best_non_increasing(self):
        b = uniform_basis(10, -99, 99, seed=2)
        trace = hill_climb(b, cfg_fixed(8))
        best = trace.initial_metrics.shortest
        for step in trace.steps:
            best = min(best, step.after.shortest)
        assert best == trace.best_metrics.shortest

    def test_lattice_preserved_at_every_step(self):
        b = uniform_basis(8, -99, 99, seed=3)
        trace = hill_climb(b, cfg_fixed(6, k=5, p=3))
        h = hnf(b)
        assert hnf(trace.best_basis) == h
        assert all(hnf(step.basis) == h for step in trace.steps)

    def test_deterministic(self):
        b = uniform_basis(8, -99, 99, seed=4)
        t1 = hill_climb(b, cfg_fixed(6, k=5, p=3, seed=11))
        t2 = hill_climb(b, cfg_fixed(6, k=5, p=3, seed=11))
        assert hc_trace_dict(t1) == hc_trace_dict(t2)

    def test_equal_seeds_give_equal_records(self):
        # A trace holds results only, so no clock tells two equal runs apart.
        b = uniform_basis(8, -99, 99, seed=4)
        runs = [hill_climb(b, cfg_fixed(6, k=5, p=3, seed=11)) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_target_past_4300_digits(self):
        trace = hill_climb(uniform_basis(6, -99, 99, seed=6), cfg_fixed(4, target=10**5000))
        assert trace.target_bound == 10**5000
        assert (trace.reached_target, trace.steps) == (True, ())

    def test_each_step_moves_to_the_least_key(self, monkeypatch):
        reduced = []

        def recording(*args):
            reduced.append(lll_reduce(*args))
            return reduced[-1]

        monkeypatch.setattr(hillclimb, "lll_reduce", recording)
        trace = hill_climb(uniform_basis(8, -99, 99, seed=3), cfg_fixed(5, k=4, p=3))
        # The first reduction is of the input; each step then reduces k candidates.
        steps = [reduced[1 + 4 * i : 5 + 4 * i] for i in range(3)]
        keys = [[reduction_key(c) for c in step] for step in steps]
        assert any(min(k) < k[0] for k in keys)  # so taking the first would differ
        assert [s.basis for s in trace.steps] == [
            step[k.index(min(k))] for step, k in zip(steps, keys)
        ]

    def test_seed_past_4300_digits(self):
        b = uniform_basis(6, -99, 99, seed=6)
        trace = hill_climb(b, cfg_fixed(3, k=2, p=2, seed=10**5000))
        assert len(trace.steps) == 2
        assert hnf(trace.best_basis) == hnf(b)

    def test_infeasible_radius(self):
        b = uniform_basis(6, -9, 9, seed=5)
        with pytest.raises(InfeasibleRadiusError):
            hill_climb(b, cfg_fixed(1))

    def test_radius_past_4300_digits(self):
        with pytest.raises(InfeasibleRadiusError) as info:
            hill_climb(uniform_basis(4, seed=1), cfg_fixed(10**5000))
        cut = "1" + "0" * 36 + "..."
        assert str(info.value) == f"no permutation of degree 4 moves exactly {cut} points"

    def test_default_target_is_det_bound(self):
        b = uniform_basis(6, -99, 99, seed=6)
        cfg = HcConfig(kind=FixedRadius(4), sample_size=3, max_steps=2, alpha=A34)
        trace = hill_climb(b, cfg)
        assert trace.target_bound == det_bound(b)
        assert trace.det_bound == det_bound(b)
        assert trace.det_bound_met == (trace.best_metrics.shortest <= trace.det_bound)

    def test_carried_determinant_matches_reference(self):
        b = knapsack_basis(10, bits=40, seed=12)
        trace = hill_climb(b, cfg_fixed(6, k=4, p=4, seed=2))
        assert len(trace.steps) == 4
        assert trace.initial_metrics == reference_metrics(lll_reduce(b, A34))
        for step in trace.steps:
            assert step.after == reference_metrics(step.basis)
        assert trace.best_metrics == reference_metrics(trace.best_basis)
        assert trace.det_bound == det_bound(Basis(b.rows))
        assert gram_det(b) == _gram_det_bareiss(b)

    def test_target_stops_early(self):
        b = uniform_basis(8, -99, 99, seed=7)
        baseline = metrics(lll_reduce(b, A34)).shortest
        cfg = cfg_fixed(6, k=3, p=5, target=float(baseline) * 2)
        trace = hill_climb(b, cfg)
        assert trace.reached_target
        assert len(trace.steps) == 0  # the initial reduction already meets it


class TestVariable:
    def test_radius_schedule_with_clamp(self):
        b = uniform_basis(10, -99, 99, seed=8)
        cfg = HcConfig(
            kind=VariableRadius(6, 2),
            sample_size=10,
            max_steps=4,
            alpha=A34,
            target_bound=0,
            seed=0,
        )
        trace = hill_climb(b, cfg)
        assert [moved_points(s.permutation) for s in trace.steps] == [6, 8, 10, 10]

    def test_start_at_full_radius_stays_clamped(self):
        b = uniform_basis(6, -99, 99, seed=9)
        cfg = HcConfig(
            kind=VariableRadius(6, 1),
            sample_size=4,
            max_steps=3,
            alpha=A34,
            target_bound=0,
            seed=0,
        )
        trace = hill_climb(b, cfg)
        assert [moved_points(s.permutation) for s in trace.steps] == [6, 6, 6]

    def test_soft_runtime_claim_on_pinned_seeds(self):
        # Soft median-of-seeds check; steps-to-best is the deterministic
        # stand-in for wall clock (equal per-step budgets).
        def best_step(trace):
            return max((s.index for s in trace.steps if s.improved), default=0)

        fixed_steps, var_steps = [], []
        for seed in range(10):
            b = uniform_basis(10, -99, 99, seed=200 + seed)
            fcfg = cfg_fixed(8, k=10, p=5, seed=seed)
            vcfg = HcConfig(
                kind=VariableRadius(6, 2),
                sample_size=10,
                max_steps=5,
                alpha=A34,
                target_bound=0,
                seed=seed,
            )
            fixed_steps.append(best_step(hill_climb(b, fcfg)))
            var_steps.append(best_step(hill_climb(b, vcfg)))
        assert statistics.median(var_steps) <= statistics.median(fixed_steps)

    def test_rstep_past_4300_digits(self):
        cfg = HcConfig(
            kind=VariableRadius(0, 10**5000), sample_size=2, max_steps=2, alpha=A34
        )
        with pytest.raises(InfeasibleRadiusError) as info:
            hill_climb(Basis.identity(1), cfg)
        assert str(info.value) == (
            f"step 2 of the walk from r0 = 0 by rstep {'1' + '0' * 36}... has radius 1: "
            "no permutation of degree 1 moves exactly 1 point"
        )

    def test_rstep_validation(self):
        with pytest.raises(ValueError):
            HcConfig(
                kind=VariableRadius(4, 0),
                sample_size=2,
                max_steps=2,
                alpha=A34,
            )


class TestAgainstTheReference:
    """The fixed-radius (rstep 0) and variable-radius walks against
    ``hill_climb_reference``: every step and the best basis."""

    @staticmethod
    def check(b, r0, rstep, k, p, alpha, target, seed):
        kind = FixedRadius(r0) if rstep == 0 else VariableRadius(r0, rstep)
        cfg = HcConfig(
            kind=kind, sample_size=k, max_steps=p, alpha=alpha, target_bound=target, seed=seed
        )
        trace = hill_climb(b, cfg)
        steps, best = hill_climb_reference(b, r0, rstep, k, p, alpha, Decimal(target), seed)
        assert [(s.permutation.images, s.basis, s.improved) for s in trace.steps] == steps
        assert trace.best_basis == best
        return steps

    @pytest.mark.parametrize(
        "r0, rstep, k, p, alpha, target, seed",
        [(6, 0, 4, 3, LllParams(Fraction(51, 100)), 10, 7), (2, 2, 3, 3, A34, 0, 0)],
        ids=["hc-radius", "hc-r0"],
    )
    def test_same_bytes_rows(self, r0, rstep, k, p, alpha, target, seed):
        assert self.check(knapsack_basis(12, 40, seed=3), r0, rstep, k, p, alpha, target, seed)

    @given(b=SMALL_BASES, data=st.data())
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    def test_small_walks(self, b, data):
        r0, rstep, k, p, seed = (
            data.draw(st.integers(lo, hi)) for lo, hi in [(2, b.m), (0, 3), (1, 4), (1, 3), (0, 9)]
        )
        self.check(b, r0, rstep, k, p, A34, 0, seed)


class TestPsl2Walk:
    def test_identity_basis_unchanged(self):
        b = Basis.identity(4)
        cfg = HcConfig(
            kind=Psl2(3), sample_size=5, max_steps=2, alpha=A34, target_bound=0
        )
        trace = hill_climb(b, cfg)
        assert trace.best_metrics.shortest == 1

    def test_lattice_preserved(self):
        b = uniform_basis(6, -50, 50, seed=10)
        cfg = HcConfig(
            kind=Psl2(5), sample_size=5, max_steps=3, alpha=A34, target_bound=0
        )
        trace = hill_climb(b, cfg)
        h = hnf(b)
        assert all(hnf(step.basis) == h for step in trace.steps)

    def test_degree_mismatch(self):
        b = uniform_basis(12, -9, 9, seed=11)
        cfg = HcConfig(
            kind=Psl2(7), sample_size=2, max_steps=1, alpha=A34, target_bound=0
        )
        with pytest.raises(DegreeMismatchError):
            hill_climb(b, cfg)

    def test_prime_past_4300_digits(self):
        cfg = HcConfig(
            kind=Psl2(10**5000), sample_size=2, max_steps=1, alpha=A34, target_bound=0
        )
        with pytest.raises(DegreeMismatchError) as info:
            hill_climb(uniform_basis(4, seed=1), cfg)
        cut = "1" + "0" * 36 + "..."
        assert str(info.value) == f"PSL(2,{cut}) acts on {cut} points, basis rank is 4"
