from decimal import Decimal
from fractions import Fraction

from latforge import (
    Basis,
    LllParams,
    improvement_frequency,
    knapsack_basis,
    lll_reduce,
    metrics,
    radius_sweep,
    uniform_basis,
)
from latforge.bench import summarize

A34 = LllParams(Fraction(3, 4))


class TestSummarize:
    def test_small_sample(self):
        row = summarize(7, [Decimal(1), Decimal(2), Decimal(3)])
        assert (row.min, row.max, row.mean, row.range) == (1, 3, 2, 2)
        # population sigma of {1,2,3} is sqrt(2/3)
        assert abs(row.std * row.std - Decimal(2) / Decimal(3)) < Decimal("1e-40")

    def test_constant_sample(self):
        row = summarize(0, [Decimal("5.5")] * 4)
        assert row.std == 0 and row.range == 0
        assert row.mean == Decimal("5.5")


class TestSweep:
    def test_radius_zero_row_collapses(self):
        b = uniform_basis(6, -99, 99, seed=1)
        result = radius_sweep(b, [0], 5, A34, seed=3)
        row = result.rows[0]
        expected = metrics(lll_reduce(b, A34)).shortest
        assert row.min == row.max == row.mean == expected
        assert row.std == 0 and row.range == 0

    def test_row_invariants(self):
        b = uniform_basis(8, -999, 999, seed=2)
        result = radius_sweep(b, [3, 5, 8], 6, A34, seed=4)
        for row in result.rows:
            assert row.range == row.max - row.min
            assert row.min <= row.mean <= row.max

    def test_csv_shape(self):
        b = uniform_basis(6, -99, 99, seed=3)
        csv = radius_sweep(b, [0, 4], 3, A34, seed=5).to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "radius,min,max,mean,std,range"
        assert len(lines) == 3
        assert lines[1].startswith("0,")

    def test_deterministic(self):
        b = uniform_basis(6, -99, 99, seed=4)
        a = radius_sweep(b, [4], 4, A34, seed=6).to_csv()
        c = radius_sweep(b, [4], 4, A34, seed=6).to_csv()
        assert a == c

    def test_rank40_sensitivity_is_nondegenerate(self):
        # Qualitative sensitivity: on the standard rank-40 corpus with
        # 60-bit entries, distinct permutations give distinct outcomes at
        # every probed radius (nonzero spread, small and large radii alike).
        b = knapsack_basis(40, bits=60, seed=1)
        result = radius_sweep(b, [10, 20, 30, 39], 6, A34, seed=71)
        assert all(row.std > 0 for row in result.rows)


class TestImprovementFrequency:
    def test_identity_never_improves(self):
        b = Basis.identity(6)
        freqs = improvement_frequency(b, [0, 3, 6], 10, A34, seed=1)
        assert freqs == {0: 0.0, 3: 0.0, 6: 0.0}

    def test_radius_zero_never_improves(self):
        b = lll_reduce(uniform_basis(8, -999, 999, seed=5), A34)
        freqs = improvement_frequency(b, [0], 10, A34, seed=2)
        assert freqs[0] == 0.0

    def test_values_are_sample_fractions(self):
        b = lll_reduce(uniform_basis(8, -999, 999, seed=6), A34)
        freqs = improvement_frequency(b, [5, 8], 8, A34, seed=3)
        for value in freqs.values():
            assert 0.0 <= value <= 1.0
            assert (value * 8) == int(value * 8)
