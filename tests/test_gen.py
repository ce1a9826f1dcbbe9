import pytest

from latforge import knapsack_basis, uniform_basis

from helpers import _gram_det_bareiss


class TestUniform:
    def test_dependent_draws_are_resampled(self):
        # A 3 x 3 draw from {0, 1} is singular more often than not: at 7 of
        # these 10 seeds the first draw has dependent rows.
        for seed in range(10):
            b = uniform_basis(3, 0, 1, seed=seed)
            assert b.m == b.n == 3
            assert all(0 <= x <= 1 for row in b.rows for x in row)
            assert _gram_det_bareiss(b) != 0


class TestKnapsack:
    @pytest.mark.parametrize("m,bits", [(4, 2), (6, 60), (3, 1000)])
    def test_identity_block_and_weights_of_exact_bit_length(self, m, bits):
        b = knapsack_basis(m, bits=bits, seed=2)
        assert (b.m, b.n) == (m, m + 1)
        for i, row in enumerate(b.rows):
            assert row[:m] == tuple(int(i == j) for j in range(m))
            assert row[m].bit_length() == bits
