import itertools

import pytest

from latforge import gen, gram_det, knapsack_basis, uniform_basis

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

    @pytest.mark.parametrize(
        "m,lo,hi",
        [(2, 3, 3), (1, 0, 0), (3, -1, -1), (2, 10**5000, 10**5000)],
        ids=["2x2-of-3", "1x1-of-0", "3x3-of--1", "2x2-past-4300-digits"],
    )
    def test_a_range_with_no_independent_draw_is_rejected(self, m, lo, hi, monkeypatch):
        # Without the check these draw forever; the 1,001st draw ends the test.
        draws = itertools.count(1)

        def bounded(b):
            if next(draws) > 1000:
                pytest.fail("uniform_basis drew 1,000 dependent bases")
            return gram_det(b)

        monkeypatch.setattr(gen, "gram_det", bounded)
        with pytest.raises(ValueError, match="row draw is independent"):
            uniform_basis(m, lo, hi)

    @pytest.mark.parametrize("m,lo,hi", [(1, 7, 7), (1, -1, 0), (2, 0, 1), (4, -1, 0)])
    def test_every_other_range_gives_a_basis(self, m, lo, hi):
        b = uniform_basis(m, lo, hi, seed=1)
        assert b.m == m and _gram_det_bareiss(b) != 0


class TestKnapsack:
    @pytest.mark.parametrize("m,bits", [(5, 1), (4, 2), (6, 60), (3, 1000)])
    def test_identity_block_and_weights_of_exact_bit_length(self, m, bits):
        b = knapsack_basis(m, bits=bits, seed=2)
        assert (b.m, b.n) == (m, m + 1)
        for i, row in enumerate(b.rows):
            assert row[:m] == tuple(int(i == j) for j in range(m))
            assert row[m].bit_length() == bits

    @pytest.mark.parametrize(
        "bits, shown",
        [(0, "0"), (-3, "-3"), (-(10**4400), "-1" + "0" * 35 + "...")],
        ids=["0", "-3", "4401-digits"],
    )
    def test_bits_below_one_are_rejected_before_any_draw(self, monkeypatch, bits, shown):
        # 1 << (bits - 1) has no value for bits < 1.
        monkeypatch.setattr(gen, "derive_rng", lambda *parts: pytest.fail("rng built"))
        with pytest.raises(ValueError) as exc:
            knapsack_basis(5, bits)
        assert str(exc.value) == f"bits must be >= 1, got {shown}"
