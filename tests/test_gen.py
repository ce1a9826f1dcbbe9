import signal

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

    @pytest.mark.parametrize(
        "m,lo,hi",
        [(2, 3, 3), (1, 0, 0), (3, -1, -1), (2, 10**5000, 10**5000)],
        ids=["2x2-of-3", "1x1-of-0", "3x3-of--1", "2x2-past-4300-digits"],
    )
    def test_a_range_with_no_independent_draw_is_rejected(self, m, lo, hi):
        # Without the check these draw forever; the alarm ends the test.
        previous = signal.signal(signal.SIGALRM, self.timed_out)
        signal.alarm(5)
        try:
            with pytest.raises(ValueError, match="row draw is independent"):
                uniform_basis(m, lo, hi)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def timed_out(signum, frame):
        raise TimeoutError("uniform_basis drew for 5 s")

    @pytest.mark.parametrize("m,lo,hi", [(1, 7, 7), (1, -1, 0), (2, 0, 1), (4, -1, 0)])
    def test_every_other_range_gives_a_basis(self, m, lo, hi):
        b = uniform_basis(m, lo, hi, seed=1)
        assert b.m == m and _gram_det_bareiss(b) != 0


class TestKnapsack:
    @pytest.mark.parametrize("m,bits", [(4, 2), (6, 60), (3, 1000)])
    def test_identity_block_and_weights_of_exact_bit_length(self, m, bits):
        b = knapsack_basis(m, bits=bits, seed=2)
        assert (b.m, b.n) == (m, m + 1)
        for i, row in enumerate(b.rows):
            assert row[:m] == tuple(int(i == j) for j in range(m))
            assert row[m].bit_length() == bits
