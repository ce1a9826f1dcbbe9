from fractions import Fraction

import pytest

from latforge import (
    perm,
    Basis,
    DependentRowsError,
    LllParams,
    is_lll_reduced,
    knapsack_basis,
    lll_reduce,
    same_lattice,
    svp_oracle,
    uniform_basis,
)
from latforge.parallel import derive_rng

from helpers import (
    _is_lll_reduced_fraction,
    gso,
    lll_reduce_reference,
    same_lattice_oracle,
)

ALPHAS = [LllParams(Fraction(3, 4)), LllParams("9/10"), LllParams("9999/10000")]


class TestParams:
    def test_accepts_exact_forms(self):
        assert LllParams("0.9999").alpha == Fraction(9999, 10000)
        assert LllParams(Fraction(3, 4)).alpha == Fraction(3, 4)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            LllParams(0.75)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LllParams(Fraction(1, 4))
        with pytest.raises(ValueError):
            LllParams(1)

    @pytest.mark.parametrize("text", ["0.25", "25e-2", "1.0", "1e1", "-0.5", "1e-1000000"])
    def test_decimal_text_range_is_exact(self, text):
        with pytest.raises(ValueError, match=r"alpha must lie in \(1/4, 1\), got '"):
            LllParams(text)

    @pytest.mark.parametrize("text", ["2.5", "1e999999999"])
    def test_out_of_range_decimal_text_builds_no_fraction(self, text, monkeypatch):
        # The Fraction of "1e999999999" has a billion-digit numerator, so the
        # range check on the decimal text must come before any Fraction.
        built = []

        def no_fraction(*args):
            built.append(args)
            raise AssertionError(f"Fraction{args!r} built")

        monkeypatch.setattr("latforge.lll.Fraction", no_fraction)
        with pytest.raises(ValueError, match=r"alpha must lie in \(1/4, 1\), got '"):
            LllParams(text)
        assert built == []

    def test_decimal_text_inside_range(self):
        just_above = LllParams("0.2500000000000000000001")
        assert just_above.alpha == Fraction(1, 4) + Fraction(1, 10**22)
        assert LllParams("9999e-4").alpha == Fraction(9999, 10000)

    @pytest.mark.parametrize(
        "value, shown",
        [(10**5000, "1000"), (-(10**5000), "-1000"), (Fraction(1, 10**5000), "1/1000")],
        ids=["int", "negative", "fraction"],
    )
    def test_number_past_4300_digits_gets_range_message(self, value, shown):
        # str() of an int of more than 4,300 digits raises ValueError.
        with pytest.raises(ValueError) as err:
            LllParams(value)
        message = str(err.value)
        assert message.startswith(f"alpha must lie in (1/4, 1), got {shown}")
        assert message.endswith("...") and len(message) < 80

    @pytest.mark.parametrize(
        "text",
        ["0." + "9" * 5000, "3" + "0" * 4400 + "/4" + "0" * 4400, "1/" + "7" * 5000],
        ids=["decimal", "ratio-in-range", "ratio"],
    )
    def test_text_past_4300_digits_is_too_long(self, text):
        with pytest.raises(ValueError) as err:
            LllParams(text)
        message = str(err.value)
        assert message.startswith(f"alpha text is too long (over 4300 digits): '{text[:4]}")
        assert message.endswith("...") and len(message) < 90

    def test_error_quotes_truncated_text(self):
        with pytest.raises(ValueError) as err:
            LllParams("1/" + "7" * 100)
        assert str(err.value) == f"alpha must lie in (1/4, 1), got '1/{'7' * 34}..."


class TestReduce:
    def test_identity_unchanged(self):
        b = Basis.identity(4)
        assert lll_reduce(b, LllParams("99/100")) == b

    def test_first_row_achieves_lambda1(self):
        b = Basis(((1, 1, 1), (-1, 0, 2), (3, 5, 6)))
        red = lll_reduce(b, LllParams(Fraction(3, 4)))
        oracle = svp_oracle(b, 8)
        assert red.row_normsq(0) == sum(x * x for x in oracle.vector)

    def test_idempotent(self):
        for seed in range(6):
            b = uniform_basis(8, -999, 999, seed=seed)
            once = lll_reduce(b)
            assert lll_reduce(once) == once

    def test_lattice_preserved(self):
        for seed in range(6):
            b = uniform_basis(6, -999, 999, seed=seed)
            red = lll_reduce(b)
            assert same_lattice(b, red)
        # second route on one case
        b = uniform_basis(5, -99, 99, seed=0)
        assert same_lattice_oracle(b, lll_reduce(b))

    def test_postconditions_all_alphas(self):
        for seed in range(4):
            b = uniform_basis(7, -999, 999, seed=seed)
            for params in ALPHAS:
                assert is_lll_reduced(lll_reduce(b, params), params)

    def test_deterministic(self):
        b = uniform_basis(8, -999, 999, seed=9)
        assert lll_reduce(b) == lll_reduce(b)

    def test_quality_bound_vs_oracle(self):
        # ||b1|| <= 2^((m-1)/2) * lambda1 for alpha = 3/4, exactly on squares
        for seed in range(5):
            for m in (4, 5):
                b = uniform_basis(m, -50, 50, seed=seed)
                red = lll_reduce(b, LllParams(Fraction(3, 4)))
                lam_sq = sum(x * x for x in svp_oracle(b, 8).vector)
                assert red.row_normsq(0) <= 2 ** (m - 1) * lam_sq

    def test_dependent_rows_propagate(self):
        with pytest.raises(DependentRowsError):
            lll_reduce(Basis(((1, 2), (2, 4))))

    def test_rectangular_input(self):
        b = Basis(((1, 0, 5), (0, 1, 12)))
        red = lll_reduce(b)
        assert is_lll_reduced(red)
        assert same_lattice(b, red)


class TestIsReduced:
    def test_identity(self):
        assert is_lll_reduced(Basis.identity(3))

    def test_size_reduction_violated(self):
        assert not is_lll_reduced(Basis(((1, 0), (100, 1))))

    def test_lovasz_violated(self):
        # swapped rows of a reduced pair: mu = 0, so only Lovasz can fail
        assert not is_lll_reduced(Basis(((0, 3), (1, 0))), LllParams("9/10"))

    def test_exact_boundary_mu_half(self):
        # mu21 = 1/2 is allowed by size reduction
        b = Basis(((2, 0), (1, 2)))
        assert gso(b).mu[1][0] == Fraction(1, 2)
        assert is_lll_reduced(b, LllParams(Fraction(3, 4)))

    def test_lovasz_equality_is_reduced(self):
        # ||b2*||^2 == (alpha - mu^2) * ||b1*||^2 exactly: 26/3 on both sides
        b = Basis(((2, 2, 2), (2, 1, -2)))
        g = gso(b)
        assert g.normsq[1] == (Fraction(3, 4) - g.mu[1][0] ** 2) * g.normsq[0]
        assert is_lll_reduced(b, LllParams(Fraction(3, 4)))
        assert not is_lll_reduced(b, LllParams("76/100"))


class TestIsReducedAgreesWithReference:
    """The integral-kernel check against the rational-GSO reference."""

    BOUNDARY = [
        ((2, 0), (1, 2)),  # mu = 1/2
        ((2, 0), (-1, 2)),  # mu = -1/2
        ((2, 0), (3, 2)),  # mu = 3/2
        ((2, 0, 0), (0, 2, 0), (1, 0, 2)),  # mu_31 = 1/2, not adjacent
        ((2, 0, 0), (0, 2, 0), (-3, 0, 2)),  # mu_31 = -3/2
        ((2, 2, 2), (2, 1, -2)),  # Lovasz equality at 3/4
        ((2, 0), (1, 1)),  # mu = 1/2 and Lovasz equality at 1/2
        ((0, 3), (1, 0)),  # Lovasz fails
    ]

    def test_seeded_reduced_and_unreduced(self):
        outcomes = set()
        for seed in range(5):
            for b in (uniform_basis(6, -99, 99, seed=seed), knapsack_basis(6, 20, seed=seed)):
                for candidate in (b, lll_reduce(b, ALPHAS[0]), lll_reduce(b, ALPHAS[2])):
                    for params in ALPHAS:
                        got = is_lll_reduced(candidate, params)
                        assert got == _is_lll_reduced_fraction(candidate, params)
                        outcomes.add(got)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("rows", BOUNDARY)
    @pytest.mark.parametrize("alpha", ["1/2", "3/4", "76/100", "9999/10000"])
    def test_boundary_cases(self, rows, alpha):
        b, params = Basis(rows), LllParams(alpha)
        assert is_lll_reduced(b, params) == _is_lll_reduced_fraction(b, params)

    def test_dependent_rows_raise_in_both(self):
        b = Basis(((1, 2, 3), (0, 1, 1), (2, 5, 7)))
        for check in (is_lll_reduced, _is_lll_reduced_fraction):
            with pytest.raises(DependentRowsError):
                check(b)


KERNEL_ALPHAS = [LllParams("3/4"), LllParams("51/100"), LllParams("99/100")]

# Each has a row that depends on the rows above it.
DEPENDENT_ROWS = [
    ((1, 2, 3), (2, 4, 6)),
    ((1, 0, 0), (0, 1, 0), (3, -2, 0)),
    ((5, 1, 0, 0), (1, 7, 1, 0), (6, 8, 1, 0), (0, 0, 0, 1)),
    ((40, 1, 0, 0, 0), (3, 1, 0, 0, 0), (0, 2, 9, 0, 0), (1, 0, 3, 0, 0)),
]


# Exact ties, where only the strict comparisons of the kernel decide:
# mu_21 = 1/2; the Lovasz condition met with equality at alpha 3/4; and a
# rank-4 basis that meets 2|lam| = d in the inner size-reduction loop too.
TIE_ROWS = [
    ((2, 0), (1, 1)),
    ((2, 0, 0, 0), (0, 1, 1, 1)),
    ((0, 3, 3, 3), (2, 1, 3, -2), (1, 3, 1, -2), (0, -3, 0, 3)),
]


def _kernel_corpus() -> list[Basis]:
    """Small uniform bases, knapsack bases up to 1000-bit weights, and the
    hill-climb shape: radius-35 permutations of lll(knapsack(40, 60-bit)),
    reduced by the reference so the corpus does not rest on the kernel.
    knapsack(12, 1000) has the 2,000-bit d of lll-knapsack1000 and swaps
    with up to 10 rows below k (8,848 to 22,089 row updates per alpha)."""
    corpus = [uniform_basis(m, seed=seed) for m in range(2, 13) for seed in range(5)]
    corpus += [knapsack_basis(8, 30), knapsack_basis(12, 200), knapsack_basis(10, 1000)]
    corpus += [knapsack_basis(12, 1000)]
    start = lll_reduce_reference(knapsack_basis(40, 60))
    corpus += [
        perm.apply(start, perm.sample_at_radius(40, 35, derive_rng("kernel", j)))
        for j in range(16)
    ]
    return corpus


class TestKernelMatchesReference:
    @pytest.mark.parametrize("params", KERNEL_ALPHAS, ids=["3/4", "51/100", "99/100"])
    def test_equal_rows_and_errors(self, params):
        """``lll_reduce`` against the loop-form kernel of ``helpers``: the
        same rounding, swaps and order give equal rows, not just reduced
        ones.  Dependent rows come last: a kernel with a wrong swap can loop
        on them, and the corpus stops it first."""
        for b in _kernel_corpus():
            assert lll_reduce(b, params).rows == lll_reduce_reference(b, params).rows
        for rows in DEPENDENT_ROWS:
            with pytest.raises(DependentRowsError) as expected:
                lll_reduce_reference(Basis(rows), params)
            with pytest.raises(DependentRowsError, match=f"^{expected.value}$"):
                lll_reduce(Basis(rows), params)

    @pytest.mark.parametrize("rows", TIE_ROWS, ids=["size", "lovasz", "inner-size"])
    def test_ties_are_decided_as_the_reference_decides(self, rows):
        b, params = Basis(rows), LllParams("3/4")
        assert lll_reduce(b, params).rows == lll_reduce_reference(b, params).rows
