from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latforge import (
    Basis,
    DegreeMismatchError,
    DegreeTooSmallError,
    InfeasibleRadiusError,
    NotPrimeError,
    Permutation,
    apply,
    hnf,
    psl2_permutations,
    sample_at_radius,
    sample_right,
    uniform_basis,
)
from latforge.parallel import derive_rng
from latforge.perm import check_radius

from helpers import (
    brute_force_count,
    compose,
    count_at_radius,
    hamming,
    inverse,
    moved_points,
    side,
)

perms8 = st.permutations(list(range(1, 9))).map(lambda xs: Permutation(tuple(xs)))


class TestPermutation:
    def test_bijection_required(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_inverse_and_compose(self):
        p = Permutation((3, 1, 2)).images
        assert compose(p, inverse(p)) == Permutation.identity(3).images
        assert compose(inverse(p), p) == Permutation.identity(3).images

    def test_compose_of_unequal_degrees(self):
        with pytest.raises(DegreeMismatchError):
            compose(Permutation.identity(3).images, Permutation.identity(4).images)

    def test_lossy_image_is_rejected(self):
        with pytest.raises(ValueError) as info:
            Permutation((1.9, 2.2))
        assert str(info.value) == "permutation image is not an integer: 1.9"

    def test_images_whose_value_int_keeps_are_taken(self):
        p = Permutation((Fraction(2), True, Decimal("3.0")))
        assert p.images == (2, 1, 3)
        assert all(type(x) is int for x in p.images)


# Python's str() of an int fails past 4,300 digits; a message quotes the
# leading digits of such a value, cut to 40 characters.
HUGE = 10**5000
HUGE_CUT = "1" + "0" * 36 + "..."


class TestQuotedValues:
    def test_radius_past_4300_digits(self):
        with pytest.raises(InfeasibleRadiusError) as info:
            check_radius(5, HUGE)
        assert str(info.value) == f"no permutation of degree 5 moves exactly {HUGE_CUT} points"

    def test_image_past_4300_digits(self):
        with pytest.raises(ValueError) as info:
            Permutation((HUGE, 1))
        assert str(info.value) == f"not a bijection on 1..2: ({HUGE_CUT[:36]}..."

    def test_many_images_are_cut(self):
        images = tuple(range(2, 3000))
        with pytest.raises(ValueError) as info:
            Permutation(images)
        assert str(info.value) == f"not a bijection on 1..2998: {str(images)[:37]}..."

    @pytest.mark.parametrize("images", [(2,), (1, 1, 3), (0, 1), tuple(range(2, 14))])
    def test_short_images_read_as_the_tuple(self, images):
        with pytest.raises(ValueError) as info:
            Permutation(images)
        assert str(info.value) == f"not a bijection on 1..{len(images)}: {images}"

    def test_prime_past_4300_digits(self):
        with pytest.raises(NotPrimeError) as info:
            psl2_permutations(HUGE, 1, derive_rng(0))
        assert str(info.value) == f"{HUGE_CUT} is not prime"

    def test_right_degree_past_4300_digits(self):
        with pytest.raises(DegreeTooSmallError) as info:
            sample_right(-HUGE, derive_rng(0))
        assert str(info.value) == f"right sampling needs degree >= 3, got -{HUGE_CUT[:36]}..."


class TestHamming:
    def test_identity_distance_zero(self):
        p = Permutation.identity(5)
        assert hamming(p, p) == 0

    def test_transposition(self):
        assert hamming(Permutation((2, 1, 3, 4)), Permutation.identity(4)) == 2

    def test_three_cycles(self):
        assert hamming(Permutation((2, 3, 1)), Permutation((3, 1, 2))) == 3

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            hamming(Permutation.identity(3), Permutation.identity(4))

    @given(perms8, perms8)
    def test_symmetry(self, x, y):
        assert hamming(x, y) == hamming(y, x)

    @given(perms8, perms8)
    def test_identity_of_indiscernibles(self, x, y):
        assert (hamming(x, y) == 0) == (x == y)

    @settings(max_examples=200)
    @given(perms8, perms8, perms8)
    def test_triangle_inequality(self, x, y, z):
        assert hamming(x, z) <= hamming(x, y) + hamming(y, z)


class TestRadius:
    def test_identity_left(self):
        p = Permutation.identity(10)
        assert moved_points(p) == 0 and side(p) == "left"

    def test_boundary_inclusive_left(self):
        # r = 5 on m = 10 sits exactly on m/2 and is classified left
        p = sample_at_radius(10, 5, derive_rng("radius-5"))
        assert moved_points(p) == 5 and side(p) == "left"

    def test_right_above_half(self):
        p = sample_at_radius(10, 6, derive_rng("radius-6"))
        assert moved_points(p) == 6 and side(p) == "right"


class TestCountAtRadius:
    def test_radius_zero(self):
        assert count_at_radius(10, 0) == 1

    def test_radius_one_empty(self):
        assert count_at_radius(10, 1) == 0

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_matches_brute_force(self, m):
        for r in range(m + 1):
            assert count_at_radius(m, r) == brute_force_count(m, r)


class TestSampleAtRadius:
    def test_radius_zero_identity(self):
        assert sample_at_radius(4, 0, derive_rng(0)) == Permutation.identity(4)

    def test_radius_one_infeasible(self):
        with pytest.raises(InfeasibleRadiusError):
            sample_at_radius(4, 1, derive_rng(0))

    def test_feasible_radii_are_the_nonempty_spheres(self):
        for m in range(1, 7):
            for r in range(-2, m + 3):
                if count_at_radius(m, r):
                    check_radius(m, r)
                else:
                    with pytest.raises(InfeasibleRadiusError, match=f"exactly {r} points"):
                        check_radius(m, r)

    def test_exact_radius(self):
        rng = derive_rng("exact-radius")
        for _ in range(500):
            m = rng.randint(3, 9)
            r = rng.choice([x for x in range(m + 1) if x != 1])
            assert moved_points(sample_at_radius(m, r, rng)) == r

    def test_transpositions_uniform(self):
        # the 15 permutations of S6 at distance 2 are the transpositions
        from scipy.stats import chisquare

        rng = derive_rng("uniform-check")
        counts = Counter(sample_at_radius(6, 2, rng).images for _ in range(15000))
        assert len(counts) == 15 == count_at_radius(6, 2)
        assert chisquare(list(counts.values())).pvalue > 0.001

    def test_deterministic(self):
        a = sample_at_radius(8, 5, derive_rng(123))
        b = sample_at_radius(8, 5, derive_rng(123))
        assert a == b


class TestSampleRight:
    def test_small_degree_rejected(self):
        with pytest.raises(DegreeTooSmallError):
            sample_right(2, derive_rng(0))

    def test_degree_three(self):
        radii = {moved_points(sample_right(3, derive_rng(i))) for i in range(50)}
        assert radii <= {2, 3}

    def test_always_right(self):
        for i in range(300):
            assert moved_points(sample_right(10, derive_rng("right", i))) > 5

    def test_reproducible(self):
        assert sample_right(9, derive_rng(7)) == sample_right(9, derive_rng(7))


def closure_size(perms):
    seen = {Permutation.identity(perms[0].degree).images}
    frontier = list(seen)
    gens = {q.images for q in perms}
    seen |= gens
    frontier = list(gens)
    while frontier:
        nxt = []
        for g in gens:
            for h in frontier:
                f = compose(g, h)
                if f not in seen:
                    seen.add(f)
                    nxt.append(f)
        frontier = nxt
    return len(seen)


class TestPsl2:
    def test_not_prime(self):
        with pytest.raises(NotPrimeError):
            psl2_permutations(4, 1, derive_rng(0))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_group_order_by_closure(self, p):
        perms = psl2_permutations(p, 30, derive_rng(("psl2", p)))
        assert all(q.degree == p + 1 for q in perms)
        assert closure_size(perms) == p * (p * p - 1) // 2

    def test_elements_are_permutations_of_projective_line(self):
        for q in psl2_permutations(11, 20, derive_rng(1)):
            assert q.degree == 12


class TestApply:
    def test_identity(self):
        b = uniform_basis(5, -9, 9, seed=1)
        assert apply(b, Permutation.identity(5)) == b

    def test_group_action_roundtrip(self):
        b = uniform_basis(5, -9, 9, seed=2)
        p = Permutation((3, 5, 1, 2, 4))
        assert apply(apply(b, p), Permutation(inverse(p.images))) == b

    def test_lattice_invariant(self):
        b = uniform_basis(5, -9, 9, seed=3)
        p = Permutation((2, 1, 5, 3, 4))
        assert hnf(apply(b, p)) == hnf(b)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            apply(Basis.identity(3), Permutation.identity(4))

    def test_row_reorder_semantics(self):
        b = Basis(((1, 0), (0, 2)))
        assert apply(b, Permutation((2, 1))).rows == ((0, 2), (1, 0))
