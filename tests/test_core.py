import ast
import copy
import decimal
import enum
import itertools
import pickle
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latforge import (
    Basis,
    BoxTooLargeError,
    DependentRowsError,
    FixedRadius,
    BadStageParamsError,
    HcConfig,
    LdsfConfig,
    LllParams,
    Permutation,
    Psl2,
    StageSpec,
    VariableRadius,
    apply,
    gram_det,
    hill_climb,
    hnf,
    knapsack_basis,
    ldsf_run,
    lll_reduce,
    metrics,
    same_lattice,
    svp_oracle,
    uniform_basis,
)
from latforge import core
from latforge import ldsf as ldsf_mod
from latforge.bench import summarize
from latforge.core import int_str
from latforge.latfile import load_lattice, save_lattice
from latforge.lll import is_lll_reduced
from latforge.parallel import derive_rng

from helpers import (
    _enumerate_box_python,
    _gram_det_bareiss,
    _hnf_echelon,
    counting,
    eager_metrics,
    echelon_reference,
    gso,
    lattice_contains,
    recursion_headroom,
    same_lattice_oracle,
)


@st.composite
def _matrices(draw, wide: int):
    """m x n integer matrices, 1 <= m <= 6 and m <= n <= m + ``wide``, small
    or occasionally long entries of either sign.  m columns are drawn fresh
    and the others, in any position, are zero, a copy of an earlier column
    or the sum of two earlier ones, so pivots need not be the leading
    columns; one time in five the last row is the sum of two rows above
    it, so the rows are dependent."""
    m = draw(st.integers(1, 6))
    derived = st.sampled_from(["zero", "copy", "sum"])
    kinds = ["fresh"] * m + [draw(derived) for _ in range(draw(st.integers(0, wide)))]
    entry = st.one_of(st.integers(-9, 9), st.integers(-(10**40), 10**40))
    cols: list[list[int]] = []
    for kind in draw(st.permutations(kinds)):
        if kind == "fresh":
            cols.append([draw(entry) for _ in range(m)])
        elif kind == "zero" or not cols:
            cols.append([0] * m)
        elif kind == "copy":
            cols.append(list(draw(st.sampled_from(cols))))
        else:
            a, b = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            cols.append([x + y for x, y in zip(a, b)])
    rows = [list(row) for row in zip(*cols)]
    if m > 1 and draw(st.integers(0, 4)) == 0:
        i, j = draw(st.integers(0, m - 2)), draw(st.integers(0, m - 2))
        rows[m - 1] = [x + y for x, y in zip(rows[i], rows[j])]
    return tuple(map(tuple, rows))


class TestRecord:
    """The immutable records compare, hash, print and copy as a frozen
    dataclass does."""

    def test_equality_is_by_class_and_fields(self):
        assert FixedRadius(3) == FixedRadius(radius=3)
        assert FixedRadius(3) != FixedRadius(4)
        assert FixedRadius(3) != Psl2(3)
        assert FixedRadius(3).__eq__(Psl2(3)) is NotImplemented
        assert FixedRadius(3) != (3,)

    def test_hash_is_hash_of_field_tuple(self):
        assert hash(VariableRadius(2, 5)) == hash((2, 5))
        b = Basis(((1, 0), (0, 1)))
        assert hash(b) == hash((b.rows,))
        assert len({FixedRadius(3), FixedRadius(3), Psl2(3)}) == 2

    def test_repr(self):
        assert repr(VariableRadius(2)) == "VariableRadius(r0=2, rstep=1)"
        assert repr(LllParams("3/4")) == "LllParams(alpha=Fraction(3, 4))"
        assert repr(Basis([[1, 2]])) == "Basis(rows=((1, 2),))"

    def test_defaults(self):
        assert VariableRadius(2).rstep == 1
        assert VariableRadius(2) == VariableRadius(r0=2, rstep=1)
        cfg = HcConfig(FixedRadius(3), 4, 5, LllParams("3/4"))
        assert (cfg.target_bound, cfg.seed) == (None, 0)

    def test_assignment_and_deletion_raise(self):
        r = VariableRadius(2)
        with pytest.raises(AttributeError):
            r.rstep = 3
        with pytest.raises(AttributeError):
            del r.r0
        with pytest.raises(AttributeError):
            r.other = 1
        assert r == VariableRadius(2, 1)

    @pytest.mark.parametrize(
        "args,kwargs",
        [((), {}), ((), {"rstep": 2}), ((1, 2, 3), {}), ((1,), {"r0": 1}), ((1,), {"step": 2})],
        ids=["missing", "missing-r0", "too-many", "twice", "unknown"],
    )
    def test_missing_or_unknown_field_raises_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            VariableRadius(*args, **kwargs)

    def test_post_init_normalises_rows(self):
        b = Basis([[True, 2], [Fraction(3), Decimal(4)]])
        assert b.rows == ((1, 2), (3, 4))
        assert type(b.rows) is tuple
        assert all(type(row) is tuple for row in b.rows)
        assert all(type(x) is int for row in b.rows for x in row)

    def test_pickle_and_deepcopy_round_trip(self):
        cfg = HcConfig(VariableRadius(2, 3), 4, 5, LllParams("99/100"), Decimal("1.5"), seed=7)
        for value in (knapsack_basis(6, 40, seed=3), cfg):
            for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                assert type(twin) is type(value)
                assert twin == value
                assert hash(twin) == hash(value)
                assert repr(twin) == repr(value)
                with pytest.raises(AttributeError):
                    twin.other = 1

    def test_replace_copies_the_fields_only(self):
        # A basis keeps its echelon in __dict__ beside its one field; the
        # copy gets its own, and neither a pickle nor ``replace`` carries it.
        b = uniform_basis(4, -9, 9, seed=1)
        hnf(b)
        assert "_echelon" in vars(b)
        rows = b.rows[::-1][:3]
        c = b.replace(rows=rows)
        assert c == Basis(rows) and "_echelon" not in vars(c)
        assert gram_det(c) == _gram_det_bareiss(c)
        assert hnf(c).rows == tuple(map(tuple, _hnf_echelon([list(r) for r in rows])))
        assert "_echelon" not in vars(pickle.loads(pickle.dumps(b)))
        assert "_echelon" not in vars(copy.deepcopy(b))


# Each config that takes a stopping bound, built with ``target_bound=t``.
TARGETED = {
    "hc": lambda t: HcConfig(FixedRadius(3), 4, 5, LllParams("3/4"), target_bound=t),
    "ldsf": lambda t: LdsfConfig(2, target_bound=t),
    "stage": lambda t: StageSpec("ldsf", LllParams("3/4"), target_bound=t),
}


@pytest.mark.parametrize("make", TARGETED.values(), ids=TARGETED)
class TestTargetBound:
    """A stopping bound is kept as one exact, finite Decimal: an int whole,
    anything else through its ``str``."""

    @pytest.mark.parametrize(
        "given, kept",
        [(None, None), (0, Decimal(0)), (0.1, Decimal("0.1")), ("2.50", Decimal("2.50")),
         (10**5000, Decimal(10**5000)), (Decimal("-3e-9"), Decimal("-3e-9"))],
        ids=["none", "zero", "float", "text", "5001-digit-int", "decimal"],
    )
    def test_kept_exactly(self, make, given, kept):
        target = make(given).target_bound
        assert (type(target), target) == (type(kept), kept)

    @pytest.mark.parametrize(
        "given", [float("nan"), float("-inf"), "Infinity", Decimal("sNaN")],
        ids=["nan", "-inf", "Infinity", "sNaN"],
    )
    def test_non_finite_is_rejected(self, make, given):
        with pytest.raises((ValueError, BadStageParamsError), match="must be finite, got"):
            make(given)

    @pytest.mark.parametrize(
        "given", ["x", Fraction(1, 3), [10**5000]], ids=["text", "fraction", "list"]
    )
    def test_non_decimal_is_rejected(self, make, given):
        with pytest.raises((ValueError, BadStageParamsError), match="' is not a decimal: "):
            make(given)


class TestBasis:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Basis(((1, 2), (3,)))
        with pytest.raises(ValueError):
            Basis(())
        with pytest.raises(ValueError):
            Basis(((1,), (2,)))  # rank above dimension

    def test_identity(self):
        b = Basis.identity(3)
        assert b.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert (b.m, b.n) == (3, 3)

    @pytest.mark.parametrize(
        "rows, shown",
        [
            (((1.5, 2), (3, 4.9)), "1.5"),
            (((Decimal("2.7"), 0), ("7", 1)), "2.7"),
            (((2, 0), ("7", 1)), "'7'"),
            (((Fraction(1, 3),),), "1/3"),
            (([float("inf")],), "inf"),
            (([float("nan")],), "nan"),
        ],
        ids=["float", "decimal", "text", "fraction", "inf", "nan"],
    )
    def test_lossy_entry_is_rejected(self, rows, shown):
        with pytest.raises(ValueError) as info:
            Basis(rows)
        assert str(info.value) == f"basis entry is not an integer: {shown}"

    def test_entries_whose_value_int_keeps_are_taken(self):
        Small = enum.IntEnum("Small", "ONE TWO")
        b = Basis([[2.0, Decimal("-4.00"), 1], [Small.TWO, Fraction(6, 2), 0], [False, 10**40, 5]])
        assert b.rows == ((2, -4, 1), (2, 3, 0), (0, 10**40, 5))
        assert all(type(x) is int for row in b.rows for x in row)


class TestGso:
    def test_identity_is_orthonormal(self):
        g = gso(Basis.identity(3))
        assert g.ortho == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert all(c == 0 for row in g.mu for c in row)

    def test_projection_example(self):
        # mu21 = <(4,5),(3,0)> / 9 = 4/3 and b*2 = (4,5) - (4/3)(3,0) = (0,5)
        g = gso(Basis(((3, 0), (4, 5))))
        assert g.mu[1][0] == Fraction(4, 3)
        assert g.ortho[1] == (0, 5)
        assert g.normsq == (9, 25)

    def test_dependent_rows(self):
        with pytest.raises(DependentRowsError):
            gso(Basis(((1, 1), (2, 2))))

    def test_reconstruction_identity(self):
        for seed in range(5):
            b = uniform_basis(6, -50, 50, seed=seed)
            g = gso(b)
            for i, row in enumerate(b.rows):
                rebuilt = list(g.ortho[i])
                for j in range(i):
                    rebuilt = [
                        r + g.mu[i][j] * o for r, o in zip(rebuilt, g.ortho[j])
                    ]
                assert all(r == x for r, x in zip(rebuilt, row))

    def test_pairwise_orthogonality_exact(self):
        g = gso(uniform_basis(5, -9, 9, seed=3))
        for i in range(5):
            for j in range(i):
                assert sum(a * b for a, b in zip(g.ortho[i], g.ortho[j])) == 0


class TestMetrics:
    def test_identity(self):
        m = metrics(Basis.identity(4))
        assert (m.shortest, m.longest) == (1, 1)
        assert m.log10_weight == 0
        assert m.det_lattice == 1

    def test_diagonal(self):
        m = metrics(Basis(((2, 0), (0, 3))))
        assert (m.shortest, m.longest) == (2, 3)
        assert m.det_lattice == 6

    def test_direct_norms(self):
        m = metrics(Basis(((3, 4), (0, 1))))
        assert (m.shortest, m.longest) == (1, 5)

    def test_det_squares_to_gram_det(self):
        for seed in range(5):
            b = uniform_basis(6, -999, 999, seed=seed)
            m = metrics(b)
            rel = abs(m.det_lattice * m.det_lattice - gram_det(b)) / gram_det(b)
            assert rel < Decimal("1e-12")

    def test_huge_entries_do_not_overflow(self):
        b = Basis(((10**900, 0), (0, 10**900)))
        m = metrics(b)
        assert m.shortest == Decimal(10) ** 900
        assert abs(m.log10_weight - 1800) < Decimal("1e-30")

    def test_det_invariant_under_unimodular_transform(self):
        b = uniform_basis(5, -99, 99, seed=8)
        rows = [list(r) for r in b.rows]
        rows[2] = [x - 7 * y for x, y in zip(rows[2], rows[0])]
        rows[0], rows[4] = rows[4], rows[0]
        assert metrics(Basis(rows)).det_lattice == metrics(b).det_lattice


REPORTED = ("shortest", "longest", "log10_weight", "det_lattice")
METRIC_CORPUS = [
    *(uniform_basis(6, -999, 999, seed=s) for s in range(3)),
    *(knapsack_basis(8, bits=60, seed=s) for s in range(3)),
]


class TestLazyMetrics:
    @pytest.mark.parametrize("warm", [False, True], ids=["computed", "warm-cache"])
    def test_values_match_eager_reference(self, warm):
        # Cold: no logarithm is memoised yet.  Warm: every one is, so each
        # log10_weight below is read from the memo.
        core._log10.cache_clear()
        if warm:
            for b in METRIC_CORPUS:
                metrics(b).log10_weight
        misses = core._log10.cache_info().misses
        for b in METRIC_CORPUS:
            expected = eager_metrics(b)
            # Each value read first on a fresh object of its own, then all
            # four on one object, last first.
            assert [getattr(metrics(b), name) for name in REPORTED] == list(expected)
            m = metrics(b)
            assert tuple(getattr(m, name) for name in reversed(REPORTED)) == expected[::-1]
        assert (core._log10.cache_info().misses == misses) == warm

    def test_values_are_computed_once_on_first_read(self, monkeypatch):
        b = knapsack_basis(8, bits=60, seed=1)
        calls = Counter()
        monkeypatch.setattr(core, "_log10", counting(calls, "_log10", core._log10))
        monkeypatch.setattr(core, "gram_det", counting(calls, "gram_det", core.gram_det))
        m = metrics(b)
        assert calls == {}
        first = [getattr(m, name) for name in REPORTED]
        assert calls == {"_log10": b.m, "gram_det": 1}
        assert [getattr(m, name) for name in REPORTED] == first
        assert calls == {"_log10": b.m, "gram_det": 1}

    def test_equality_compares_reported_values(self):
        b = uniform_basis(5, -99, 99, seed=3)
        twin = Basis(b.rows)
        assert metrics(b) == metrics(twin) and metrics(twin) == metrics(b)
        assert hash(metrics(b)) == hash(metrics(twin))
        rows = [list(r) for r in b.rows]
        rows[2] = [x - 7 * y for x, y in zip(rows[2], rows[0])]
        other = Basis(rows)  # same lattice and determinant, other norms
        assert metrics(other) != metrics(b)
        assert metrics(b) != metrics(other)

    def test_another_type_is_not_equal(self):
        m = metrics(Basis.identity(2))
        assert m.__eq__(m._values()) is NotImplemented
        assert m != m._values()

    def test_repr_shows_the_four_values(self):
        assert repr(metrics(Basis.identity(2))) == (
            "BasisMetrics(Decimal('1'), Decimal('1'), Decimal('0'), Decimal('1'))"
        )


SRC = Path(__file__).resolve().parent.parent / "src" / "latforge"


def _check_library_built(out: Basis) -> None:
    """``out`` is what the public constructor would make of its rows."""
    assert type(out.rows) is tuple
    assert all(type(row) is tuple for row in out.rows)
    assert all(type(x) is int for row in out.rows for x in row)
    twin = Basis(out.rows)
    assert out == twin and twin == out
    assert hash(out) == hash(twin)
    back = pickle.loads(pickle.dumps(out))
    assert back == out and hash(back) == hash(out)


class TestCallerContext:
    """Reported reals do not follow the caller's decimal context: their sums,
    differences and 12-digit rendering run in Python's default one."""

    CALLER = {"prec": 4, "rounding": decimal.ROUND_DOWN}

    def test_log10_weight(self):
        b = lll_reduce(knapsack_basis(12, 40, seed=3))
        with decimal.localcontext(**self.CALLER):
            weight = metrics(b).log10_weight
        assert weight == Decimal("13.47132198453033187320266181")

    def test_summarize(self):
        values = [core.REAL.sqrt(Decimal(k)) for k in (2, 3, 5)]
        with decimal.localcontext(**self.CALLER):
            row = summarize(3, values)
        assert row.mean == Decimal("1.7941107824805873462461029116666666666666666666667")
        assert row.std == Decimal("0.33837824031729334873290485352997170559623129732635")
        assert row.range == Decimal("0.8218544151266946476074849445")

    def test_format_real(self):
        with decimal.localcontext(**self.CALLER):
            shown = core.format_real(Decimal("1.2345678901289"))
        assert shown == "1.23456789013"


SMALL_BASES = st.one_of(
    st.builds(uniform_basis, st.integers(3, 8), st.just(-99), st.just(99),
              seed=st.integers(0, 10**6)),
    st.builds(knapsack_basis, st.integers(3, 8), st.integers(2, 80),
              seed=st.integers(0, 10**6)),
)


def _round_bases(b: Basis, k: int, seed: int):
    """The trace of a two-round ``ldsf_run`` of ``b`` with k blocks, and the
    bases its rounds build: each block, its reduction and the joined
    reduced rows that ``apply`` makes the fused basis of."""
    blocks, reduced, joined = [], [], []

    def reduce(block, alpha):
        blocks.append(block)
        reduced.append(lll_reduce(block, alpha))
        return reduced[-1]

    def rearrange(basis, p):
        joined.append(basis)
        return apply(basis, p)

    with mock.patch.object(ldsf_mod, "lll_reduce", reduce), \
            mock.patch.object(ldsf_mod, "apply", rearrange):
        trace = ldsf_run(b, LdsfConfig(servers=k, inner_iters=2, seed=seed))
    return trace, blocks, reduced, joined


class TestLibraryBuiltBases:
    """``lll_reduce``, ``apply`` and an ``ldsf_run`` round bind their rows
    through ``Basis._built``, which neither copies nor checks them."""

    @given(b=SMALL_BASES, data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_outputs_equal_their_public_twins(self, b, data):
        perm = data.draw(st.permutations(range(1, b.m + 1)).map(Permutation))
        k = data.draw(st.integers(1, b.m // 2))
        trace, blocks, reduced, joined = _round_bases(b, k, data.draw(st.integers(0, 9)))
        # A round builds its k blocks, their k reductions, the joined rows
        # and the fused basis: 2k + 2 bases.
        assert len(blocks) == len(reduced) == 2 * k and len(joined) == 2
        outs = [lll_reduce(b), apply(b, perm), *blocks, *reduced, *joined]
        outs += [r.fused_basis for r in trace.rounds]
        for out in outs:
            _check_library_built(out)

    def test_only_the_search_layers_call_it(self):
        # A new caller vouches that its rows are ints of the right shape, and
        # a new ``like=`` caller that they span the lattice of ``like``.
        callers = sorted(
            (path.name, fn.name, [k.arg for k in node.keywords])
            for path in SRC.glob("*.py")
            for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_built"
        )
        assert callers == [
            ("ldsf.py", "ldsf_run", []),
            ("ldsf.py", "ldsf_run", ["like"]),
            ("lll.py", "lll_reduce", ["like"]),
            ("perm.py", "apply", ["like"]),
        ]


def _carried(b: Basis) -> bool:
    return "_gram_det" in vars(b)


class TestCarriedDeterminant:
    """Only ``lll_reduce``, ``apply`` and the joined and fused bases of an
    ``ldsf_run`` round carry a determinant, from an input that holds one,
    and it is that of their own rows.  No other basis holds one it did not
    compute."""

    @given(b=SMALL_BASES, data=st.data())
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_each_carry_site_holds_its_own_determinant(self, b, data):
        perm = data.draw(st.permutations(range(1, b.m + 1)).map(Permutation))
        k = data.draw(st.integers(1, b.m // 2))
        b = Basis(b.rows)
        gram_det(b)
        trace, _, _, joined = _round_bases(b, k, data.draw(st.integers(0, 9)))
        outs = [lll_reduce(b), apply(b, perm), *joined, *(r.fused_basis for r in trace.rounds)]
        for out in outs:
            assert _carried(out)
            assert gram_det(out) == _gram_det_bareiss(out)

    @given(b=SMALL_BASES, data=st.data())
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_no_other_basis_holds_one(self, b, data):
        perm = data.draw(st.permutations(range(1, b.m + 1)).map(Permutation))
        k = data.draw(st.integers(1, b.m // 2))
        fresh = Basis(b.rows)
        assert not _carried(fresh)
        # Without a determinant to carry, the carry sites hold none either.
        assert not any(_carried(out) for out in (lll_reduce(fresh), apply(fresh, perm)))
        gram_det(fresh)
        _, blocks, reduced, _ = _round_bases(fresh, k, data.draw(st.integers(0, 9)))
        outs = [
            Basis(fresh.rows), *blocks, *reduced, fresh.replace(),
            fresh.replace(rows=fresh.rows), copy.copy(fresh), copy.deepcopy(fresh),
            pickle.loads(pickle.dumps(fresh)),
        ]
        assert not any(_carried(out) for out in outs)


class TestGramDet:
    def test_identity(self):
        assert gram_det(Basis.identity(5)) == 1

    def test_diagonal(self):
        assert gram_det(Basis(((2, 0), (0, 3)))) == 36

    def test_row_permutation_invariance(self):
        rng = derive_rng("gram-perm")
        for seed in range(5):
            b = uniform_basis(5, -20, 20, seed=seed)
            rows = list(b.rows)
            rng.shuffle(rows)
            assert gram_det(Basis(tuple(rows))) == gram_det(b)

    def test_rectangular(self):
        assert gram_det(Basis(((1, 0, 0), (0, 2, 0)))) == 4

    def test_matches_reference(self):
        for seed in range(5):
            for b in (
                uniform_basis(7, -999, 999, seed=seed),
                knapsack_basis(8, 60, seed=seed),
                lll_reduce(knapsack_basis(8, 60, seed=seed)),
                Basis(uniform_basis(5, -99, 99, seed=seed).rows[:3]),
            ):
                assert gram_det(b) == _gram_det_bareiss(b)

    @pytest.mark.parametrize(
        "rows",
        [
            ((1, 2), (2, 4)),
            ((0, 0, 0), (1, 2, 3)),
            ((1, 0, 0), (0, 1, 0), (1, 1, 0)),
            ((3, 1, 4, 1), (5, 9, 2, 6), (8, 10, 6, 7)),
        ],
    )
    def test_dependent_rows_are_zero(self, rows):
        b = Basis(rows)
        assert gram_det(b) == 0 == _gram_det_bareiss(b)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rows=_matrices(wide=3))
    @example(rows=((1, 0, 7 * (10**4400 // 9)), (0, 1, -(10**4310 // 3))))  # 4,400 and 4,310 digits
    @example(rows=((3, -1, 4), (6, -2, 8)))
    @example(rows=((0, 2, 4, 1, 3), (0, 1, 2, 5, 7)))
    def test_matches_reference_on_every_route(self, rows):
        # n - m <= 1 sums the squared maximal minors of B, a wider basis
        # takes the integral GSO; both must give the reference determinant.
        b = Basis(rows)
        assert gram_det(b) == _gram_det_bareiss(b)

    @pytest.mark.parametrize(
        "b,gso_calls",
        [
            (knapsack_basis(30, 1000), 0),
            (uniform_basis(8), 0),
            (Basis(uniform_basis(8).rows[:3]), 1),
        ],
        ids=["knapsack30x1000", "uniform8", "3x8"],
    )
    def test_route_by_shape(self, b, gso_calls, monkeypatch):
        calls = Counter()
        gso_kernel = counting(calls, "_integral_gso", core._integral_gso)
        monkeypatch.setattr(core, "_integral_gso", gso_kernel)
        assert gram_det(b) == _gram_det_bareiss(b)
        assert calls["_integral_gso"] == gso_calls


class TestReducedEchelon:
    """The fraction-free echelon behind ``hnf`` and ``gram_det`` against
    Gauss-Jordan over Fractions: the first independent columns are the
    pivots P, |d| = |det B_P|, and the non-pivot columns hold d * B_P^-1 * B."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rows=_matrices(wide=4))
    @example(rows=((0, 2, 4, 1, 3), (0, 1, 2, 5, 7)))
    @example(rows=((0, 0, 3, 3, 6, 1), (0, 0, 5, 5, 1, 9), (0, 0, 7, 7, 2, 8)))
    @example(rows=((1, 2, 3), (2, 4, 6)))
    def test_matches_fraction_reference(self, rows):
        self.check(Basis(rows))

    @pytest.mark.parametrize("m", range(2, 13))
    def test_knapsack_matches_fraction_reference(self, m):
        # The identity block keeps every pivot at 1, so most rows are left
        # as they are; the LLL-reduced basis has no such block.
        for bits in (8, 60):
            b = knapsack_basis(m, bits, seed=m)
            self.check(b)
            self.check(lll_reduce(b))

    @staticmethod
    def check(b):
        pivots, det, form = echelon_reference(b)
        if len(pivots) < b.m:
            with pytest.raises(DependentRowsError):
                core._reduced_echelon(b)
            return
        got, d, scaled = core._reduced_echelon(b)
        assert got == pivots
        assert abs(d) == abs(det)
        extra = [c for c in range(b.n) if c not in pivots]
        for row, want in zip(scaled, form):
            assert [row[c] for c in extra] == [d * want[c] for c in extra]


class TestOneEchelonPerBasis:
    """``gram_det`` and ``hnf`` of one basis object share one elimination,
    kept beside its field, so certify's load check, reduction and
    ``same_lattice`` eliminate each distinct basis once, and a walk
    eliminates its input only."""

    @pytest.fixture
    def eliminated(self, monkeypatch) -> Counter:
        echelon, calls = core._reduced_echelon, Counter()

        def counted(b):
            calls[b.rows] += 1
            return echelon(b)

        monkeypatch.setattr(core, "_reduced_echelon", counted)
        return calls

    @pytest.mark.parametrize(
        "b",
        [uniform_basis(8, seed=0), knapsack_basis(12, 60, seed=0)],
        ids=["uniform8", "knapsack12"],
    )
    def test_certify_sequence_eliminates_each_basis_once(self, b, tmp_path, eliminated):
        path = tmp_path / "in.lat"
        save_lattice(b, str(path))
        basis = load_lattice(str(path)).basis
        out = lll_reduce(basis)
        assert is_lll_reduced(out)
        assert same_lattice(basis, out)
        assert eliminated == {basis.rows: 1, out.rows: 1}

    @pytest.mark.parametrize(
        "b",
        [uniform_basis(8, seed=0), knapsack_basis(12, 60, seed=0)],
        ids=["uniform8", "knapsack12"],
    )
    def test_hill_climb_eliminates_only_its_input(self, b, eliminated):
        # The walk's one determinant is that of its input, as in ldsf_run and
        # run_pipeline: the reduced basis, which carries it, is never
        # eliminated.  A fresh object, as uniform_basis eliminated the one it
        # returned.
        b = Basis(b.rows)
        cfg = HcConfig(FixedRadius(2), sample_size=2, max_steps=2, alpha=LllParams("3/4"))
        trace = hill_climb(b, cfg)
        assert lll_reduce(b).rows != b.rows
        read = [trace.initial_metrics, *(step.after for step in trace.steps)]
        assert {m.det_lattice for m in read} == {metrics(b).det_lattice}
        assert eliminated == {b.rows: 1}

    def test_memo_is_not_part_of_the_value(self, eliminated):
        b = uniform_basis(5, -9, 9, seed=2)
        twin = Basis(b.rows)
        assert gram_det(b) == gram_det(twin)
        assert hnf(b) == hnf(twin)
        assert eliminated == {b.rows: 2}  # one per object, not per value
        assert b == twin and hash(b) == hash(twin) and repr(b) == repr(twin)
        assert b.__getstate__() == {"rows": b.rows}

    def test_dependent_rows_are_not_kept(self, eliminated):
        b = Basis(((1, 2, 3), (2, 4, 6)))
        assert gram_det(b) == 0
        with pytest.raises(DependentRowsError):
            hnf(b)
        assert eliminated == {b.rows: 2}
        assert "_echelon" not in vars(b)

    def test_readers_leave_the_echelon_as_it_was(self):
        for b in (uniform_basis(6, seed=3), knapsack_basis(8, 60, seed=3)):
            kept = copy.deepcopy(b._echelon)
            gram_det(b)
            hnf(b)
            same_lattice(b, lll_reduce(b))
            assert b._echelon == kept


class TestHnf:
    def test_identity(self):
        assert hnf(Basis.identity(4)) == Basis.identity(4)

    def test_small_example(self):
        got = hnf(Basis(((1, -1), (0, 2))))
        assert got.rows == ((1, 1), (0, 2))
        # independent route: same lattice, canonical shape
        assert same_lattice_oracle(got, Basis(((1, -1), (0, 2))))

    def test_idempotent(self):
        for seed in range(6):
            b = uniform_basis(5, -30, 30, seed=seed)
            h = hnf(b)
            assert hnf(h) == h

    def test_canonical_under_unimodular_changes(self):
        b = uniform_basis(5, -30, 30, seed=1)
        rows = [list(r) for r in b.rows]
        rows[0] = [x + 3 * y for x, y in zip(rows[0], rows[2])]
        rows[3], rows[4] = rows[4], rows[3]
        rows[1] = [-x for x in rows[1]]
        other = Basis(rows)
        assert hnf(other) == hnf(b)
        assert same_lattice(other, b)
        assert same_lattice_oracle(other, b)

    def test_equal_determinants_of_different_lattices(self):
        a, b = Basis(((1, 0), (0, 2))), Basis(((2, 0), (0, 1)))
        assert gram_det(a) == gram_det(b)
        assert not same_lattice(a, b)
        assert not same_lattice_oracle(a, b)

    def test_fast_path_matches_echelon(self):
        agree = self.agree
        rng = derive_rng("hnf-agree")
        checked = 0
        while checked < 40:
            m = rng.randint(6, 9)
            rows = [[rng.randint(-99, 99) for _ in range(m)] for _ in range(m)]
            b = Basis(rows)
            if gram_det(b) == 0:
                continue
            checked += 1
            agree(b)
        # Non-square, with pivot columns that are not the leading ones: a
        # zero column, a column repeated, a column that is a combination.
        agree(Basis(((0, 2, 4, 1, 3), (0, 1, 2, 5, 7))))
        agree(Basis(((0, 0, 3, 3, 6, 1), (0, 0, 5, 5, 1, 9), (0, 0, 7, 7, 2, 8))))
        while checked < 80:
            m = rng.randint(2, 6)
            n = m + rng.randint(2, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            for row in rows:
                row[0] = 0
                row[2] = 2 * row[1] - row[3]
            b = Basis(rows)
            if gram_det(b) == 0:
                continue
            checked += 1
            agree(b)
        for m in range(2, 13):
            agree(lll_reduce(knapsack_basis(m, 60, seed=m)))

    @staticmethod
    def agree(b):
        want = _hnf_echelon([list(r) for r in b.rows])
        assert hnf(b).rows == tuple(tuple(r) for r in want)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_dense_matches_reference(self, m):
        for seed in range(3):
            self.agree(uniform_basis(m, -999, 999, seed=seed))

    @pytest.mark.parametrize("m", range(2, 9))
    def test_column_scaled_matches_reference(self, m, monkeypatch):
        # Scaled columns give pivots above 1 in several columns, so finished
        # rows are reduced while later pivots are still to come.
        calls = self.count_square(monkeypatch)
        rng = derive_rng("hnf-scaled", m)
        for seed in range(4):
            scale = [rng.choice((1, 2, 3, 4, 6, 8, 12)) for _ in range(m)]
            b = uniform_basis(m, -9, 9, seed=seed)
            b = Basis([[x * c for x, c in zip(row, scale)] for row in b.rows])
            self.agree(b)
            assert max(row[i] for i, row in enumerate(hnf(b).rows)) > 1
        assert calls["_hnf_square"] == 2 * 4  # two hnf calls per seed

    @staticmethod
    def count_square(monkeypatch) -> Counter:
        calls = Counter()
        square = counting(calls, "_hnf_square", core._hnf_square)
        monkeypatch.setattr(core, "_hnf_square", square)
        return calls

    @pytest.mark.parametrize(
        "b,square_calls",
        [
            (uniform_basis(30, seed=0), 0),
            (Basis(((1, -1), (0, 2))), 0),
            (Basis(((1, 0, 5), (0, 2, 7))), 0),
            (Basis(((2, 0), (0, 3))), 1),
            (Basis(((8, -7), (8, -6))), 1),
            (Basis(((2, 0, 1), (0, 3, 1))), 1),
        ],
        ids=["uniform30", "2x2-cyclic", "2x3-cyclic", "Z/2+Z/3", "pivot-8", "2x3-two-pivots"],
    )
    def test_route_by_lattice(self, b, square_calls, monkeypatch):
        # The echelon's unit column settles the form when w_(m-1) is a unit
        # modulo |det|.  Z/2 x Z/3 is cyclic, but its pivots are 2 and 3.
        calls = self.count_square(monkeypatch)
        self.agree(b)
        assert calls["_hnf_square"] == square_calls

    @pytest.mark.parametrize(
        "b",
        [uniform_basis(30, seed=0), knapsack_basis(8, 60), knapsack_basis(30, 60)],
        ids=["uniform30", "knapsack8", "knapsack30"],
    )
    def test_reduced_bases_take_the_unit_column_route(self, b, monkeypatch):
        # certify's check: an LLL-reduced basis against the form of its
        # input.  A knapsack basis [I | a] is its own HNF.
        calls = self.count_square(monkeypatch)
        want = b if b.n > b.m else hnf(b)
        assert hnf(lll_reduce(b)) == want
        assert calls["_hnf_square"] == 0

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rows=_matrices(wide=2))
    @example(rows=((1, 0, 5), (0, 2, 7)))  # the unit-column route
    @example(rows=((2, 0, 1), (0, 3, 1)))  # _hnf_square
    @example(rows=((1, 2), (2, 4)))  # pivots only in the unit column
    def test_matches_reference_on_both_routes(self, rows):
        b = Basis(rows)
        if gram_det(b) == 0:
            with pytest.raises(DependentRowsError, match="rows span a lattice of lower rank"):
                hnf(b)
        else:
            self.agree(b)

    def test_pivot_equal_to_det(self):
        # det = 8 and the first pivot is 8: reduced modulo det it would be 0.
        b = Basis(((8, -7), (8, -6)))
        assert hnf(b).rows == ((8, 0), (0, 1))
        self.agree(b)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_negative_first_row_matches_reference(self, m):
        for seed in range(4):
            rows = [list(r) for r in uniform_basis(m, -99, 99, seed=seed).rows]
            rows[0] = [-abs(x) or -1 for x in rows[0]]
            b = Basis(rows)
            if gram_det(b):
                self.agree(b)

    def test_detects_dependence(self):
        with pytest.raises(DependentRowsError):
            hnf(Basis(((1, 2), (2, 4))))

    def test_shape_contract(self):
        for seed in range(4):
            h = hnf(uniform_basis(6, -99, 99, seed=seed))
            pivots = []
            for row in h.rows:
                j = next(i for i, x in enumerate(row) if x != 0)
                assert row[j] > 0
                pivots.append(j)
            assert pivots == sorted(pivots)
            for i, j in enumerate(pivots):
                for k in range(i):
                    assert 0 <= h.rows[k][j] < h.rows[i][j]


class TestSvpOracle:
    def test_bound_past_4300_digits(self):
        with pytest.raises(ValueError) as info:
            svp_oracle(Basis.identity(2), -(10**5000))
        cut = "-1" + "0" * 35 + "..."
        assert str(info.value) == f"coeff_bound and budget must be >= 1, got {cut}, 10000000"

    def test_identity(self):
        res = svp_oracle(Basis.identity(3), 2)
        assert res.lambda1 == 1
        assert res.count_checked == 5**3 - 1

    def test_small_lattice_ground_truth(self):
        b = Basis(((2, 0), (1, 2)))
        res = svp_oracle(b, 3)
        assert res.lambda1 == 2
        # cross-check: wider box finds nothing shorter
        wide = svp_oracle(b, 6)
        assert wide.lambda1 == res.lambda1
        assert res.vector == (-2, 0)  # lex-smallest coefficients (-1, 0)

    def test_box_budget(self):
        with pytest.raises(BoxTooLargeError):
            svp_oracle(Basis.identity(5), 3, budget=1000)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be >= 1, got 1, "):
            svp_oracle(Basis.identity(2), 1, budget=budget)

    def test_dependent_rows(self):
        with pytest.raises(DependentRowsError, match="^row 1 depends on rows above it$"):
            svp_oracle(Basis(((1, 1), (2, 2))), 2)

    def test_result_in_lattice(self):
        b = uniform_basis(4, -9, 9, seed=2)
        res = svp_oracle(b, 3)
        assert lattice_contains(b, res.vector)
        assert res.vector != (0,) * b.n

    def test_ties_match_reference_enumerator(self):
        tied = [
            Basis.identity(3),
            Basis(((2, 0), (1, 2))),
            Basis(((1, 1, 0, 0), (1, -1, 0, 0), (0, 1, 1, 0))),
        ]
        for b in tied:
            for bound in (1, 2, 3):
                coeffs, _ = _enumerate_box_python(b, bound)
                res = svp_oracle(b, bound)
                assert res.vector == tuple(
                    sum(c * row[j] for c, row in zip(coeffs, b.rows))
                    for j in range(b.n)
                )

    def test_matches_reference_enumerator(self):
        rng = derive_rng("svp-agree")
        for seed in range(12):
            b = uniform_basis(3 + seed % 2, -15, 15, seed=rng.randint(0, 10**6))
            for bound in range(1, 6):
                coeffs, _ = _enumerate_box_python(b, bound)
                res = svp_oracle(b, bound)
                assert res.vector == tuple(
                    sum(c * row[j] for c, row in zip(coeffs, b.rows))
                    for j in range(b.n)
                )
                assert res.count_checked == (2 * bound + 1) ** b.m - 1

    def test_not_longer_than_reduced_rows(self):
        for seed in range(4):
            b = uniform_basis(4, -30, 30, seed=seed)
            res = svp_oracle(b, 6)
            red = lll_reduce(b)
            lam_sq = sum(x * x for x in res.vector)
            assert all(lam_sq <= red.row_normsq(i) for i in range(red.m))

    @pytest.mark.parametrize("bound", range(1, 7))
    @pytest.mark.parametrize(
        "center",
        [0, 3, -2, 7, -9, Fraction(1, 2), Fraction(-5, 2), Fraction(13, 2), Fraction(-15, 2),
         Fraction(1, 3), Fraction(-7, 3), Fraction(22, 7), Fraction(-41, 5), Fraction(99, 4)],
    )
    def test_zigzag_is_the_sorted_order(self, center, bound):
        # Integer, half-integer (a tie: the lower value first, as a stable
        # sort of the ascending range gives) and out-of-box centers.
        want = sorted(range(-bound, bound + 1), key=lambda v: abs(v - center))
        assert list(core._zigzag(center, bound)) == want

    def test_zigzag_is_lazy(self):
        walk = core._zigzag(Fraction(1, 3), 10**50)
        assert [next(walk) for _ in range(4)] == [0, 1, -1, 2]

    def test_same_results_as_the_sorted_level_order(self, monkeypatch):
        # The oracle with each level sorted in full, as before the zigzag.
        bases = [uniform_basis(m, -15, 15, seed=seed) for m in (3, 4, 5, 6) for seed in range(3)]
        got = {(b, bound): svp_oracle(b, bound) for b in bases for bound in range(1, 7)}
        monkeypatch.setattr(
            core, "_zigzag",
            lambda c, bound: sorted(range(-bound, bound + 1), key=lambda v: abs(v - c)),
        )
        for (b, bound), res in got.items():
            assert res == svp_oracle(b, bound)

    def test_rank_past_the_recursion_limit(self):
        # The walk keeps its levels on a stack of its own: 120 of them run
        # under a limit 40 frames above this test's depth.
        with recursion_headroom(40):
            res = svp_oracle(Basis.identity(120), 1, budget=3**120)
        assert res.vector == (-1,) + (0,) * 119
        assert res.lambda1 == 1

    def test_brute_force_cross_check(self):
        # independent re-enumeration with itertools over the same box
        b = Basis(((3, 1), (1, 4)))
        res = svp_oracle(b, 4)
        best = min(
            (
                sum(
                    (c0 * b.rows[0][j] + c1 * b.rows[1][j]) ** 2
                    for j in range(2)
                )
                for c0, c1 in itertools.product(range(-4, 5), repeat=2)
                if (c0, c1) != (0, 0)
            )
        )
        assert res.lambda1 * res.lambda1 == best


def _full_text(given) -> str:
    """What ``_quoted`` cuts: every digit of every number rendered."""
    if isinstance(given, list):
        return "[" + ", ".join(map(_full_text, given)) + "]"
    if isinstance(given, tuple):
        return "(" + ", ".join(map(_full_text, given)) + ("," if len(given) == 1 else "") + ")"
    if isinstance(given, dict):
        return "{" + ", ".join(f"{_full_text(k)}: {_full_text(v)}" for k, v in given.items()) + "}"
    if isinstance(given, str):
        return repr(given)
    q = Fraction(given)
    return int_str(q.numerator) + (f"/{int_str(q.denominator)}" if q.denominator > 1 else "")


def _cut(text: str) -> str:
    return text if len(text) <= 40 else text[:37] + "..."


class TestQuoted:
    """``_quoted`` renders only the leading digits of a long number, and its
    text is the whole rendering cut to 40 characters."""

    @pytest.mark.parametrize("sign", [1, -1])
    def test_ints_around_the_cut(self, sign):
        for digits in range(30, 60):
            for x in (10 ** (digits - 1), 10**digits - 1, 7 * 10**digits // 9):
                assert core._quoted(sign * x) == _cut(int_str(sign * x))
        for bits in range(100, 260):
            for x in (1 << (bits - 1), (1 << bits) - 1):
                assert core._quoted(sign * x) == _cut(int_str(sign * x))

    @pytest.mark.parametrize(
        "given",
        [
            10**5000 + 12345,
            -(10**4999) - 1,
            Fraction(10**5000 + 7, 3),
            Fraction(-1, 10**5000 + 1),
            Fraction(123456789, 10**41 + 9),
            [1, 2, 10**5000],
            [12345678901234567890123456789012345, -(10**100)],
            {"a": [Fraction(5, 10**4400 + 3)]},
            {10**4400: 1},
            (10**5000, 1),
            (10**5000,),
            tuple(range(2, 3000)),
        ],
        ids=[
            "int", "negative-int", "long-numerator", "long-denominator",
            "denominator-past-cut", "in-list", "after-a-prefix", "in-dict", "dict-key",
            "in-tuple", "in-1-tuple", "long-tuple",
        ],
    )
    def test_long_values_cut_as_full_text(self, given):
        assert len(_full_text(given)) > 40
        assert core._quoted(given) == _cut(_full_text(given))

    @pytest.mark.parametrize(
        "given", [(), (7,), (1, -2, 3), ("a", (1,), [2]), (*range(1, 12), 100)],
        ids=["empty", "one", "ints", "nested", "at-the-cut"],
    )
    def test_short_tuples_read_as_str(self, given):
        assert len(str(given)) <= 40
        assert core._quoted(given) == str(given)

    def test_box_message(self):
        # The box (2 * (10**4000 - 1) + 1)**20 has 80,007 digits.
        bound = 10**4000 - 1
        with pytest.raises(BoxTooLargeError) as err:
            svp_oracle(knapsack_basis(20, 60), bound)
        box = int_str((2 * bound + 1) ** 20)
        assert str(err.value) == (
            f"box of {box[:37]}... coefficient vectors exceeds budget 10000000"
        )
