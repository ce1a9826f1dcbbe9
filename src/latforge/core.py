"""Exact-arithmetic lattice fundamentals.

Bases are immutable rows of arbitrary-precision integers.  Everything that
decides anything (orthogonality, lattice equality, tie-breaking) is computed
exactly over the integers or rationals; only the reported metrics pass
through a high-precision decimal conversion, because row norms of real
inputs can run to hundreds of digits and would overflow a float.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Sequence

from .errors import BoxTooLargeError, DependentRowsError

# 50 significant digits (~166 bits of mantissa) for all reported reals.
REAL = decimal.Context(prec=50)
# Python's default context, fixed: the sums and differences of reported
# reals and their 12-digit rendering do not follow the caller's context.
_PLAIN = decimal.Context(prec=28, rounding=decimal.ROUND_HALF_EVEN)

#: Default cap on the number of coefficient vectors svp_oracle may enumerate.
DEFAULT_ENUM_BUDGET = 10_000_000

# Distinct squared norms whose log10 is kept: a hybrid run asks for about
# 100 distinct values, an hc run for about 80 (of 360 calls).
_LOG10_MEMO = 1024


class Record:
    """Immutable record with the value semantics of a frozen dataclass: the
    fields are the annotations, in order, a class attribute is a default,
    ``__post_init__`` runs after the fields are bound, and ``==`` (within
    one class), ``hash`` and ``repr`` use the field tuple.

    It stands in for ``dataclasses`` to cut the start-up every run pays:
    that module loads ``inspect`` (about 16 ms), and each frozen dataclass
    execs six generated methods (about 1 ms a class).
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            rest, values = names[len(args):], {**self._defaults, **kwargs}
            if len(args) > len(names) or not kwargs.keys() <= set(rest) <= values.keys():
                raise TypeError(
                    f"{type(self).__name__}{names}: {len(args)} positional, {list(kwargs)} by name"
                )
            args = (*args, *map(values.__getitem__, rest))
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __getstate__(self) -> dict:
        """The fields by name: what a copy or a pickle carries.  A value a
        subclass keeps beside them in ``__dict__`` (``Basis._echelon``,
        ``gram_det``'s memo) is recomputed by the copy, never handed to it."""
        return dict(zip(self._fields, self._values()))

    def replace(self, **changes):
        """A copy with ``changes`` applied, as ``dataclasses.replace``."""
        return type(self)(**{**self.__getstate__(), **changes})


class Basis(Record):
    """Rank-m basis of a lattice in Z^n, stored as m rows of length n.

    Rows are assumed linearly independent over the rationals; operations
    that compute an orthogonalization raise :class:`DependentRowsError`
    when they are not.  Construction checks the shape and takes each entry
    as an exact ``int``: ValueError for an entry whose value ``int`` does
    not keep (1.5, "7", inf).
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(_exact_ints(row, "basis entry") for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("basis needs at least one row")
        n = len(rows[0])
        if any(len(row) != n for row in rows):
            raise ValueError("all rows must have the same length")
        if len(rows) > n:
            raise ValueError(f"rank {len(rows)} exceeds ambient dimension {n}")

    @classmethod
    def _built(cls, rows: tuple[tuple[int, ...], ...], like: "Basis | None" = None) -> "Basis":
        """A basis of rows the library built itself: a tuple of equal-length
        int tuples, at most as many as their length, taken from other bases
        or computed from them by integer arithmetic.  They are bound as
        given, with no copy and no check; rows from outside go through
        ``Basis(rows)``.  An LDSF round builds 2k + 2 bases this way.  With
        ``like``, a basis of the same lattice, they keep its ``gram_det`` if known."""
        b = object.__new__(cls)
        b.__dict__["rows"] = rows
        if like is not None and "_gram_det" in like.__dict__:
            b.__dict__["_gram_det"] = like._gram_det
        return b

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def row_normsq(self, i: int) -> int:
        return sum(map(mul, self.rows[i], self.rows[i]))

    @cached_property
    def _echelon(self) -> tuple[list[int], int, list[list[int]]]:
        """``_reduced_echelon(self)``, run once per basis object for
        ``gram_det`` and ``hnf``, and kept in ``__dict__`` beside the fields,
        where ``==``, ``hash`` and ``repr`` do not see it.  A DependentRowsError
        is raised on each read, not kept.  Readers must not change its rows."""
        return _reduced_echelon(self)

    @cached_property
    def _gram_det(self) -> int:
        """``gram_det(self)``, kept as ``_echelon`` is, or carried by ``_built``."""
        try:
            if self.n - self.m > 1:
                return _integral_gso(self)[0][-1]
            pivots, det, scaled = self._echelon
            extra = [c for c in range(self.n) if c not in pivots]
            return det * det + sum(row[c] * row[c] for row in scaled for c in extra)
        except DependentRowsError:
            return 0

    def max_abs_entry(self) -> int:
        return max(abs(x) for row in self.rows for x in row)

    @classmethod
    def identity(cls, m: int) -> "Basis":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m)))


class BasisMetrics:
    """Reported lengths of a basis: shortest row, longest row, log10 of the
    product of row norms, and the lattice determinant sqrt(det(B.B^T)).

    Holds the exact squared row norms and the basis; each value is computed
    from them on first read and kept, so a value never read costs nothing
    (``det_lattice`` through ``gram_det``).  ``==`` compares the four values.
    """

    def __init__(self, b: Basis):
        self._basis = b
        self._normsqs = [b.row_normsq(i) for i in range(b.m)]

    @cached_property
    def shortest(self) -> Decimal:
        return _sqrt(min(self._normsqs))

    @cached_property
    def longest(self) -> Decimal:
        return _sqrt(max(self._normsqs))

    @cached_property
    def log10_weight(self) -> Decimal:
        with decimal.localcontext(_PLAIN):
            total = sum((_log10(nsq) for nsq in self._normsqs), Decimal(0))
        return REAL.divide(total, Decimal(2))

    @cached_property
    def det_lattice(self) -> Decimal:
        return _sqrt(gram_det(self._basis))

    def _values(self) -> tuple[Decimal, Decimal, Decimal, Decimal]:
        return (self.shortest, self.longest, self.log10_weight, self.det_lattice)

    def __eq__(self, other):
        if not isinstance(other, BasisMetrics):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"BasisMetrics{self._values()}"


class SvpResult(Record):
    """Outcome of exhaustive shortest-vector enumeration."""

    vector: tuple[int, ...]
    lambda1: Decimal
    count_checked: int


def _sqrt(value: int) -> Decimal:
    return REAL.sqrt(Decimal(value))


@lru_cache(maxsize=_LOG10_MEMO)
def _log10(value: int) -> Decimal:
    """log10 of a squared norm, memoised: consecutive bases of a run share
    rows, and a 50-digit logarithm takes about 0.1 ms (2-core container),
    a hit 0.2 us.  The Decimal result is immutable, so sharing it is safe."""
    return REAL.log10(Decimal(value))


def int_str(x: int) -> str:
    """``str(x)`` without Python's cap on int-to-str conversion (4,300 digits
    by default): Decimal renders an integer of any length exactly."""
    return str(Decimal(x))


def format_real(x: Decimal) -> str:
    """Fixed 12-significant-digit rendering; deterministic for a given value."""
    if x == 0:
        return "0"
    with decimal.localcontext(_PLAIN):
        return f"{x:.12g}"


def _quoted(given: object) -> str:
    """``given`` cut to 40 characters for an error message.  An int or
    Fraction, also inside a list, tuple or dict, is rendered by
    ``int_str``: ``str`` fails past 4,300 digits.  Rendering stops at the
    cut, so a deep nesting costs no more than a short one, and a long
    number no more than its leading digits."""
    text = ""
    for piece in _pieces(given):
        text += piece
        if len(text) > 40:
            return text[:37] + "..."
    return text


def _exact_ints(given, what: str) -> tuple[int, ...]:
    """``given`` as a tuple of exact ints.  A value that ``int`` keeps is
    taken (a bool, an integral Fraction or Decimal, an int-like); for any
    other, ValueError quotes the first such entry as ``what``.  The check
    compares the converted tuple with the given one, in C."""
    given = tuple(given)
    try:
        out = tuple(map(int, given))
        if out == given:
            return out
    except (ArithmeticError, ValueError):
        pass
    bad = next(x for x in given if not _keeps_value(x))
    raise ValueError(f"{what} is not an integer: {_quoted(bad)}")


def _keeps_value(x: object) -> bool:
    try:
        return int(x) == x
    except (ArithmeticError, ValueError):
        return False


def _exact_target(value: object, name: str) -> Decimal | None:
    """A stopping bound as an exact Decimal, or None for none: an int whole
    (``str`` fails past 4,300 digits), anything else through ``str``.
    ValueError, naming ``name``, when that is not a finite decimal."""
    if value is None:
        return None
    try:
        exact = Decimal(value if type(value) is int else str(value))
    except (ArithmeticError, ValueError):
        raise ValueError(f"'{name}' is not a decimal: {_quoted(value)}") from None
    if not exact.is_finite():
        raise ValueError(f"{name} must be finite, got {exact}")
    return exact


def _leading(x: int) -> str:
    """``int_str(x)``, or its first 41 characters or more when longer: only
    40 are quoted, and rendering every digit takes time quadratic in their
    number.  |x| has at least k + 41 digits, from its bit length and
    0.30102 < log10(2), so |x| // 10**k keeps 41 or more leading digits."""
    k = (abs(x).bit_length() - 1) * 30102 // 100000 - 40
    if k < 1:
        return int_str(x)
    return ("-" if x < 0 else "") + int_str(abs(x) // 10**k)


def _pieces(given: object):
    if isinstance(given, (list, tuple)):
        is_list = isinstance(given, list)
        yield "[" if is_list else "("
        for i, item in enumerate(given):
            yield ", " if i else ""
            yield from _pieces(item)
        yield "]" if is_list else ",)" if len(given) == 1 else ")"
    elif isinstance(given, dict):
        yield "{"
        for i, (key, value) in enumerate(given.items()):
            yield ", " if i else ""
            yield from _pieces(key)
            yield ": "
            yield from _pieces(value)
        yield "}"
    elif isinstance(given, (int, Fraction)) and not isinstance(given, bool):
        q = Fraction(given)
        yield _leading(q.numerator) + (f"/{_leading(q.denominator)}" if q.denominator > 1 else "")
    else:
        yield repr(given) if isinstance(given, str) else str(given)


def metrics(b: Basis) -> BasisMetrics:
    """Shortest/longest row norms, log10 of the norm product, lattice det,
    each computed on first read; the det through ``gram_det(b)``."""
    return BasisMetrics(b)


def reduction_key(b: Basis) -> tuple[int, int, int]:
    """Exact comparison key ordering bases by reduction quality.

    Ascending lexicographic (shortest, weight, longest), computed on squared
    norms so ties never hinge on real rounding: the middle component is the
    product of squared row norms, which orders identically to log10-weight.
    """
    normsqs = [b.row_normsq(i) for i in range(b.m)]
    prod = 1
    for nsq in normsqs:
        prod *= nsq
    return (min(normsqs), prod, max(normsqs))


def _gso_row(rows: Sequence, d: list[int], lam: list[list[int]], k: int) -> None:
    """Row k of the integral GSO (Cohen 1993, Alg. 2.6.7), rows 0..k-1 done:
    sets d[k+1] = det(Gram(rows[0..k])) and lam[k][j] = mu_kj * d[j+1] by
    exact divisions; DependentRowsError if row k depends on those above."""
    rk, lk = rows[k], lam[k]
    for j in range(k + 1):
        lj = lam[j]
        u = sum(map(mul, rk, rows[j]))
        for i in range(j):
            u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
        if j < k:
            lk[j] = u
        elif u == 0:
            raise DependentRowsError(f"row {k} depends on rows above it")
        else:
            d[k + 1] = u


def _integral_gso(b: Basis) -> tuple[list[int], list[list[int]]]:
    """The integral Gram-Schmidt data (d, lam) of all rows of ``b``."""
    d = [1] * (b.m + 1)
    lam = [[0] * b.m for _ in range(b.m)]
    for k in range(b.m):
        _gso_row(b.rows, d, lam, k)
    return d, lam


def gram_det(b: Basis) -> int:
    """det(B.B^T) exactly; 0 iff rows are dependent.

    Computed once per basis object; ``lll_reduce``, ``apply`` and ``ldsf_run``'s
    fused bases carry their input's, so a layer takes it of its input first.

    With at most one more column than rows (square and knapsack bases) it
    is the Cauchy-Binet sum of the squared maximal minors, read off the
    echelon of B itself: det(B_P)^2, plus for a non-pivot column c the
    squares of column c of d * B_P^-1 * B, each +-the minor with one pivot
    column swapped for c (Cramer).  On a knapsack basis those minors are 1
    and the weights, where the integral GSO of B.B^T carries minors twice
    as long.  Wider bases take d[m] of the integral GSO.
    """
    return b._gram_det


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Returns (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0 for b != 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _reduced_echelon(b: Basis) -> tuple[list[int], int, list[list[int]]]:
    """Fraction-free echelon of the m x n matrix B of ``b``, in two passes.

    Returns the pivot columns P (each the first column independent of those
    before it, so a property of the row space), d = +-det(B_P), and rows
    whose non-pivot columns hold d * B_P^-1 * B; their entries in the pivot
    columns are unspecified.  ``hnf`` and ``gram_det`` both read it, once
    per basis, through ``Basis._echelon``.  The column e_(m-1) rides along
    as column n, never a pivot, so each row ends with its entry of
    w = d * B_P^-1 * e_(m-1).

    The forward pass is Bareiss's (Math. Comp. 22, 1968): each pivot clears
    only the rows below it, dividing exactly by the pivot before it, so row
    r ends with its pivot u_(r,p_r), a signed minor of B, and d is the last.
    Fraction-free back substitution (Nakos, Turner and Williams, SIGSAM
    Bull. 31(3), 1997) then solves U_P x = d * U_j, U the rows the forward
    pass leaves, for each non-pivot column j, the last row first:
    x_r = (d * u_(r,j) - sum over s > r of u_(r,p_s) * x_s) // u_(r,p_r),
    exact because x = +-adj(B_P) * B_j is integral.  The last row is its
    own x, as u_(m-1,p_(m-1)) = d.
    """
    work = [[*r, int(i == b.m - 1)] for i, r in enumerate(b.rows)]
    m, n = b.m, b.n
    pivots: list[int] = []
    prev = 1
    for c in range(n):
        r = len(pivots)
        k = next((i for i in range(r, m) if work[i][c]), None)
        if k is None:
            continue
        work[r], work[k] = work[k], work[r]
        pivots.append(c)
        piv_row, piv = work[r], work[r][c]
        right = range(c + 1, n + 1)
        for row in work[r + 1:]:
            f = row[c]
            # With f = 0 and piv = prev the update leaves the row as it is:
            # the identity block of a knapsack basis, at every pivot.
            if f or piv != prev:
                for j in right:
                    row[j] = (piv * row[j] - f * piv_row[j]) // prev
        prev = piv
    if len(pivots) < m:
        raise DependentRowsError("rows span a lattice of lower rank")
    d = prev
    extra = [j for j in range(n + 1) if j not in pivots]
    for r in range(m - 2, -1, -1):
        row, piv = work[r], work[r][pivots[r]]
        # The rows below already hold their x; zero terms are left out.
        terms = [(row[p], below) for p, below in zip(pivots[r + 1:], work[r + 1:]) if row[p]]
        for j in extra:
            x = d * row[j]
            for u, below in terms:
                x -= u * below[j]
            row[j] = x // piv
    return pivots, d, work


def _hnf_square(rows: list[list[int]], det: int) -> list[list[int]]:
    """Row-style HNF of a nonsingular square matrix whose |det| is ``det``
    (``rows`` is overwritten).  ``hnf`` calls it only when the echelon's
    unit column does not settle the form, so ``det`` > 1.

    Cohen's Algorithm 2.4.8 (Domich-Kannan-Trotter): column p is cleared
    below its pivot by xgcd row operations taken modulo R, where R starts
    at det and is divided by each pivot found, so R * Z^(m-p) stays inside
    the lattice of what is left.  An xgcd of (1, 0) leaves the pivot row as
    it is modulo R, so it is not rebuilt.  Finished rows are reduced modulo
    det right of the current pivot p: det * e_j for j > p lies in the
    lattice of the rows still to come, so the final form is the same and no
    entry exceeds det.  Left of it a finished row holds its final entries,
    and a pivot can equal det.  Cohen's column-style upper-triangular form
    is ours rotated by 180 degrees; the indices here are already rotated.
    """
    m = len(rows)
    out: list[list[int]] = []
    R = det
    for p in range(m):
        piv_row = rows[p]
        for r in range(p + 1, m):
            other = rows[r]
            if other[p] == 0:
                continue
            x, y, g = _xgcd(piv_row[p], other[p])
            s, t = piv_row[p] // g, other[p] // g
            rows[r] = [(s * c - t * a) % R for a, c in zip(piv_row, other)]
            if (x, y) != (1, 0):
                piv_row = [(x * a + y * c) % R for a, c in zip(piv_row, other)]
        u, _, d = _xgcd(piv_row[p], R)
        row = [u * a % R for a in piv_row]
        row[p] = d
        for above in out:
            q = above[p] // d
            above[p] -= q * d
            above[p + 1:] = [(a - q * c) % det for a, c in zip(above[p + 1:], row[p + 1:])]
        out.append(row)
        R //= d
    return out


def hnf(b: Basis) -> Basis:
    """Row-style Hermite normal form of the lattice spanned by ``b``.

    Upper-staircase profile with positive pivots and the entries above each
    pivot reduced into [0, pivot).  All row operations are unimodular, so the
    output generates the same lattice, and the form is canonical: two bases
    generate equal lattices iff their HNFs are identical.

    The pivot columns P of the form are those of ``b``.  The square minor
    B_P gets its HNF H_P modulo its determinant, and the whole form is
    H_P * B_P^-1 * B, which is H_P on P and exact integers elsewhere.  The
    echelon that gives P, B_P and B_P^-1 * B also gives ``gram_det`` its
    minors.

    The echelon also carries w = d * B_P^-1 * e_(m-1): x.w = d * y_(m-1) = 0
    (mod |d|) for each x = y * B_P.  If w_(m-1) is a unit mod |d| (always if
    |d| = 1), those x form a lattice of index |d|, B_P's index, that holds
    B_P's, so H_P is the identity but for the pivot |d| and c_i = -w_i /
    w_(m-1) mod |d| in its last column (Micciancio-Warinschi 2001).
    """
    pivots, det, scaled = b._echelon
    big = abs(det)
    inv, _, g = _xgcd(scaled[-1][-1], big)
    if g == 1:
        square = [[int(i == j) for j in range(b.m)] for i in range(b.m)]
        for h, row in zip(square, scaled):
            h[-1] = -row[-1] * inv % big
        square[-1][-1] = big
    else:
        square = _hnf_square([[row[c] for c in pivots] for row in b.rows], big)
    out = []
    for h in square:
        on_pivots = dict(zip(pivots, h))
        out.append([
            on_pivots[j] if j in on_pivots
            else sum(x * s[j] for x, s in zip(h, scaled)) // det
            for j in range(b.n)
        ])
    return Basis(out)


def same_lattice(a: Basis, b: Basis) -> bool:
    """Exact lattice-equality test via canonical HNF comparison."""
    return hnf(a).rows == hnf(b).rows


def _zigzag(center: int | Fraction, bound: int):
    """[-bound, bound] in order of distance from ``center``, the lower value
    first on a tie: ``sorted(range(-bound, bound + 1), key=lambda v: abs(v -
    center))``, yielded lazily by walking outward from ``center``, so a caller
    that stops after a few values pays for no more.  With center = p / q,
    lo is nearer than hi (or as near) iff 2p <= (lo + hi) * q."""
    p, q = center.numerator, center.denominator
    lo = min(p // q, bound)
    hi = max(lo + 1, -bound)
    while True:
        if lo >= -bound and (hi > bound or 2 * p <= (lo + hi) * q):
            yield lo
            lo -= 1
        elif hi <= bound:
            yield hi
            hi += 1
        else:
            return


def svp_oracle(
    b: Basis, coeff_bound: int, budget: int = DEFAULT_ENUM_BUDGET
) -> SvpResult:
    """Exhaustive shortest-vector search over the coefficient box
    [-coeff_bound, coeff_bound]^m.

    Ground truth for desk-scale validation only; the box grows as
    (2*coeff_bound+1)^m and is rejected beyond ``budget``.  Ties are broken
    by the lexicographically smallest coefficient vector.  ``count_checked``
    is the size of the box less the zero vector, not the number of nodes
    the pruned search visits.

    Schnorr-Euchner depth-first search on the exact GSO, read from the
    integral kernel as mu_ji = lam[j][i] / d[i+1] and ||b*_i||^2 =
    d[i+1] / d[i]: coefficients are fixed from the last row down, each
    level in order of distance from its projected center (``_zigzag``), so
    the partial squared norm only grows along a branch and the first value
    past the best norm ends the level.  A branch is cut once it
    exceeds the best norm found so far, starting from the shortest row
    (its unit coefficient vector is in the box).  Ties survive the cut, so
    every minimum in the box is reached.  The walk is a loop over an
    explicit stack of levels (Schnorr-Euchner's iterative form), so its
    depth is not bounded by the recursion limit.
    """
    if coeff_bound < 1 or budget < 1:
        raise ValueError(
            f"coeff_bound and budget must be >= 1, got {_quoted(coeff_bound)}, {_quoted(budget)}"
        )
    box = (2 * coeff_bound + 1) ** b.m
    if box > budget:
        raise BoxTooLargeError(
            f"box of {_quoted(box)} coefficient vectors exceeds budget {_quoted(budget)}"
        )
    d, lam = _integral_gso(b)
    m = b.m
    mu = [[Fraction(lam[j][i], d[i + 1]) for i in range(j)] for j in range(m)]
    normsq = [Fraction(d[i + 1], d[i]) for i in range(m)]
    x = [0] * m
    best_sq, first = min((b.row_normsq(i), i) for i in range(m))
    best = tuple(int(j == first) for j in range(m))

    def level(i: int, partial: Fraction):
        center = -sum(x[j] * mu[j][i] for j in range(i + 1, m) if x[j])
        return i, iter(_zigzag(center, coeff_bound)), center, partial

    # The level being walked, and the levels above it as they were left.
    i, values, center, partial = level(m - 1, Fraction(0))
    above = []
    while True:
        xi = next(values, None)
        if xi is None or (sq := partial + (xi - center) ** 2 * normsq[i]) > best_sq:
            if not above:
                break
            i, values, center, partial = above.pop()
            continue
        x[i] = xi
        if i:
            above.append((i, values, center, partial))
            i, values, center, partial = level(i - 1, sq)
        elif any(x) and (sq < best_sq or tuple(x) < best):
            best_sq, best = sq, tuple(x)
    vector = tuple(
        sum(c * row[j] for c, row in zip(best, b.rows)) for j in range(b.n)
    )
    return SvpResult(
        vector=vector, lambda1=_sqrt(sum(map(mul, vector, vector))), count_checked=box - 1
    )
