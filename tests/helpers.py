"""Shared test oracles, deliberately independent of the code they check.

``lattice_contains``/``same_lattice_oracle`` decide lattice membership and
equality by exact rational row reduction, so HNF-based claims in the library
can be validated through a second route.

``_hnf_echelon`` (plain xgcd row elimination) and ``_enumerate_box_python``
(a scan of every vector in the coefficient box) share no algorithm with
``hnf`` (modulo-determinant HNF) and ``svp_oracle`` (pruned Schnorr-Euchner
search), and serve as their references.  ``echelon_reference`` (Gauss-Jordan
over Fractions) checks the fraction-free echelon that ``hnf`` and
``gram_det`` share.

``gso`` is the rational Gram-Schmidt orthogonalization (b*_i, mu_ij and
||b*_i||^2 as Fractions, each row projected on the b*_j above it).  It and
``_gram_det_bareiss`` (Bareiss elimination of the Gram matrix) share
nothing with the integral Gram-Schmidt kernel behind ``gram_det``,
``is_lll_reduced``, ``lll_reduce`` and ``svp_oracle``.
``_is_lll_reduced_fraction`` checks the LLL conditions on ``gso``, so a
fault in that kernel cannot pass its own check.

The oracles import no private primitive of the library: ``_xgcd`` and
the 50-digit ``_sqrt``/``_log10`` are written out here, as is ``_dot``.

``eager_metrics`` computes the four metric values all at once, with the
reference determinant, as the reference for the lazy ``BasisMetrics``.

``lll_reduce_reference`` is the loop form of the integral LLL kernel, a
Python call per size-reduction test and a comprehension per row update,
with its own copy of the GSO row step.  It makes the same decisions as
``lll_reduce`` by construction, so the two must return equal rows.

``parse_lattice_reference`` is the character-by-character reader of the
lattice format that ``parse_lattice`` replaced with one token regex: it
walks the text one Python call per character, tracking line and column as
it goes.  The two must agree on every text, in rows and determinant or in
the error raised and its position.

The S_m metric that the samplers of ``latforge.perm`` walk is written out
here, reading only ``Permutation.images`` and importing nothing from that
module: ``moved_points`` (the radius) and ``side``, ``hamming``, the sphere
size ``count_at_radius`` in closed form next to ``brute_force_count``, and
``compose``/``inverse`` on image tuples.

``sampled_shortest_sq`` is the sampling that ``radius_sweep`` and
``improvement_frequency`` share, written from their docstrings with
``hashlib.blake2b`` and ``random.Random``, not the library's seed or
sampler code: each copy's seed, sphere draw, row order and reduction
(``lll_reduce_reference``).  ``hill_climb_reference`` (the fixed- and
variable-radius walks) and ``ldsf_run_reference`` are written from the
docstrings of ``hill_climb`` and ``ldsf_run`` in the same way: their own
seeds, sphere and right draws, block cuts, comparison keys and reductions.
``sigma_stage_reference`` (n of those LDSF runs from right-permuted starts,
keeping the least key) and ``run_pipeline_reference`` (the stage list with
its llb/lub rule) are built on ``ldsf_run_reference`` in the same way.
"""

from __future__ import annotations

import contextlib
import decimal
import hashlib
import itertools
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from latforge import (
    Basis,
    BasisMetrics,
    DegreeMismatchError,
    DependentRowsError,
    LatticeFile,
    LllParams,
    ParseError,
    RankDeficientError,
    metrics,
)
from latforge.lll import DEFAULT_PARAMS

# 50 significant digits, the precision the library promises for its reals.
_REAL = decimal.Context(prec=50)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _sqrt(value: int) -> Decimal:
    return _REAL.sqrt(Decimal(value))


def _log10(value: int) -> Decimal:
    return _REAL.log10(Decimal(value))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with x*a + y*b == g == gcd(a, b) >= 0: the Euclidean
    algorithm tracks x alone, and y is solved from it at the end."""
    g, next_g, x, next_x = a, b, 1, 0
    while next_g:
        q = g // next_g
        g, next_g = next_g, g - q * next_g
        x, next_x = next_x, x - q * next_x
    if g < 0:
        g, x = -g, -x
    return x, (g - x * a) // b if b else 0, g


def moved_points(p) -> int:
    """The radius of ``p``: its Hamming distance from the identity."""
    return sum(img != i for i, img in enumerate(p.images, start=1))


def side(p) -> str:
    """"left" when the radius is at most half the degree (ties left), else "right"."""
    return "left" if 2 * moved_points(p) <= len(p.images) else "right"


def hamming(x, y) -> int:
    """Number of points on which ``x`` and ``y`` disagree."""
    if len(x.images) != len(y.images):
        raise DegreeMismatchError(f"degrees differ: {len(x.images)} vs {len(y.images)}")
    return sum(a != b for a, b in zip(x.images, y.images))


def brute_force_count(m: int, r: int) -> int:
    """Permutations of degree m that move exactly r points, by listing S_m."""
    identity = tuple(range(1, m + 1))
    return sum(
        1
        for images in itertools.permutations(identity)
        if sum(a != b for a, b in zip(images, identity)) == r
    )


def count_at_radius(m: int, r: int) -> int:
    """C(m, r) * D_r, with the derangement number D_r = sum_k (-1)^k r!/k!."""
    if r < 0 or r > m:
        return 0
    derangements = sum((-1) ** k * math.factorial(r) // math.factorial(k) for k in range(r + 1))
    return math.comb(m, r) * derangements


def compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Images of f . g, that is i -> f(g(i)), from the image tuples of f and g."""
    if len(f) != len(g):
        raise DegreeMismatchError("cannot compose permutations of unequal degree")
    return tuple(f[j - 1] for j in g)


def inverse(f: tuple[int, ...]) -> tuple[int, ...]:
    """Images of the inverse of the permutation with images ``f``."""
    return tuple(sorted(range(1, len(f) + 1), key=lambda i: f[i - 1]))


@dataclass(frozen=True)
class GsoData:
    """Gram-Schmidt orthogonalization with exact rational entries.

    ``ortho[i]`` is b*_i, ``mu[i][j]`` (j < i) the projection coefficient of
    row i onto b*_j, and ``normsq[i]`` = ||b*_i||^2.
    """

    ortho: tuple[tuple[Fraction, ...], ...]
    mu: tuple[tuple[Fraction, ...], ...]
    normsq: tuple[Fraction, ...]


def gso(b: Basis) -> GsoData:
    """Exact rational Gram-Schmidt of the rows of ``b``.

    Raises DependentRowsError as soon as some b*_i collapses to zero.
    """
    ortho: list[tuple[Fraction, ...]] = []
    mu: list[tuple[Fraction, ...]] = []
    normsq: list[Fraction] = []
    for i, row in enumerate(b.rows):
        vec = [Fraction(x) for x in row]
        coeffs = []
        for j in range(i):
            c = _dot(row, ortho[j]) / normsq[j]
            coeffs.append(c)
            vec = [v - c * o for v, o in zip(vec, ortho[j])]
        nsq = _dot(vec, vec)
        if nsq == 0:
            raise DependentRowsError(f"row {i} depends on rows above it")
        ortho.append(tuple(vec))
        mu.append(tuple(coeffs))
        normsq.append(nsq)
    return GsoData(tuple(ortho), tuple(mu), tuple(normsq))


def solve_coefficients(b: Basis, v: tuple[int, ...]) -> list[Fraction] | None:
    """Rational x with x.B = v, or None when v is outside the row space."""
    gram = [
        [Fraction(sum(p * q for p, q in zip(r, s))) for s in b.rows] for r in b.rows
    ]
    rhs = [Fraction(sum(p * q for p, q in zip(row, v))) for row in b.rows]
    m = b.m
    # Gaussian elimination on the (always invertible) Gram matrix.
    for col in range(m):
        piv = next(i for i in range(col, m) if gram[i][col] != 0)
        gram[col], gram[piv] = gram[piv], gram[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / gram[col][col]
        gram[col] = [x * inv for x in gram[col]]
        rhs[col] *= inv
        for i in range(m):
            if i != col and gram[i][col] != 0:
                factor = gram[i][col]
                gram[i] = [x - factor * y for x, y in zip(gram[i], gram[col])]
                rhs[i] -= factor * rhs[col]
    x = rhs
    # Residual check: x.B must reproduce v exactly (v could be off-space).
    for j in range(b.n):
        if sum(x[i] * b.rows[i][j] for i in range(m)) != v[j]:
            return None
    return x


def lattice_contains(b: Basis, v: tuple[int, ...]) -> bool:
    x = solve_coefficients(b, v)
    return x is not None and all(c.denominator == 1 for c in x)


def same_lattice_oracle(a: Basis, b: Basis) -> bool:
    """Mutual row membership plus equal Gram determinants."""
    if a.n != b.n or a.m != b.m:
        return False
    if _gram_det_bareiss(a) != _gram_det_bareiss(b):
        return False
    return all(lattice_contains(b, row) for row in a.rows) and all(
        lattice_contains(a, row) for row in b.rows
    )


def _bareiss_det(mat: list[list[int]]) -> int:
    """Fraction-free determinant of a square integer matrix."""
    m = [row[:] for row in mat]
    size = len(m)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def _gram_det_bareiss(b: Basis) -> int:
    """Reference det(B.B^T).  Zero iff the rows are dependent."""
    return _bareiss_det([[_dot(r, s) for s in b.rows] for r in b.rows])


def reference_metrics(b: Basis) -> BasisMetrics:
    """``metrics`` of a fresh twin of ``b``, which carries no determinant,
    after checking that the ``det_lattice`` of ``b`` itself (carried, when
    ``b`` carries one) is the reference determinant of its rows."""
    assert metrics(b).det_lattice == _sqrt(_gram_det_bareiss(b))
    return metrics(Basis(b.rows))


def eager_metrics(b: Basis) -> tuple[Decimal, ...]:
    """(shortest, longest, log10_weight, det_lattice) of ``b``, all computed
    at once as ``metrics`` did before its values became lazy: the reference
    for what each ``BasisMetrics`` value computes on first read."""
    normsqs = [b.row_normsq(i) for i in range(b.m)]
    log10_weight = _REAL.divide(
        sum((_log10(nsq) for nsq in normsqs), Decimal(0)), Decimal(2)
    )
    return (
        _sqrt(min(normsqs)),
        _sqrt(max(normsqs)),
        log10_weight,
        _sqrt(_gram_det_bareiss(b)),
    )


def counting(calls: Counter, name: str, fn):
    """``fn`` wrapped to count its calls in ``calls[name]``, for monkeypatch."""

    def wrapped(*args):
        calls[name] += 1
        return fn(*args)

    return wrapped


@contextlib.contextmanager
def recursion_headroom(frames: int):
    """Run the block under a recursion limit ``frames`` above the stack depth
    it starts at, which counts the test runner's frames too."""
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def _is_lll_reduced_fraction(b: Basis, params: LllParams = DEFAULT_PARAMS) -> bool:
    """Reference LLL check: |mu_ij| <= 1/2 and the Lovasz condition on the
    exact rational Gram-Schmidt data."""
    g = gso(b)
    half = Fraction(1, 2)
    for i in range(1, b.m):
        if any(abs(c) > half for c in g.mu[i]):
            return False
        mu = g.mu[i][i - 1]
        if g.normsq[i] < (params.alpha - mu * mu) * g.normsq[i - 1]:
            return False
    return True


def _hnf_echelon(rows: list[list[int]]) -> list[list[int]]:
    """Reference row-style HNF by xgcd row elimination.  Exact everywhere,
    but intermediate entries can blow up on large square inputs."""
    m, n = len(rows), len(rows[0])
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, m):
            if rows[i][c] == 0:
                continue
            a, bb = rows[r][c], rows[i][c]
            x, y, g = _xgcd(a, bb)
            u, v = -(bb // g), a // g
            rows[r], rows[i] = (
                [x * p + y * q for p, q in zip(rows[r], rows[i])],
                [u * p + v * q for p, q in zip(rows[r], rows[i])],
            )
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        pivot = rows[r][c]
        for i in range(r):
            q = rows[i][c] // pivot
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
    if r < m:
        raise DependentRowsError("rows span a lattice of lower rank")
    return rows


def echelon_reference(b: Basis) -> tuple[list[int], Fraction, list[list[Fraction]]]:
    """Reduced row echelon form of B over the rationals: the pivot columns P
    (fewer than m when the rows are dependent), det(B_P) as the signed
    product of the pivots met, and the rows of the form, which for
    independent rows are B_P^-1 * B."""
    rows = [[Fraction(x) for x in row] for row in b.rows]
    pivots: list[int] = []
    det = Fraction(1)
    for c in range(b.n):
        r = len(pivots)
        k = next((i for i in range(r, b.m) if rows[i][c]), None)
        if k is None:
            continue
        if k != r:
            rows[r], rows[k] = rows[k], rows[r]
            det = -det
        pivot = rows[r][c]
        det *= pivot
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(b.m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots, det, rows


def _enumerate_box_python(b: Basis, bound: int) -> tuple[tuple[int, ...], int]:
    """Reference enumeration: first (lex-smallest) coefficient vector of
    minimal nonzero norm.  Arbitrary-precision, no numpy."""
    gram = [[_dot(r, s) for s in b.rows] for r in b.rows]
    best_sq = None
    best_coeffs = None
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=b.m):
        if not any(coeffs):
            continue
        sq = 0
        for i, ci in enumerate(coeffs):
            if ci == 0:
                continue
            gi = gram[i]
            sq += ci * ci * gi[i]
            for j in range(i + 1, b.m):
                if coeffs[j]:
                    sq += 2 * ci * coeffs[j] * gi[j]
        if best_sq is None or sq < best_sq:
            best_sq, best_coeffs = sq, coeffs
    return best_coeffs, best_sq


def _gso_row_reference(rows, d: list[int], lam: list[list[int]], k: int) -> None:
    """Row k of the integral GSO (Cohen 1993, Alg. 2.6.7), rows 0..k-1 done."""
    for j in range(k + 1):
        u = _dot(rows[k], rows[j])
        for i in range(j):
            u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
        if j < k:
            lam[k][j] = u
        elif u == 0:
            raise DependentRowsError(f"row {k} depends on rows above it")
        else:
            d[k + 1] = u


def lll_reduce_reference(b: Basis, params: LllParams = DEFAULT_PARAMS) -> Basis:
    """Swap-based LLL on the integral d/lam data, in plain loops."""
    m = b.m
    rows = [list(r) for r in b.rows]
    p, q = params.alpha.numerator, params.alpha.denominator

    d = [1] * (m + 1)
    lam = [[0] * m for _ in range(m)]

    def size_reduce(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > d[l + 1]:
            # nearest integer to mu_kl = lam[k][l] / d[l+1]
            r = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            rows[k] = [a - r * c for a, c in zip(rows[k], rows[l])]
            lam[k][l] -= r * d[l + 1]
            for i in range(l):
                lam[k][i] -= r * lam[l][i]

    def swap(k: int, kmax: int) -> None:
        rows[k], rows[k - 1] = rows[k - 1], rows[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lam_k = lam[k][k - 1]
        new_d = (d[k - 1] * d[k + 1] + lam_k * lam_k) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lam_k * t) // d[k]
            lam[i][k - 1] = (new_d * t + lam_k * lam[i][k]) // d[k + 1]
        d[k] = new_d

    _gso_row_reference(rows, d, lam, 0)
    kmax = 0
    k = 1
    while k < m:
        if k > kmax:
            kmax = k
            _gso_row_reference(rows, d, lam, k)
        size_reduce(k, k - 1)
        # Lovasz, cross-multiplied by q * d[k] * d[k-1] > 0.
        lam_k = lam[k][k - 1]
        if q * (d[k - 1] * d[k + 1] + lam_k * lam_k) < p * d[k] * d[k]:
            swap(k, kmax)
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return Basis(rows)


def _seed(*parts) -> int:
    """The seed of ``derive_seed``'s docstring: blake2b over the parts
    joined by U+001F, an int rendered by ``str`` and any other part by
    ``repr``, the 8-byte digest read big-endian."""
    text = "\x1f".join(str(p) if type(p) is int else repr(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def _seeded(*parts) -> random.Random:
    return random.Random(_seed(*parts))


def _sphere_order(m: int, r: int, rng: random.Random) -> list[int]:
    """A draw from the sphere of radius r in S_m as a 0-based row order:
    a sorted r-subset of the positions, then shuffles of it until no
    position keeps its row.  Radius 0 draws nothing."""
    order = list(range(m))
    if r:
        positions = sorted(rng.sample(range(m), r))
        shuffled = positions[:]
        while True:
            rng.shuffle(shuffled)
            if all(a != c for a, c in zip(shuffled, positions)):
                break
        for pos, img in zip(positions, shuffled):
            order[pos] = img
    return order


def _right_order(m: int, rng: random.Random) -> list[int]:
    """A right permutation as a 0-based row order: a radius drawn from
    (m/2, m], then a sphere draw."""
    return _sphere_order(m, rng.randint(m // 2 + 1, m), rng)


def sampled_shortest_sq(
    b: Basis, radii, n_samples: int, alpha: LllParams, seed: int
) -> dict[int, list[int]]:
    """Per radius, the least squared row norm of each of ``n_samples``
    reduced copies of ``b``.  Copy i at radius r draws from seed parts
    (seed, "sweep", r, i): a sorted r-subset of the row positions, then
    shuffles of it until no position keeps its row; row ``pos`` of the
    copy is row ``img`` of ``b`` for each pair, every other row stays."""
    out = {}
    for r in radii:
        lengths = []
        for i in range(n_samples):
            order = _sphere_order(b.m, r, _seeded(seed, "sweep", r, i))
            copy = lll_reduce_reference(Basis([b.rows[j] for j in order]), alpha)
            lengths.append(min(_dot(row, row) for row in copy.rows))
        out[r] = lengths
    return out


def _key(b: Basis) -> tuple[int, int, int]:
    """Least squared row norm, their product, the greatest."""
    sq = [_dot(row, row) for row in b.rows]
    return min(sq), math.prod(sq), max(sq)


def hill_climb_reference(
    b0: Basis, r0: int, rstep: int, k: int, max_steps: int, alpha: LllParams,
    target: Decimal, seed: int,
) -> tuple[list[tuple[tuple[int, ...], Basis, bool]], Basis]:
    """The fixed-radius (``rstep`` 0) or variable-radius walk from the
    reduced ``b0``: each step's (images, basis, improved) and the best basis.

    Step i draws k permutations of radius min(m, r0 + (i-1) * rstep), the
    j-th from seed parts (seed, "hc", i, j), reduces every permuted copy of
    the current basis and moves to the first copy of least key, uphill or
    not; a step improves when that key is below the best so far.  The walk
    stops once the best shortest row is at most ``target``."""
    current = best = lll_reduce_reference(b0, alpha)
    best_key = _key(best)
    steps = []
    for i in range(1, max_steps + 1):
        if _sqrt(best_key[0]) <= target:
            break
        r = min(b0.m, r0 + (i - 1) * rstep)
        orders = [_sphere_order(b0.m, r, _seeded(seed, "hc", i, j)) for j in range(k)]
        copies = [
            lll_reduce_reference(Basis([current.rows[o] for o in order]), alpha)
            for order in orders
        ]
        keys = [_key(c) for c in copies]
        j = keys.index(min(keys))
        current, improved = copies[j], keys[j] < best_key
        if improved:
            best, best_key = current, keys[j]
        steps.append((tuple(o + 1 for o in orders[j]), current, improved))
    return steps, best


def _block_sizes(m: int, k: int) -> list[int]:
    """k - 1 blocks of ceil(m/k) rows and the rest last; an even split,
    the larger blocks first, when that leaves the last below 2 rows."""
    beta = -(-m // k)
    last = m - (k - 1) * beta
    if k == 1 or last >= 2:
        return [beta] * (k - 1) + [last]
    base, rem = divmod(m, k)
    return [base + 1] * rem + [base] * (k - rem)


def ldsf_run_reference(
    b: Basis, servers: int, inner_iters: int, outer_iters: int, alpha: LllParams,
    target: Decimal | None, seed: int,
) -> tuple[list[tuple[tuple[int, ...], Basis]], Basis]:
    """Each LDSF round's (images, fused basis) and the best fused basis.

    Round (outer, inner) shuffles the row positions with seed parts (seed,
    "ldsf", outer, inner, "cut") and cuts them into ``_block_sizes`` blocks,
    reduces each block, joins the blocks in order, and rearranges the rows
    by a right permutation from (seed, "ldsf", outer, inner, "mix"): a
    radius drawn from (m/2, m], then a sphere draw.  The best basis is the
    first of least shortest row.  An outer pass ends the run when that row
    is at most ``target``, and otherwise drops the block count by one."""
    m, k, current = b.m, servers, b
    best, best_sq, rounds = b, None, []
    for outer in range(1, outer_iters + 1):
        for inner in range(1, inner_iters + 1):
            order = list(range(m))
            _seeded(seed, "ldsf", outer, inner, "cut").shuffle(order)
            joined, at = [], 0
            for size in _block_sizes(m, k):
                block = Basis([current.rows[i] for i in order[at : at + size]])
                joined += lll_reduce_reference(block, alpha).rows
                at += size
            images = [o + 1 for o in _right_order(m, _seeded(seed, "ldsf", outer, inner, "mix"))]
            current = Basis([joined[i - 1] for i in images])
            fused_sq = _key(current)[0]
            if best_sq is None or fused_sq < best_sq:
                best, best_sq = current, fused_sq
            rounds.append((tuple(images), current))
        if target is not None and _sqrt(best_sq) <= target:
            break
        k = max(1, k - 1)
    return rounds, best


def sigma_stage_reference(
    b: Basis, servers: int, sample_n: int, inner_iters: int, outer_iters: int,
    alpha: LllParams, target: Decimal | None, seed: int, rng: random.Random,
) -> tuple[list[list[tuple[tuple[int, ...], Basis]]], Basis]:
    """The rounds of each LDSF run of a sigma stage, and the final basis the
    stage keeps.  Run i starts from the rows of b in a right order drawn
    from ``rng``, one run after another, and takes seed parts (seed,
    "sigma", i); the stage keeps the first final basis of least key."""
    runs = []
    for i in range(sample_n):
        start = Basis([b.rows[o] for o in _right_order(b.m, rng)])
        rounds, _ = ldsf_run_reference(
            start, servers, inner_iters, outer_iters, alpha, target, _seed(seed, "sigma", i)
        )
        runs.append(rounds)
    finals = [rounds[-1][1] for rounds in runs]
    keys = [_key(f) for f in finals]
    return runs, finals[keys.index(min(keys))]


def run_pipeline_reference(b0: Basis, stages, seed: int) -> tuple[list[tuple], Basis]:
    """Each stage's (index, kind, blocks, sample_n, before, after, llb, lub)
    and the final basis, for a feasible list of ``StageSpec`` values.

    Stage i reads only its kind's fields.  An lll stage reduces the basis
    at its alpha.  An ldsf stage is one LDSF run with seed parts (seed,
    "stage", i), and a sigma stage ``sigma_stage_reference`` with them and
    the generator of (seed, "stage", i, "perms"); each hands on the final
    basis of its (kept) run.  llb and lub are the least shortest row and
    the least longest row over every fused basis of the stage's runs, or
    the output's own after an lll stage.  ``before`` is the previous
    stage's ``after``, b0's for the first."""
    current, before, out = b0, reference_metrics(b0), []
    for i, stage in enumerate(stages, start=1):
        if stage.kind == "lll":
            current = lll_reduce_reference(current, stage.alpha)
            fused = [current]
        else:
            loops = (stage.inner_iters, stage.outer_iters, stage.alpha, stage.target_bound)
            stage_seed = _seed(seed, "stage", i)
            if stage.kind == "ldsf":
                runs = [ldsf_run_reference(current, stage.blocks, *loops, stage_seed)[0]]
                current = runs[0][-1][1]
            else:
                runs, current = sigma_stage_reference(
                    current, stage.blocks, stage.sample_n, *loops, stage_seed,
                    _seeded(seed, "stage", i, "perms"),
                )
            fused = [basis for rounds in runs for _, basis in rounds]
        after = reference_metrics(current)
        keys = [_key(f) for f in fused]
        llb, lub = _sqrt(min(k[0] for k in keys)), _sqrt(min(k[2] for k in keys))
        out.append((i, stage.kind, stage.blocks, stage.sample_n, before, after, llb, lub))
        before = after
    return out, current


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.col)

    def skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            if self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def expect(self, char: str) -> None:
        got = self.peek()
        if got != char:
            shown = "end of input" if got is None else repr(got)
            raise self.error(f"expected {char!r}, found {shown}")
        self.pos += 1
        self.col += 1

    def integer(self) -> int:
        self.skip_space()
        start = self.pos
        start_col = self.col
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
            self.col += 1
        digits = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
            self.col += 1
        if self.pos == digits:
            self.col = start_col
            raise self.error("expected an integer")
        return int(Decimal(self.text[start : self.pos]))


def parse_lattice_reference(text: str | bytes) -> LatticeFile:
    """The lattice-format reader before the token regex, a scanner method
    call per character: the reference for ``parse_lattice``."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc.reason}", 1, 1) from exc
    scanner = _Scanner(text)
    scanner.expect("[")
    rows: list[list[int]] = []
    while True:
        nxt = scanner.peek()
        if nxt == "[":
            row_line, row_col = scanner.line, scanner.col
            scanner.expect("[")
            row: list[int] = []
            while scanner.peek() != "]":
                if scanner.peek() is None:
                    raise scanner.error("row is not closed")
                row.append(scanner.integer())
            scanner.expect("]")
            if not row:
                raise scanner.error("row has no entries")
            if rows and len(row) != len(rows[0]):
                raise ParseError(
                    f"row {len(rows) + 1} has {len(row)} entries, expected {len(rows[0])}",
                    row_line,
                    row_col,
                )
            rows.append(row)
        elif nxt == "]":
            scanner.expect("]")
            break
        else:
            shown = "end of input" if nxt is None else repr(nxt)
            raise scanner.error(f"expected a row or ']', found {shown}")
    if scanner.peek() is not None:
        raise scanner.error("trailing content after closing ']'")
    if not rows:
        raise ParseError("no rows", 1, 1)
    if len(rows) > len(rows[0]):
        raise RankDeficientError(
            f"{len(rows)} rows in dimension {len(rows[0])} cannot be independent"
        )
    basis = Basis(rows)
    if not _gram_det_bareiss(basis):
        raise RankDeficientError("rows are linearly dependent")
    return LatticeFile(basis=basis)
