"""Output checks that share no code with latforge.

Knapsack inputs make lattice preservation cheap to decide: the lattice of
rows (e_i | w_i) is {(x, x.w) : x in Z^m}, so a basis of m rows spans exactly
that lattice iff every row (x, y) has y == x.w and the m x m matrix of the
x parts has determinant +-1.  LLL conditions are checked with an exact
rational Gram-Schmidt written here.
"""

from __future__ import annotations

from fractions import Fraction


def rows_of(entries: list[list[str]]) -> list[list[int]]:
    return [[int(x) for x in row] for row in entries]


def det(matrix: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    a = [row[:] for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def spans_knapsack_lattice(rows: list[list[int]], weights: list[int]) -> bool:
    m = len(weights)
    if len(rows) != m or any(len(r) != m + 1 for r in rows):
        return False
    if any(r[m] != sum(x * w for x, w in zip(r[:m], weights)) for r in rows):
        return False
    return abs(det([r[:m] for r in rows])) == 1


def is_lll_reduced(rows: list[list[int]], alpha: Fraction) -> bool:
    """Size reduction (|mu_ij| <= 1/2) and the Lovasz condition, exactly."""
    # Fractions from the start: int / int would be a float division, and a
    # Lovasz condition that holds with equality would then fail by rounding.
    gram = [[Fraction(sum(p * q for p, q in zip(r, s))) for s in rows] for r in rows]
    m = len(rows)
    mu = [[Fraction(0)] * m for _ in range(m)]
    bstar = []
    for i in range(m):
        for j in range(i):
            mu[i][j] = (gram[i][j] - sum(mu[j][k] * mu[i][k] * bstar[k] for k in range(j))) / bstar[j]
        bstar.append(gram[i][i] - sum(mu[i][k] ** 2 * bstar[k] for k in range(i)))
        if bstar[i] == 0:
            return False
    if any(abs(mu[i][j]) > Fraction(1, 2) for i in range(m) for j in range(i)):
        return False
    return all(
        bstar[i] >= (alpha - mu[i][i - 1] ** 2) * bstar[i - 1] for i in range(1, m)
    )


def solve_integral(rows: list[list[int]], v: list[int]) -> bool:
    """Whether v is an integer combination of the (square, independent) rows."""
    n = len(rows)
    # Solve x.B = v as B^T x = v by Gauss-Jordan elimination over Q.
    a = [[Fraction(rows[j][i]) for j in range(n)] + [Fraction(v[i])] for i in range(n)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if a[i][col])
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return all(a[i][n].denominator == 1 for i in range(n))
