"""Classic swap-based LLL reduction over exact integer arithmetic.

The working state keeps the Gram-Schmidt data in the all-integer form
d[i] = det(Gram(b_1..b_i)) and lam[i][j] = mu_ij * d[j+1], so every update
is an exact integer division and no rationals are materialized in the hot
loop.  The reduction parameter alpha is an exact Fraction; the Lovasz test
is a cross-multiplied integer comparison.

The recurrence and every rounding, swap and order are those of the plain
loop form that the tests keep as the reference.  Only interpreter work is
cut: a size-reduction test that changes nothing makes no call, and row and
lam updates run through ``map`` in C, not a Python loop per entry.

A swap of rows k-1 and k rewrites lam columns k-1 and k of every row i
below k, and a large reduction spends most of its time there.  With
x = lam[k][k-1], a = lam[i][k-1], c = lam[i][k] and s = x*(a + c), both new
entries are exact quotients by the old d[k] (Cohen 1993, Alg. 2.6.7):

    lam[i][k]   = (d[k+1]*a - x*c) / d[k]   = ((d[k+1] + x)*a - s) / d[k]
    lam[i][k-1] = (x*a + d[k-1]*c) / d[k]   = (s + (d[k-1] - x)*c) / d[k]

These are the reference's integers (it divides the second by d[k+1]) from
three products instead of four; at the 2,000-bit d of a 1000-bit knapsack
basis, a division costs about 2.4 products.
"""

from __future__ import annotations

import sys
from decimal import Decimal
from fractions import Fraction
from operator import add, sub

from .core import Basis, Record, _gso_row, _integral_gso, _quoted


class LllParams(Record):
    """Reduction parameter alpha, an exact rational in (1/4, 1).

    Strings such as "0.9999" or "9999/10000" are accepted and converted
    exactly; floats are rejected because their binary value is almost never
    the rational the caller meant.
    """

    alpha: Fraction

    def __post_init__(self):
        given = self.alpha
        if isinstance(given, float):
            raise TypeError("pass alpha as a Fraction, string, or integer ratio")
        shown = _quoted(given)
        out_of_range = ValueError(f"alpha must lie in (1/4, 1), got {shown}")
        # A decimal text is range-checked before any Fraction is built: the
        # Fraction of "1e999999999" has a billion-digit numerator.
        try:
            value = Decimal(given) if isinstance(given, str) else None
        except ArithmeticError:
            value = None
        if value is not None and value.is_finite() and not Decimal("0.25") < value < 1:
            raise out_of_range
        try:
            object.__setattr__(self, "alpha", Fraction(given))
        except (ValueError, ZeroDivisionError) as exc:
            # Fraction parses each digit group with int(), which Python caps
            # (since 3.10.7; an older interpreter has no cap and no getter).
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if isinstance(given, str) and 0 < limit < sum(map(str.isdigit, given)):
                raise ValueError(f"alpha text is too long (over {limit} digits): {shown}") from exc
            raise ValueError(f"alpha is not an exact rational: {shown}") from exc
        if not Fraction(1, 4) < self.alpha < 1:
            raise out_of_range


DEFAULT_PARAMS = LllParams(Fraction(3, 4))


def lll_reduce(b: Basis, params: LllParams = DEFAULT_PARAMS) -> Basis:
    """Swap-based LLL reduction of ``b``.

    The output generates the same lattice, is size-reduced (|mu_ij| <= 1/2)
    and satisfies the Lovasz condition with the exact rational alpha.
    Deterministic for a fixed input row order, and idempotent: reducing an
    already reduced basis performs no row operation at all.
    """
    m = b.m
    rows = [list(r) for r in b.rows]
    p, q = params.alpha.numerator, params.alpha.denominator

    d = [1] * (m + 1)
    lam = [[0] * m for _ in range(m)]

    def reduce_by(k: int, l: int, x: int, dl: int) -> None:
        # r: nearest integer to mu_kl = x / dl (x = lam[k][l], dl = d[l+1]);
        # mostly +-1, and then row l and its lam prefix go in unmultiplied.
        r = (2 * x + dl) // (2 * dl)
        lk, ll = lam[k], lam[l]
        op = add if r == -1 else sub
        if r == 1 or r == -1:
            row, prefix = rows[l], ll[:l]
        else:
            row, prefix = map(r.__mul__, rows[l]), map(r.__mul__, ll[:l])
        rows[k] = list(map(op, rows[k], row))
        lk[:l] = map(op, lk, prefix)
        lk[l] = x - r * dl

    _gso_row(rows, d, lam, 0)
    kmax = 0
    k = 1
    while k < m:
        if k > kmax:
            kmax = k
            _gso_row(rows, d, lam, k)
        lk, dk = lam[k], d[k]
        x = lk[k - 1]
        if 2 * abs(x) > dk:
            reduce_by(k, k - 1, x, dk)
            x = lk[k - 1]
        # Lovasz: d[k+1]/d[k] >= (p/q - lam^2/d[k]^2) * d[k]/d[k-1],
        # cross-multiplied by q * d[k] * d[k-1] > 0.
        dk_next = d[k + 1]
        num = d[k - 1] * dk_next + x * x
        if q * num < p * dk * dk:
            # swap rows k-1 and k; update d[k] and lam columns k-1, k below
            rows[k], rows[k - 1] = rows[k - 1], rows[k]
            lk[: k - 1], lam[k - 1][: k - 1] = lam[k - 1][: k - 1], lk[: k - 1]
            ax, bx = dk_next + x, d[k - 1] - x
            for li in lam[k + 1 : kmax + 1]:
                a, c = li[k - 1], li[k]
                s = x * (a + c)
                li[k] = (ax * a - s) // dk
                li[k - 1] = (s + bx * c) // dk
            d[k] = num // dk
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                x, dl = lk[l], d[l + 1]
                if 2 * abs(x) > dl:
                    reduce_by(k, l, x, dl)
            k += 1
    return Basis._built(tuple(map(tuple, rows)), like=b)


def is_lll_reduced(b: Basis, params: LllParams = DEFAULT_PARAMS) -> bool:
    """Exact check of size reduction (2|lam_kl| <= d[l+1]) and the Lovasz
    condition on the integral Gram-Schmidt data that ``lll_reduce`` uses."""
    d, lam = _integral_gso(b)
    p, q = params.alpha.numerator, params.alpha.denominator
    for k in range(1, b.m):
        if any(2 * abs(lam[k][l]) > d[l + 1] for l in range(k)):
            return False
        lam_k = lam[k][k - 1]
        if q * (d[k - 1] * d[k + 1] + lam_k * lam_k) < p * d[k] * d[k]:
            return False
    return True
