"""Permutations of basis rows and the samplers that walk S_m.

The radius of a permutation is its Hamming distance from the identity,
i.e. its number of non-fixed points.  Radii split S_m into left
(r <= m/2) and right (r > m/2) permutations.  ``sample_at_radius`` draws
uniformly from the sphere of one radius, ``sample_right`` from the right
half, and ``psl2_permutations`` from PSL(2,p) acting on the projective
line; ``apply`` reorders the rows of a basis by a permutation.
"""

from __future__ import annotations

import math
import random

from .core import Basis, Record, _exact_ints, _quoted
from .errors import (
    DegreeMismatchError,
    DegreeTooSmallError,
    InfeasibleRadiusError,
    NotPrimeError,
)


class Permutation(Record):
    """Element of S_m in Cartesian form: images[i-1] = pi(i), 1-based values."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", _exact_ints(self.images, "permutation image"))
        m = len(self.images)
        if sorted(self.images) != list(range(1, m + 1)):
            raise ValueError(f"not a bijection on 1..{m}: {_quoted(self.images)}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(tuple(range(1, m + 1)))


def check_radius(m: int, r: int) -> None:
    """InfeasibleRadiusError unless some permutation of degree m moves
    exactly r points, that is unless r = 0 or 2 <= r <= m."""
    if r == 1 or r < 0 or r > m:
        raise InfeasibleRadiusError(
            f"no permutation of degree {_quoted(m)} moves exactly {_quoted(r)} points"
        )


def sample_at_radius(m: int, r: int, rng: random.Random) -> Permutation:
    """Uniform draw from the sphere of radius r around the identity.

    Picks an r-subset of positions uniformly, then a uniform derangement of
    it by rejection from random shuffles (expected < e retries).
    """
    check_radius(m, r)
    if r == 0:
        return Permutation.identity(m)
    positions = sorted(rng.sample(range(m), r))
    shuffled = positions[:]
    while True:
        rng.shuffle(shuffled)
        if all(a != b for a, b in zip(shuffled, positions)):
            break
    images = list(range(1, m + 1))
    for pos, img in zip(positions, shuffled):
        images[pos] = img + 1
    return Permutation(tuple(images))


def check_right_degree(m: int) -> None:
    """DegreeTooSmallError unless right sampling takes degree m (m >= 3)."""
    if m < 3:
        raise DegreeTooSmallError(f"right sampling needs degree >= 3, got {_quoted(m)}")


def sample_right(m: int, rng: random.Random) -> Permutation:
    """Uniform radius in (m/2, m], then a uniform permutation at that radius."""
    check_right_degree(m)
    r = rng.randint(m // 2 + 1, m)
    return sample_at_radius(m, r, rng)


def check_prime(p: int) -> None:
    """NotPrimeError unless p is prime, as PSL(2,p) sampling needs."""
    if p < 2 or any(p % f == 0 for f in range(2, math.isqrt(p) + 1)):
        raise NotPrimeError(f"{_quoted(p)} is not prime")


def _moebius_permutation(a: int, b: int, c: int, d: int, p: int) -> Permutation:
    """Action of x -> (ax+b)/(cx+d) on the projective line over F_p.

    Points are indexed 1..p+1: index i <= p is the field element i-1, and
    index p+1 is the point at infinity.
    """
    infinity = p + 1
    images = []
    for i in range(1, p + 1):
        x = i - 1
        den = (c * x + d) % p
        if den == 0:
            images.append(infinity)
        else:
            images.append((a * x + b) * pow(den, -1, p) % p + 1)
    if c % p == 0:
        images.append(infinity)
    else:
        images.append(a * pow(c, -1, p) % p + 1)
    return Permutation(tuple(images))


def psl2_permutations(p: int, count: int, rng: random.Random) -> list[Permutation]:
    """``count`` independent uniform elements of PSL(2,p) acting on the
    projective line, as permutations of degree p+1.

    Sampling draws matrices (a,b,c,d) until ad-bc is a nonzero square; each
    group element corresponds to the same number of such matrices, so the
    induced distribution is uniform.
    """
    check_prime(p)
    out = []
    while len(out) < count:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        det = (a * d - b * c) % p
        if det == 0:
            continue
        if p > 2 and pow(det, (p - 1) // 2, p) != 1:
            continue
        out.append(_moebius_permutation(a, b, c, d, p))
    return out


def apply(b: Basis, p: Permutation) -> Basis:
    """Row reordering: output row i is input row p(i).  Same lattice."""
    if p.degree != b.m:
        raise DegreeMismatchError(
            f"permutation degree {p.degree} != basis rank {b.m}"
        )
    return Basis._built(tuple(b.rows[img - 1] for img in p.images), like=b)
