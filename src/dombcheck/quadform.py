"""The p = x^2 + 3y^2 decomposition of a prime p = 1 (mod 3)."""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .padic import is_prime

__all__ = ["NotRepresentable", "QuadDecomposition", "decompose_x2_3y2", "decompose_known_prime"]


class NotRepresentable(ValueError):
    """The prime is not x^2 + 3y^2 with x, y >= 1: it is 2 mod 3, or it is
    3 = 0^2 + 3*1^2."""


@dataclass(frozen=True)
class QuadDecomposition:
    x: int
    y: int


def decompose_x2_3y2(p: int) -> QuadDecomposition:
    """Write a prime p = 1 (mod 3) as x^2 + 3y^2 with x, y >= 1.

    Raises ValueError when p is not prime, then descends as
    decompose_known_prime does.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return decompose_known_prime(p)


def decompose_known_prime(p: int) -> QuadDecomposition:
    """decompose_x2_3y2 for a p already proved prime (as PrimeContext
    does), without testing p again.

    Cornacchia's descent: take the root of -3 mod p lying in (p/2, p),
    read off a primitive cube root of unity, run the Euclidean remainder
    sequence down past sqrt(p), and the first remainder below it is x.  The
    representation is unique up to signs, and the identity is asserted
    before returning.
    """
    if p == 3:
        raise NotRepresentable("3 = 0^2 + 3*1^2 has x = 0, and x, y >= 1 are asked for")
    if p % 3 != 1:
        raise NotRepresentable(f"{p} is not a prime of the form x^2 + 3y^2")
    # For a primitive cube root of unity w, (2w + 1)^2 = 4(w^2 + w + 1) - 3 = -3.
    g = 2
    while (w := pow(g, (p - 1) // 3, p)) == 1:
        g += 1
    r = (2 * w + 1) % p
    r = max(r, p - r)
    bound = isqrt(p)
    a, b = p, r
    while b > bound:
        a, b = b, a % b
    x = b
    rest = p - x * x
    if rest % 3 != 0:
        raise NotRepresentable(f"descent failed for {p}")
    y = isqrt(rest // 3)
    if x * x + 3 * y * y != p or x < 1 or y < 1:
        raise NotRepresentable(f"descent failed for {p}")
    return QuadDecomposition(x=x, y=y)
