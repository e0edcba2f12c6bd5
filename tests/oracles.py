"""Naive reference implementations used only to cross-check the package.

Everything here trades speed for obviousness: trial-division primality,
set-membership residue symbols, literal range products.  Nothing imports
from gaussprod, so agreement between the two is meaningful.
"""

import math
from fractions import Fraction
from functools import cache


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


@cache
def _naive_squares(p: int) -> frozenset:
    return frozenset(x * x % p for x in range(1, p))


def naive_legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if a in _naive_squares(p) else -1


def naive_block_ranges(p: int, q: int, generalized: bool):
    if generalized:
        out = []
        for k in range(1, q + 1):
            lo = ((k - 1) * p) // q + 1
            hi = (k * p) // q if k < q else p - 1
            out.append((lo, hi))
        return out
    m = (p - 1) // q
    return [((k - 1) * m + 1, k * m) for k in range(1, q + 1)]


def block_cuts(p: int, n: int) -> list[int]:
    """The n + 1 cut points c_0..c_n of n blocks of 1..p-1: c_k = k*p//n
    for k < n, and c_n = p - 1."""
    return [k * p // n for k in range(n)] + [p - 1]


def naive_partial_products(p: int, q: int, generalized: bool = False):
    vals = []
    for lo, hi in naive_block_ranges(p, q, generalized):
        vals.append(math.prod(range(lo, hi + 1)) % p)
    return vals


def naive_block_counts(p: int, q: int, generalized: bool = False):
    squares = {x * x % p for x in range(1, p)}
    res, nonres = [], []
    for lo, hi in naive_block_ranges(p, q, generalized):
        r = sum(1 for v in range(lo, hi + 1) if v in squares)
        res.append(r)
        nonres.append(hi - lo + 1 - r)
    return res, nonres


def naive_class_number(p: int) -> int:
    """Reduced-form count for discriminant -p, p == 3 (mod 4)."""
    count = 0
    for a in range(1, math.isqrt(p // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b + p) % (4 * a):
                continue
            c = (b * b + p) // (4 * a)
            if c < a or (a == c and b < 0):
                continue
            count += 1
    return count


def naive_class_number_dirichlet(p: int) -> Fraction:
    s = sum(naive_legendre(a, p) for a in range(1, (p - 1) // 2 + 1))
    return Fraction(s, 2 - naive_legendre(2, p))


def naive_lemma1_sum(p: int, q: int) -> int:
    """Lemma 1's weighted sum of (a|p) * (q - 1 - 2*floor(a*q/p)), 0 < a < p/2."""
    return sum(naive_legendre(a, p) * (q - 1 - 2 * (a * q // p))
               for a in range(1, (p - 1) // 2 + 1))


def naive_representations(p: int, q: int, h: int):
    """All (a, b) with a*a + q*b*b == 4*p**h, b > 0, a == 2 (mod q)."""
    target = 4 * p ** h
    out = []
    for b in range(1, math.isqrt(target // q) + 1):
        r = target - q * b * b
        s = math.isqrt(r)
        if s * s == r and s > 0:
            for a in (s, -s):
                if a % q == 2:
                    out.append((a, b))
    return out
