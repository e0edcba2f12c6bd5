"""Modular arithmetic primitives: primality, residue symbols, and prime generation.

Every list of primes comes from one sieve of Eratosthenes in segments of
_SEGMENT numbers, at every limit; congruence constraints are masks on its
output.  is_prime checks single inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CongruenceConstraint",
    "is_prime",
    "legendre",
    "primes_matching",
    "sieve_primes",
]

# numbers per sieve segment: a 1 MiB mark array
_SEGMENT = 1 << 20

# Witness set proving primality for every n < 3.317e24, hence all 64-bit inputs;
# its first four, 2, 3, 5 and 7, prove it below _SMALL_WITNESS_LIMIT
# (Pomerance, Selfridge and Wagstaff, 1980): every p < 2**31 and every q.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_WITNESS_LIMIT = 3_215_031_751

_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for all n below 3.3e24."""
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _TRIAL_PRIMES[-1] ** 2:
        return True     # a composite below 37**2 has a prime factor below 37
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES[:4] if n < _SMALL_WITNESS_LIMIT else _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) by Euler's criterion.  p must be an odd prime."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"legendre needs an odd prime modulus, got {p}")
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    if t == 1:
        return 1
    if t == p - 1:
        return -1
    # unreachable for prime p: Euler's criterion admits only +-1
    raise ArithmeticError(f"euler criterion gave {t} for a={a}, p={p}")


def _legendre(a: int, p: int) -> int:
    """legendre(a, p) without its checks, for an odd prime p the caller has
    checked or taken from the sieve."""
    t = pow(a, p // 2, p)
    return -1 if t == p - 1 else t


@dataclass(frozen=True)
class CongruenceConstraint:
    """Candidates must satisfy n == residue (mod modulus)."""

    modulus: int
    residue: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise ValueError(
                f"residue must lie in [0, {self.modulus}), got {self.residue}")


def sieve_primes(limit: int) -> np.ndarray:
    """All primes < limit, ascending, as int64.

    Each segment of _SEGMENT numbers is crossed off by the primes up to
    sqrt(limit), which come from this function at that smaller limit.
    """
    if limit <= 2:
        return np.empty(0, dtype=np.int64)
    small = sieve_primes(math.isqrt(limit - 1) + 1).tolist()
    out = []
    for lo in range(0, limit, _SEGMENT):
        hi = min(lo + _SEGMENT, limit)
        comp = np.zeros(hi - lo, dtype=bool)
        if lo == 0:
            comp[:2] = True
        for p in small:
            if p * p >= hi:
                break
            comp[max(p * p, -(-lo // p) * p) - lo:: p] = True
        out.append(np.flatnonzero(~comp) + lo)
    return np.concatenate(out).astype(np.int64, copy=False)


def primes_matching(limit: int, constraints=()) -> list[int]:
    """Ascending primes < limit satisfying every constraint.

    Contradictory constraints (e.g. even residue mod an even modulus plus
    oddness elsewhere) yield an empty list, not an error.
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    ps = sieve_primes(limit)
    for c in constraints:
        if c.modulus < limit:
            ps = ps[ps % c.modulus == c.residue]
        else:
            # every candidate is its own residue, and int64 may not hold c
            ps = ps[ps == c.residue] if c.residue < limit else ps[:0]
    return ps.tolist()
