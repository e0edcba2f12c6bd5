"""Per-prime state: one PrimeContext holds everything derived from a prime p.

The context validates p once and builds each field on first use: the
sorted quadratic residues, which count the residues in 1..x by binary
search, and a product tree of 1..p-1 (Bernstein, "Fast multiplication and
its applications", 2008) that answers x! mod p for many x in one vectorised
query.  The block tables, h(-p) and the norm-form representations are kept
here too, filled in by the products and classnum modules that compute them.
Both O(p) kernels reduce mod p by _reduce, which avoids hardware division.

prime_context(p) keeps the latest context in a single slot.  A scan works
on one prime at a time, so every lookup inside a verifier hits that slot.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .arith import is_prime

__all__ = ["P_LIMIT", "PrimeContext", "prime_context"]

# int64 stays exact for products of two residues and for j*j below this bound
P_LIMIT = 1 << 31


class PrimeContext:
    """Per-prime state for an odd prime p < 2**31."""

    def __init__(self, p: int) -> None:
        if p >= P_LIMIT:
            raise ValueError(f"p must be below 2**31, got {p}")
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        self.p = p
        # n -> PartialProductTable of the n blocks cut at floor(k*p/n),
        # for equal and floor-cut blocks alike; filled by products
        self.tables: dict = {}
        # h(-p) by Dirichlet's sum, a ClassNumberResult filled by classnum
        self.class_number = None
        # q -> Representation of 4*p**h(-q), filled by classnum
        self.representations: dict = {}

    @cached_property
    def squares(self) -> np.ndarray:
        """The nonzero squares mod p in ascending order, each once."""
        p = self.p
        # j and p - j have the same square, so j <= (p-1)/2 gives each once;
        # being distinct values below p, they sort by marking
        raw = np.arange(1, (p + 1) // 2, dtype=np.int64)
        raw *= raw
        marks = np.zeros(p, dtype=bool)
        marks[_reduce(raw, p)] = True
        del raw
        squares = np.flatnonzero(marks)
        squares.flags.writeable = False
        return squares

    def residue_counts(self, x) -> np.ndarray:
        """How many quadratic residues lie in 1..x, elementwise for 0 <= x < p."""
        return np.searchsorted(self.squares, x, "right")

    @cached_property
    def _tree(self) -> list[np.ndarray]:
        """Entry k-1 holds level k: the products mod p of aligned runs of
        2**k leaves, the leaves being 1..p-1.  Leaf x is x, so level 0 is
        not stored (the tree takes about 8p bytes).  A level of odd length
        carries its last node up unpaired, as if padded with ones."""
        p = self.p
        level = np.arange(2, p, 2, dtype=np.int64)
        level *= level - 1
        levels = [_reduce(level, p)]
        while level.size > 1:
            n = level.size
            up = np.empty((n + 1) // 2, dtype=np.int64)
            pairs = up[:n // 2]
            np.multiply(level[0:n - 1:2], level[1::2], out=pairs)
            _reduce(pairs, p)
            if n & 1:
                up[-1] = level[-1]
            level = up
            levels.append(level)
        return levels

    def factorials(self, x) -> np.ndarray:
        """x! mod p for every entry 0 <= x < p of an integer array.

        The leaves 1..x are tiled by one tree node per set bit k of x: the
        node of level k whose run ends at leaf (x >> k) << k.
        """
        x = np.asarray(x, dtype=np.int64)
        out = np.where(x & 1, x, 1)
        for k, level in enumerate(self._tree, 1):
            node = x >> k
            out = np.where(node & 1, out * level[node - 1] % self.p, out)
        return out

    def range_products(self, lo, hi) -> np.ndarray:
        """Product of the integers lo..hi mod p, elementwise over arrays
        with 1 <= lo <= hi + 1: 1 for an empty range, 0 when the range
        holds a multiple of p.

        Each product is F(hi) * F(lo - 1)**-1 with F(x) = x! mod p, all
        from one factorials() query: Wilson's theorem gives the reflection
        x! * (p-1-x)! == (-1)**(x+1), so F(x)**-1 == (-1)**(x+1) * F(p-1-x).
        """
        p = self.p
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        below = (lo - 1) % p
        f = self.factorials(np.concatenate((hi % p, p - 1 - below)))
        top, reflected = f[:below.size], f[below.size:]
        out = top * np.where(below & 1, reflected, p - reflected) % p
        out[hi // p > (lo - 1) // p] = 0
        return out

    def legendre(self, a: int) -> int:
        """Legendre symbol (a|p) by Euler's criterion."""
        t = pow(a, (self.p - 1) // 2, self.p)
        return -1 if t == self.p - 1 else t


_slot: PrimeContext | None = None
# the quotients of _reduce, kept and grown to powers of two: a buffer made
# afresh per call, or per slightly larger p, faults in all its pages anew
_quotient = np.empty(0, dtype=np.int64)


def _reduce(a: np.ndarray, p: int) -> np.ndarray:
    """a %= p in place for an int64 array, returned: about twice as fast as
    %, since numpy's // by a scalar uses libdivide and % a hardware divide."""
    global _quotient
    if _quotient.size < a.size:
        _quotient = np.empty(1 << (a.size - 1).bit_length(), dtype=np.int64)
    quotient = _quotient[:a.size]
    np.floor_divide(a, p, out=quotient)
    quotient *= p
    a -= quotient
    return a


def prime_context(p: int) -> PrimeContext:
    """The context of p.  One slot: asking for another prime replaces it."""
    global _slot
    if _slot is None or _slot.p != p:
        _slot = PrimeContext(p)
    return _slot
