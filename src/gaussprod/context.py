"""Per-prime state: one PrimeContext holds everything derived from a prime p.

The context validates p once and builds each field on first use: the
residue index, which counts the residues in 1..x, and a product tree of
the lower half 1..(p-1)/2 (Bernstein, "Fast multiplication and its
applications", 2008).  One vectorised query of the tree walks it from both
ends, giving x! and y*(y+1)*...*(p-1)/2 mod p for many x and y; the upper
half mirrors the lower, since j == -(p - j).  The block tables, h(-p) and
the norm-form representations are kept here too, filled in by the products
and classnum modules that compute them.

The residue index is a bitmap of the nonzero squares mod p, 64 to a word,
with a rank directory of the set bits before each word: p/4 bytes kept, a
count in two gathers and a popcount.  _square_chunks yields j*j mod p for
j = 1..(p-1)/2, each residue once, in chunks of 2**16; the index marks
them, and the floor sum of Lemma 1 (classnum) streams them in O(2**16)
memory at every p < 2**31, as square_floor_sum streams the quotients
floor(j*j/p) for Dirichlet's h(-p).  Every O(p) kernel reduces mod p by
_reduce, which avoids hardware division.

prime_context(p) keeps the latest context in a single slot.  A scan works
on one prime at a time, so every lookup inside a verifier hits that slot.
"""

from __future__ import annotations

import weakref
from functools import cached_property

import numpy as np

from .arith import is_prime

__all__ = ["P_LIMIT", "PrimeContext", "prime_context"]

# int64 stays exact for products of two residues and for j*j below this bound
P_LIMIT = 1 << 31


class PrimeContext:
    """Per-prime state for an odd prime p < 2**31: the residue index and
    the half product tree, each built on first use, and the block tables,
    h(-p) and representations kept for p."""

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
    def residue_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(words, rank): bit x of the little-endian uint64 words is set
        exactly when x is a nonzero square mod p, and rank[w] is the number
        of set bits in words[:w].  p/4 bytes; the build marks a p-byte bool
        array, padded to whole words, and packs it."""
        p = self.p
        marks = np.zeros(-(-p // 64) * 64, dtype=bool)
        for chunk in _square_chunks(p):
            marks[chunk] = True
        words = np.packbits(marks, bitorder="little").view("<u8")
        del marks
        rank = np.zeros(words.size, dtype=np.int64)
        np.cumsum(np.bitwise_count(words[:-1]), out=rank[1:])
        words.flags.writeable = rank.flags.writeable = False
        return words, rank

    @property
    def has_residue_index(self) -> bool:
        """Whether the residue index is built."""
        return "residue_index" in vars(self)

    def residue_counts(self, x) -> np.ndarray:
        """How many quadratic residues lie in 1..x, elementwise for 0 <= x < p:
        the rank of x's word plus the set bits of that word up to bit x."""
        words, rank = self.residue_index
        x = np.asarray(x, dtype=np.int64)
        w = x >> 6
        return rank[w] + np.bitwise_count(words[w] << (63 - (x & 63)).astype(np.uint64))

    def square_floor_sum(self) -> int:
        """The sum of floor(j*j/p) over j = 1..(p-1)/2, in chunks of 2**16
        into the quotient buffer: O(2**16) memory.  j*j < 2**60 and the sum,
        below p**2/24 < 2**59, keep int64 exact at every p < 2**31."""
        p, half = self.p, (self.p - 1) // 2
        total = 0
        for start in range(1, half + 1, _quotient.size):
            j = np.arange(start, min(start + _quotient.size, half + 1), dtype=np.int64)
            j *= j
            total += int(np.floor_divide(j, p, out=_quotient[:j.size]).sum())
        return total

    @cached_property
    def _tree(self) -> tuple[np.ndarray, np.ndarray]:
        """(flat, offset): the product tree of the lower half 1..h,
        h = (p-1)/2, in one int64 array.  Level k >= 1 holds the products
        mod p of aligned runs of 2**k leaves, padded with ones, from
        flat[offset[k]]; a level of odd length is stored with a trailing 1,
        which pairs with its last node on the level above and ends flat.
        Leaf x is x, so level 0 is not stored.  flat lies in _tree_store
        unless another live context holds that, so it takes about 4p bytes
        and, across a scan, no fresh memory per prime."""
        global _tree_store, _tree_owner
        h = (self.p - 1) // 2
        size = [(h + 1) // 2]
        while size[-1] > 1:
            size.append((size[-1] + 1) // 2)
        size = np.array(size)
        offset = np.cumsum(np.append(0, size + (size & 1)))
        if _tree_store.size < offset[-1] or (_tree_owner and _tree_owner()):
            _tree_store = np.empty(1 << int(offset[-1] - 1).bit_length(), dtype=np.int64)
        _tree_owner = weakref.ref(self)
        flat = _tree_store[:offset[-1]]
        flat[(offset[:-1] + size)[size & 1 == 1]] = 1
        level = flat[:size[0]]
        odd = np.arange(1, 2 * size[0], 2)
        np.add(odd, 1, out=level)
        level *= odd
        del odd
        if h & 1:
            level[-1] = h
        _reduce(level, self.p)
        for k in range(1, size.size):
            below = flat[offset[k - 1]:offset[k]]
            up = flat[offset[k]:][:size[k]]
            _reduce(np.multiply(below[0::2], below[1::2], out=up), self.p)
        return flat, np.append(0, offset[:-1])[:, None]

    def half_products(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """(P(x), S(y)) mod p elementwise for 1-D x and y, from one gather
        over the tree: P(x) = x! for 0 <= x <= h and S(y) = y*(y+1)*...*h
        for 1 <= y <= h, with h = (p-1)/2.

        P multiplies, for every level k, the node that ends at leaf
        (x >> k) << k when x >> k is odd.  S with l = y - 1 leaves skipped
        takes node ceil(l / 2**k) when that node is odd; past the last node
        of a level it takes the padding 1.  S(1) is h!, the root, so P(h).
        """
        flat, offset = self._tree
        h = (self.p - 1) // 2
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        # rows of x, and of -l for S: floor(-l / 2**k) = -ceil(l / 2**k)
        a = np.concatenate((x, np.where(y > 1, 1 - y, h))) >> np.arange(offset.size)[:, None]
        node = np.abs(a - (a > 0))
        out = flat[np.where(a & 1, node + offset, -1)]
        out[0] = np.where(a[0] & 1, node[0] + 1, 1)
        w = out.shape[0]
        while w > 1:
            # fold the last half of the rows onto the first
            half = w // 2
            out[:half] *= out[w - half:w]
            out[:half] %= self.p
            w -= half
        return out[0, :x.size], out[0, x.size:]

    def legendre(self, a: int) -> int:
        """Legendre symbol (a|p) by Euler's criterion."""
        t = pow(a, (self.p - 1) // 2, self.p)
        return -1 if t == self.p - 1 else t


_slot: PrimeContext | None = None
# the quotients of _reduce, one chunk at a time, and the tree storage, kept
# and grown to powers of two: memory made afresh per prime faults in all its
# pages anew.  The storage is lent to one context at a time; while that
# context lives, the next gets new memory.
_quotient = np.empty(1 << 16, dtype=np.int64)
_tree_store = np.empty(0, dtype=np.int64)
_tree_owner: weakref.ref | None = None


def _reduce(a: np.ndarray, p: int) -> np.ndarray:
    """a %= p in place for a 1-D int64 array, returned: about twice as fast
    as %, since numpy's // by a scalar uses libdivide and % a hardware
    divide."""
    for start in range(0, a.size, _quotient.size):
        part = a[start:start + _quotient.size]
        quotient = np.floor_divide(part, p, out=_quotient[:part.size])
        quotient *= p
        part -= quotient
    return a


def _square_chunks(p: int):
    """Yield j*j mod p for j = 1..(p-1)/2, which is every nonzero square mod
    p once, as int64 arrays in the order of j.  A chunk has the 2**16
    entries of the quotient buffer, so _reduce takes it in one pass, and is
    a fresh array, the caller's to change."""
    half = (p - 1) // 2
    for start in range(1, half + 1, _quotient.size):
        chunk = np.arange(start, min(start + _quotient.size, half + 1), dtype=np.int64)
        chunk *= chunk
        yield _reduce(chunk, p)


def prime_context(p: int) -> PrimeContext:
    """The context of p.  One slot: asking for another prime replaces it."""
    global _slot
    if _slot is None or _slot.p != p:
        _slot = PrimeContext(p)
    return _slot
