"""The O(p) kernels under block tables, block counts and h(-p), and the
check of a prime p (_check_prime) behind every public query at p.
No state at a prime outlives the call that made it: the flat kernels of
products read block tables and block counts for a batch of primes, a
public single query is a batch of one, and a scan takes its primes from
the sieve, so it tests none of them.

Block products come from a product tree of the lower half 1..(p-1)/2
(Bernstein, "Fast multiplication and its applications", 2008), built for a
batch of primes at once, one row per prime, and read by half_products: one
vectorised gather walks it from both ends, giving x! and
y*(y+1)*...*(p-1)/2 mod p for many (prime, x) and (prime, y); the upper
half mirrors the lower, since j == -(p - j).  Its lowest stored level is
the four-leaf nodes (x+1)(x+2)(x+3)(x+4) = (x*x + 5x + 5)**2 - 1, x = 4i,
two reductions each; the gather computes leaves and pairs, so a one-row
tree is about 2p bytes.  The tree lives in one kept array, rebuilt by
every query.

The residue index is a bitmap of the nonzero squares mod p, 64 to a word,
with a rank directory of the set bits before each word: p/4 bytes, a
count in two gathers and a popcount (_set_bits_through).  Like the tree it
is built for a batch of primes at once (_residue_indexes), one row per
prime, and lives only as long as the products call that reads every block
count of the batch from one gather over the rows.

Two kernels fork on one row, each for a measured reason: the tree reduces
it by _reduce, which avoids hardware division (0.25 against 0.61 ms for a
remainder by a column at 125k entries), and skips the padding mask (0.17
of 1.1 ms at p = 499,979); the index streams _square_chunks, j*j mod p for
j = 1..(p-1)/2 in chunks of 2**16, into a p-byte mark array instead of a
(rows, h) int64 array, so it fits a 1 GiB cap at p = 268,435,399.  Lemma 1
and _square_floor_sum (Dirichlet's h(-p)), both in classnum, stream the
same way in O(2**16) memory at every p < 2**31.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import is_prime

__all__ = ["P_LIMIT", "half_products"]

# int64 stays exact for products of two residues and for j*j below this bound
P_LIMIT = 1 << 31
# below this bound (p-1)**2 < 2**31, so int32 holds the product of two
# residues, and so the tree of a batch whose largest prime lies below it is
# int32: there a remainder by a column costs about 1/1.7 and a floor
# division by a scalar about 1/2.7 of int64's
INT32_LIMIT = 46341


def _check_prime(p: int) -> None:
    """ValueError unless p is an odd prime below 2**31."""
    if p >= P_LIMIT:
        raise ValueError(f"p must be below 2**31, got {p}")
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def _set_bits_through(words: np.ndarray, rank: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rank[b >> 6] plus the set bits of words[b >> 6] up to bit b & 63,
    elementwise for int64 flat bit positions b into 1-D words: the set bits
    through bit b since the last word whose rank is 0."""
    w = b >> 6
    return rank[w] + np.bitwise_count(words[w] << (63 - (b & 63)).astype(np.uint64))


# the quotients of _reduce and of classnum._square_floor_sum, one chunk at a
# time, and the tree storage, kept
# and grown to powers of two: memory made afresh per query faults in all its
# pages anew.  A tree lives only within the half_products call that builds
# it, so one storage serves every query.
_quotient = np.empty(1 << 16, dtype=np.int64)
_tree_store = np.empty(0, dtype=np.int64)


def _reduce(a: np.ndarray, p: int) -> np.ndarray:
    """a %= p in place for a 1-D int64 or int32 array, returned: about twice
    as fast as %, since numpy's // by a scalar uses libdivide and % a
    hardware divide."""
    buffer = _quotient.view(a.dtype)
    for start in range(0, a.size, _quotient.size):
        part = a[start:start + _quotient.size]
        quotient = np.floor_divide(part, p, out=buffer[:part.size])
        quotient *= p
        part -= quotient
    return a


def _mod(a: np.ndarray, p) -> np.ndarray:
    """a %= p in place, returned: by _reduce for one prime p, a being its one
    contiguous row (1-D or 1 x n); by one remainder against p, a column of
    one prime per row, otherwise."""
    if isinstance(p, np.ndarray):
        return np.remainder(a, p, out=a)
    _reduce(a.reshape(-1), p)
    return a


def _four_leaves(x: np.ndarray, p, out: np.ndarray | None = None) -> np.ndarray:
    """(x+1)(x+2)(x+3)(x+4) mod p elementwise for int64 0 <= x < 2**30,
    as y*y - 1 with y = x*x + 5x + 5: two reductions for four leaves.
    x < 2**30 gives y < 2**61, and y mod p < 2**31 gives y*y < 2**62; when
    y == 0 (mod p), y*y - 1 = -1, which the floor division of either
    reduction maps to p - 1.  p is as for _mod; out, if given, has x's
    shape for one prime and (rows, x.size) for a column of primes.  In
    int32, for p < INT32_LIMIT: x <= h < 23,171 gives y < 2**30, and
    y mod p < 46,341 gives y*y < 2**31."""
    out = np.add(x, 5, out=out)
    out *= x
    out += 5
    _mod(out, p)
    out *= out
    out -= 1
    return _mod(out, p)


def _half_tree(primes: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat, offset, width): the product trees of the lower halves 1..h,
    h = (p-1)/2, of a batch of primes, one row per prime, in _tree_store.

    Level k >= 2 is a (rows, width[k]) array from flat[offset[k]]; row r
    holds the products mod p_r of aligned runs of 2**k leaves of the widest
    row's tree, leaves past the row's own h being 1.  The lowest stored
    level is level 2, node i the four leaves (x+1)(x+2)(x+3)(x+4), x = 4i,
    from _four_leaves; a row whose h is not a multiple of 4 ends on a node
    of its last 1-3 leaves.  Leaves and pairs are not stored: offset and
    width are 0 at levels 0 and 1, and half_products computes them.  A
    level of odd length is stored with a trailing column of ones, which
    pairs with its last node on the level above; the top level is one node
    and its 1, so flat ends with a 1.  Offset and width are columns, for
    the gather of half_products.  A one-row batch, about 2p bytes, reduces
    by _reduce, scalar p; a batch of several by one remainder per level
    against the column of its primes.  The tree is int32 when the largest
    prime lies below INT32_LIMIT, int64 otherwise, and either way a view
    of the one int64 _tree_store."""
    global _tree_store
    rows = len(primes)
    dtype = np.int32 if max(primes) < INT32_LIMIT else np.int64
    size = [(max(primes) + 5) // 8]  # ceil(h / 4) for the widest row
    while size[-1] > 1:
        size.append((size[-1] + 1) // 2)
    width = [0, 0] + [n + (n & 1) for n in size]
    offset = [0]
    for w in width[2:]:
        offset.append(offset[-1] + rows * w)
    words = -(-offset[-1] * np.dtype(dtype).itemsize // 8)
    if _tree_store.size < words:
        _tree_store = np.empty(1 << (words - 1).bit_length(), dtype=np.int64)
    flat = _tree_store.view(dtype)[:offset[-1]]
    levels = [flat[a:b].reshape(rows, -1) for a, b in zip(offset, offset[1:])]
    # one row reduces by _reduce, about twice as fast as a remainder by a column
    modulus = primes[0] if rows == 1 else np.array(primes, dtype=dtype)[:, None]

    flat[[a + r * w + n for a, w, n in zip(offset, width[2:], size) if n & 1
          for r in range(rows)]] = 1
    n = size[0]
    level = _four_leaves(np.arange(0, 4 * n, 4, dtype=dtype), modulus, levels[0][:, :n])
    if rows > 1:
        # a row of h leaves has ceil(h/4) = (p+5)//8 nodes here
        level[np.arange(n) >= (modulus + 5) // 8] = 1
    # node p//8 of a row of h = p//2 leaves, h not a multiple of 4
    ends = [(r, p) for r, p in enumerate(primes) if p % 8 != 1]
    level[[r for r, _ in ends], [p // 8 for _, p in ends]] = [
        math.prod(range(p // 8 * 4 + 1, p // 2 + 1)) % p for _, p in ends]
    for below, above, n in zip(levels, levels[1:], size[1:]):
        _mod(np.multiply(below[:, 0::2], below[:, 1::2], out=above[:, :n]), modulus)
    return flat, np.array([0, 0] + offset[:-1])[:, None], np.array(width)[:, None]


def half_products(primes: list[int], x_row, x, y_row, y) -> tuple[np.ndarray, np.ndarray]:
    """(P(x), S(y)) elementwise for 1-D x and y, from one tree over the
    batch of primes and one gather: with p = primes[x_row] (primes[y_row])
    and h = (p-1)/2, P(x) = x! mod p for 0 <= x <= h, and
    S(y) = y*(y+1)*...*h mod p for 1 <= y <= h.

    P multiplies, for every level k, the node that ends at leaf
    (x >> k) << k when x >> k is odd.  S with l = y - 1 leaves skipped
    takes node ceil(l / 2**k) when that node is odd; past a row's last node
    on a level it takes the padding 1.  S(1) is h!, the root, so P(h).
    Levels 0 and 1 are not stored: leaf x is x, and pair j is
    (2j+1)(2j+2), a leaf past the row's h being 1, since S can reach past h.
    Both come in the tree's dtype, int32 below INT32_LIMIT.
    """
    flat, offset, width = _half_tree(primes)
    p = np.array(primes, dtype=flat.dtype)
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    rows = np.concatenate((x_row, y_row), dtype=np.int64, casting="unsafe")
    modulus = p[rows]
    h = modulus // 2
    # rows of x, and of -l for S: floor(-l / 2**k) = -ceil(l / 2**k)
    a = np.concatenate((x, np.where(y > 1, 1 - y, h[x.size:])))
    a = a >> np.arange(offset.size)[:, None]
    node = np.abs(a - (a > 0))
    # two in-place adds, which make one (levels, points) temporary fewer
    node += offset
    node += rows * width
    out = np.empty(a.shape, dtype=flat.dtype)
    out[2:] = flat[np.where(a[2:] & 1, node[2:], -1)]
    out[0] = np.where(a[0] & 1, node[0] + 1, 1)
    leaf = 2 * node[1] + 1
    pair = np.where(leaf <= h, leaf, 1) * np.where(leaf < h, leaf + 1, 1)
    out[1] = np.where(a[1] & 1, pair % modulus, 1)
    w = out.shape[0]
    while w > 1:
        # fold the last half of the rows onto the first
        half = w // 2
        out[:half] *= out[w - half:w]
        out[:half] %= modulus
        w -= half
    return out[0, :x.size], out[0, x.size:]


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


def _residue_indexes(primes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(words, rank) of the residue indexes of a batch of primes, one row
    per prime, padded with zero words to the widest prime: bit x of a row's
    little-endian uint64 words is set when x is a nonzero square mod its p,
    and rank[w] counts the set bits in words[:w].

    A one-row batch marks _square_chunks in a p-byte array padded to whole
    words: a build peak near 1.25p bytes.  A batch of several takes j*j mod
    the column of its primes for j up to the widest h = (p-1)/2, a
    (rows, h) int64 array: past a row's own h, j*j gives the row's squares
    again, or 0 where its p divides j, so column 0 is cleared after the
    scatter.  Then one packbits and one row-wise cumsum of popcounts."""
    widest = max(primes)
    columns = -(-widest // 64) * 64
    if len(primes) == 1:
        marks = np.zeros(columns, dtype=bool)
        for chunk in _square_chunks(widest):
            marks[chunk] = True
    else:
        j = np.arange(1, (widest - 1) // 2 + 1, dtype=np.int64)
        j *= j
        squares = np.remainder(j, np.array(primes)[:, None])
        del j
        squares += np.arange(0, len(primes) * columns, columns)[:, None]
        marks = np.zeros(len(primes) * columns, dtype=bool)
        marks[squares] = True
        del squares
        marks[::columns] = False
    words = np.packbits(marks.reshape(len(primes), columns), axis=1,
                        bitorder="little").view("<u8")
    del marks
    rank = np.zeros(words.shape, dtype=np.int64)
    np.cumsum(np.bitwise_count(words[:, :-1]), axis=1, out=rank[:, 1:])
    words.flags.writeable = rank.flags.writeable = False
    return words, rank
