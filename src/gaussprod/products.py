"""Partial products of consecutive-integer blocks mod p, with residue counts.

For an odd prime p, n blocks partition 1..p-1 at the cut points c_0 = 0,
c_k = floor(k * p / n) for 0 < k < n, and c_n = p - 1; block k holds
c_(k-1) + 1..c_k.  When n | p - 1, k * p / n = k(p-1)/n + k/n with
0 < k/n < 1, so c_k = k(p-1)/n: the cuts are those of n equal blocks of
length (p - 1)/n.  One table per (p, n) therefore serves both families;
they differ only in what they require, n | p - 1 for the equal (plain)
blocks and an odd prime n = q < p for the floor-cut (generalized) ones.
Every layout is mirror-symmetric, c_(n-k) = p-1-c_k, so a table is computed
from its lower half, which lies in 1..(p-1)/2 (see _block_values).

_block_values and _block_counts take many layouts of many primes as flat
arrays, in batches that share a tree or a residue index, with every cut
k*p//n from numpy.  A scan's pass (inputs._load_unit) reads them so, and
a public query is a one-row batch of one layout, wrapped in a
PartialProductTable or BlockCounts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .arith import is_prime
from . import context
from .context import _check_prime, _set_bits_through, half_products

__all__ = [
    "BlockCounts",
    "PartialProductTable",
    "block_counts",
    "generalized_partial_products",
    "partial_products",
    "residue_cumulative_counts",
    "residue_mask",
    "selected_block_indices",
    "theorem1_product",
]


def _check_layout(p: int, n: int, generalized: bool) -> None:
    """ValueError unless the chosen family of n blocks is defined at p and
    p is an odd prime below 2**31."""
    if generalized:
        if n < 3 or n % 2 == 0 or not is_prime(n):
            raise ValueError(f"q must be an odd prime, got {n}")
        if n >= p:
            raise ValueError(f"q must be smaller than p, got p={p}, q={n}")
    elif n < 2 or (p - 1) % n:
        raise ValueError(f"n must be >= 2 and divide p - 1, got p={p}, n={n}")
    _check_prime(p)


@dataclass(frozen=True)
class PartialProductTable:
    """All n block products for one modulus, 1-indexed via block()."""

    p: int
    n: int
    values: tuple[int, ...]

    def block(self, k: int) -> int:
        if not 1 <= k <= self.n:
            raise ValueError(f"block index must lie in 1..{self.n}, got {k}")
        return self.values[k - 1]

    def full_product(self) -> int:
        """Product of every block, i.e. (p-1)! mod p; equals p - 1 by Wilson."""
        return _product(self.values, self.p)


def _product(values, p: int) -> int:
    """The product of values mod p, reduced after every factor."""
    acc = 1
    for v in values:
        acc = acc * v % p
    return acc


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct entries of an ascending array."""
    return a if a.size < 2 else a[np.concatenate(([True], a[1:] != a[:-1]))]


# the walk points or cuts that one pass of _block_values or _block_counts
# lays out at most, unless one batch has more: 64 KB per int64 array
_CHUNK = 1 << 13


def _chunks(sizes: np.ndarray, rows: np.ndarray, stops):
    """Runs [a, b) of consecutive layouts made of whole batches, each of
    total size at most _CHUNK or one batch; the layouts' rows ascend, and
    the batch of rows b ends before row stops[b]."""
    total = [0] + sizes.cumsum().tolist()
    if total[-1] <= _CHUNK:
        # one run, as a single query's always is
        if sizes.size:
            yield 0, sizes.size
        return
    ends = [0] + rows.searchsorted(stops).tolist()
    a = 0
    for b, c in zip(ends[1:], ends[2:] + [None]):
        if c is None or total[c] - total[a] > _CHUNK:
            if a < b:
                yield a, b
            a = b


def _batch_spans(p: np.ndarray, rows: np.ndarray, layout: np.ndarray, stops):
    """For each batch that has a layout: its distinct primes, as a list for
    one tree or index, the span of the flat entries of its layouts, and each
    entry's row among those primes.  rows ascend, layout[i] is entry i's
    layout, and the batch of rows b ends before row stops[b]."""
    used = _distinct(rows)
    tree = used.searchsorted(rows)[layout]
    if len(stops) == 1:
        yield p[used].tolist(), slice(None), tree
        return
    primes, batches = p[used].tolist(), _distinct(used.searchsorted(stops)).tolist()
    points = [0] + tree.searchsorted(batches).tolist()
    for a, b, u, v in zip(points, points[1:], [0] + batches, batches):
        if a < b:
            yield primes[u:v], slice(a, b), tree[a:b] - u


def _block_values(primes: list[int], rows: np.ndarray, ns: np.ndarray, stops) -> np.ndarray:
    """The products of the ns[i] blocks of primes[rows[i]] for every layout
    i, int64, flat in the order of the layouts: block k of layout i at
    ns[:i].sum() + k - 1.

    With m = n // 2, the cuts c_0..c_m lie in 0..h, h = (p-1)/2, and
    c_(n-k) = p-1-c_k, since n does not divide k*p for 0 < k < n.  So, by
    Wilson (h!**2 == (-1)**(h+1) mod p) and j == -(p - j):

    - block k <= m is c_k! / c_(k-1)! == (-1)**(h+1) h! P(c_k) S(c_(k-1)+1);
    - block n+1-k is block k times (-1)**(c_k - c_(k-1));
    - for odd n, the central block is (-1)**(h - c_m) S(c_m + 1)**2,

    with P and S the two walks of context.half_products.

    rows ascend, and the batch of rows b ends before row stops[b].  With
    the cuts c_j = j*p//n, a layout walks m + 1 points j:
    P at c_(j+1) and S at c_j + 1 for j < m, which give block j + 1, and at
    j = m P at h, which gives h!, and S at c_m + 1, which gives the central
    block of odd n (clipped to h and unused for even n, where c_m = h).
    The points of a run of batches are laid out at once (_chunks); each
    batch's rows that have a layout share one tree, built for its points
    and dropped before the next batch's; then every block of the run is
    placed at once."""
    p = np.array(primes, dtype=np.int64)
    return np.concatenate([p[:0]] + [_run_values(p, rows[a:b], ns[a:b], stops)
                                     for a, b in _chunks(ns // 2 + 1, rows, stops)])


def _run_values(p: np.ndarray, rows: np.ndarray, ns: np.ndarray, stops) -> np.ndarray:
    """_block_values of one run of batches."""
    m = ns >> 1
    ends = (m + 1).cumsum()
    layout = np.arange(ns.size).repeat(m + 1)
    j = np.arange(ends[-1]) - (ends - m - 1)[layout]
    pj, nj, last = p[rows][layout], ns[layout], j == m[layout]
    h = pj >> 1
    cut = j * pj // nj
    x = np.where(last, h, (j + 1) * pj // nj)
    y = np.minimum(cut + 1, h)
    f, s = np.empty_like(x), np.empty_like(y)
    for primes, span, row in _batch_spans(p, rows, layout, stops):
        f[span], s[span] = half_products(primes, row, x[span], row, y[span])
    # block j + 1 is P(c_(j+1)) S(c_j + 1) / h!, and 1/h! = (-1)**(h+1) h!
    fact = f[ends - 1][layout]
    lower = f * s % pj * np.where(pj & 2, fact, pj - fact) % pj
    central = s * s % pj
    # each block to its place, and every other entry to the last, dropped
    first = ns.cumsum()
    size = first[-1]
    first = (first - ns)[layout]
    values = np.empty(size + 1, dtype=np.int64)
    values[np.where(last, size, first + j)] = lower
    values[np.where(last, size, first + nj - 1 - j)] = np.where((x - cut) & 1, pj - lower, lower)
    values[np.where(last & (nj & 1 == 1), first + j, size)] = np.where(
        (h - cut) & 1, pj - central, central)
    return values[:size]


def _table(p: int, n: int) -> PartialProductTable:
    """The table of n blocks of p, both taken as valid, from a one-row
    batch of _block_values."""
    values = _block_values([p], np.array([0]), np.array([n]), [1])
    return PartialProductTable(p=p, n=n, values=tuple(values.tolist()))


def partial_products(p: int, n: int) -> PartialProductTable:
    """Block products for equal blocks of length (p-1)/n; needs n | p - 1."""
    _check_layout(p, n, False)
    return _table(p, n)


def generalized_partial_products(p: int, q: int) -> PartialProductTable:
    """Floor-cut block products; defined for any odd primes q < p."""
    _check_layout(p, q, True)
    return _table(p, q)


def residue_mask(p: int) -> np.ndarray:
    """Boolean array of length p: entry v is True iff v is a nonzero square
    mod p.  Unpacked from a residue index built for the call; the package
    counts residues without it."""
    _check_prime(p)
    words, _ = context._residue_indexes([p])
    return np.unpackbits(words[0].view(np.uint8), count=p, bitorder="little").view(bool)


def residue_cumulative_counts(p: int) -> np.ndarray:
    """Array c with c[x] = number of quadratic residues among 1..x."""
    return np.cumsum(residue_mask(p), dtype=np.int64)


@dataclass(frozen=True)
class BlockCounts:
    """Per-block counts of quadratic residues and nonresidues."""

    p: int
    q: int
    residues: tuple[int, ...]
    nonresidues: tuple[int, ...]


def _cut_points(p: np.ndarray, rows: np.ndarray, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(layout, x) of every cut x = c_k, k = 0..n, of every layout i of
    n = ns[i] blocks of p[rows[i]], flat in the order of the layouts."""
    ends = (ns + 1).cumsum()
    layout = np.arange(ns.size).repeat(ns + 1)
    k = np.arange(ends[-1]) - (ends - ns - 1)[layout]
    n = ns[layout]
    # c_n = p - 1, not k*p/n = p
    return layout, k * p[rows][layout] // n - (k == n)


def _differences(counts: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(residues, nonresidues) of each block from the residues in 1..x at
    its cuts x: block k of layout i at (ns[:i] + 1).sum() + k - 1, as
    _cut_points lays them out.  The entry after a layout's last block
    belongs to no block: it spans two layouts, or is 0 after the last."""
    residues = np.concatenate((counts[1:] - counts[:-1], [0]))
    return residues, np.concatenate((x[1:] - x[:-1], [0])) - residues


def _block_counts(primes: list[int], rows: np.ndarray, ns: np.ndarray,
                  stops) -> tuple[np.ndarray, np.ndarray]:
    """(residues, nonresidues) of the ns[i] blocks of primes[rows[i]] for
    every layout i, as _differences lays them out.  rows ascend, and the
    batch of rows b ends before row stops[b]: each batch's rows that have a
    layout share one residue index, built for its cuts and dropped before
    the next batch's, and the cuts of a run of batches are laid out at once
    (_chunks).  The residues in 1..x at every cut x of a batch come
    from one gather of _set_bits_through.  An index row is whole
    words, so x of row r is bit r * 64 * words.shape[1] + x of the
    raveled words."""
    p = np.array(primes, dtype=np.int64)
    runs = [_run_counts(p, rows[a:b], ns[a:b], stops) for a, b in _chunks(ns + 1, rows, stops)]
    return tuple(np.concatenate([p[:0]] + [run[i] for run in runs]) for i in (0, 1))


def _run_counts(p: np.ndarray, rows: np.ndarray, ns: np.ndarray,
                stops) -> tuple[np.ndarray, np.ndarray]:
    """_block_counts of one run of batches."""
    layout, x = _cut_points(p, rows, ns)
    counts = np.empty_like(x)
    for primes, span, row in _batch_spans(p, rows, layout, stops):
        words, rank = context._residue_indexes(primes)
        at = row * (64 * words.shape[1]) + x[span]
        counts[span] = _set_bits_through(words.ravel(), rank.ravel(), at)
    return _differences(counts, x)


def block_counts(p: int, q: int, generalized: bool = False) -> BlockCounts:
    """Count residues/nonresidues inside each block of 1..p-1."""
    _check_layout(p, q, generalized)
    residues, nonresidues = (c[:q].tolist()
                             for c in _block_counts([p], np.array([0]), np.array([q]), [1]))
    return BlockCounts(p=p, q=q, residues=tuple(residues), nonresidues=tuple(nonresidues))


@cache
def selected_block_indices(q: int) -> tuple[int, ...]:
    """Lower-half indices k whose offset (q+1)/2 - k from the center is odd;
    kept per q, so that a verifier reads the tuple instead of building it."""
    if q < 3 or q % 2 == 0:
        raise ValueError(f"q must be an odd number >= 3, got {q}")
    center = (q + 1) // 2
    return tuple(k for k in range(1, (q - 1) // 2 + 1) if (center - k) % 2 == 1)


def theorem1_product(p: int, q: int, generalized: bool = False) -> int:
    """Product over the selected lower-half blocks, reduced mod p."""
    table = generalized_partial_products(p, q) if generalized else partial_products(p, q)
    return _product((table.values[k - 1] for k in selected_block_indices(q)), p)


def _enlarged_index(q: int) -> int:
    """Lower-half index whose block is one longer when p == 3 (mod q), for
    a prime q > 3, unchecked.

    Evaluates (q + 2 + ((q|3) - 1)/2) / 3.  For a prime q > 3 the numerator
    2(q + 2) + (q|3) - 1 is 2(q + 2) or 2(q + 1), so the index is always
    ceil(q/3), in 2..(q-1)/2; t4 checks it against the measured block
    sizes, so a wrong index shows as a failed verdict.
    """
    return (2 * (q + 2) + (0, 1, -1)[q % 3] - 1) // 6
