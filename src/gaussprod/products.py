"""Partial products of consecutive-integer blocks mod p, with residue counts.

For an odd prime p, n blocks partition 1..p-1 at the cut points c_0 = 0,
c_k = floor(k * p / n) for 0 < k < n, and c_n = p - 1; block k holds
c_(k-1) + 1..c_k.  When n | p - 1, k * p / n = k(p-1)/n + k/n with
0 < k/n < 1, so c_k = k(p-1)/n: the cuts are those of n equal blocks of
length (p - 1)/n.  One table per (p, n) therefore serves both families;
they differ only in what they require, n | p - 1 for the equal (plain)
blocks and an odd prime n = q < p for the floor-cut (generalized) ones.
Every layout is mirror-symmetric, c_(n-k) = p-1-c_k, so a table is computed
from its lower half, which lies in 1..(p-1)/2 (see load_block_tables).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .arith import is_prime
from .context import PrimeContext, _set_bits_through, half_products, load_residue_indexes

__all__ = [
    "BlockCounts",
    "PartialProductTable",
    "block_counts",
    "generalized_partial_products",
    "load_block_counts",
    "load_block_tables",
    "partial_products",
    "residue_cumulative_counts",
    "residue_mask",
    "selected_block_indices",
    "theorem1_product",
]


def _check_layout(p: int, n: int, generalized: bool) -> None:
    """ValueError unless the chosen family of n blocks is defined at p."""
    if generalized:
        if n < 3 or n % 2 == 0 or not is_prime(n):
            raise ValueError(f"q must be an odd prime, got {n}")
        if n >= p:
            raise ValueError(f"q must be smaller than p, got p={p}, q={n}")
    elif n < 2 or (p - 1) % n:
        raise ValueError(f"n must be >= 2 and divide p - 1, got p={p}, n={n}")


def _cuts(p: int, n: int) -> list[int]:
    """The n + 1 cut points c_0..c_n of n blocks of 1..p-1."""
    return [k * p // n for k in range(n)] + [p - 1]


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


def load_block_tables(batch) -> list[list[PartialProductTable]]:
    """For each (ctx, sizes) in batch, the table of n blocks of ctx.p for
    every n in sizes, kept in ctx.tables.

    Sizes are taken as valid; the tables the contexts lack are computed
    together, from one query of the trees of 1..h, h = (p-1)/2, one row per
    context that lacks any.  With m = n // 2, the cuts c_0..c_m lie in 0..h
    and c_(n-k) = p-1-c_k, since n does not divide k*p for 0 < k < n.  So,
    by Wilson (h!**2 == (-1)**(h+1) mod p) and j == -(p - j):

    - block k <= m is c_k! / c_(k-1)! == (-1)**(h+1) h! P(c_k) S(c_(k-1)+1);
    - block n+1-k is block k times (-1)**(c_k - c_(k-1));
    - for odd n, the central block is (-1)**(h - c_m) S(c_m + 1)**2,

    with P and S the two walks of context.half_products.
    """
    batch = [(ctx, list(sizes)) for ctx, sizes in batch]
    todo = [(ctx, [n for n in dict.fromkeys(sizes) if n not in ctx.tables])
            for ctx, sizes in batch]
    todo = [(ctx, missing) for ctx, missing in todo if missing]
    if todo:
        _fill_tables(todo)
    return [[ctx.tables[n] for n in sizes] for ctx, sizes in batch]


def _fill_tables(todo) -> None:
    """Compute the missing tables of load_block_tables: one tree row per
    context, one walk point per lower-half cut."""
    primes = [ctx.p for ctx, _ in todo]
    layouts = [(r, n, _cuts(p, n)[:n // 2 + 1])
               for r, (p, (_, missing)) in enumerate(zip(primes, todo)) for n in missing]
    hi = [c for _, _, low in layouts for c in low[1:]]
    lo = [c for _, _, low in layouts for c in low[:-1]]
    mid = [low[-1] for _, n, low in layouts if n & 1]
    row = np.repeat([r for r, _, _ in layouts], [n // 2 for _, n, _ in layouts])
    mid_row = [r for r, n, _ in layouts if n & 1]
    f, s = half_products(primes, np.append(row, range(len(primes))),
                         hi + [(p - 1) // 2 for p in primes],
                         np.append(row, mid_row), [c + 1 for c in lo + mid])
    # f[len(hi):] = h!, and (-1)**(h+1) h! is the inverse of h!
    p = np.array(primes)
    fact = f[len(hi):]
    inverse = np.where(p & 2, fact, p - fact)[row]
    pk, pm = p[row], p[mid_row]
    lower = f[:len(hi)] * s[:len(hi)] % pk * inverse % pk
    upper = np.where(np.subtract(hi, lo) & 1, pk - lower, lower).tolist()
    central = s[len(hi):] ** 2 % pm
    central = iter(np.where((pm // 2 - np.array(mid, dtype=np.int64)) & 1,
                            pm - central, central).tolist())
    lower, i = lower.tolist(), 0
    for r, n, low in layouts:
        m = len(low) - 1
        values = lower[i:i + m] + ([next(central)] if n & 1 else [])
        todo[r][0].tables[n] = PartialProductTable(
            p=primes[r], n=n, values=tuple(values + upper[i:i + m][::-1]))
        i += m


def partial_products(p: int, n: int) -> PartialProductTable:
    """Block products for equal blocks of length (p-1)/n; needs n | p - 1."""
    _check_layout(p, n, False)
    return load_block_tables([(PrimeContext(p), [n])])[0][0]


def generalized_partial_products(p: int, q: int) -> PartialProductTable:
    """Floor-cut block products; defined for any odd primes q < p."""
    _check_layout(p, q, True)
    return load_block_tables([(PrimeContext(p), [q])])[0][0]


def residue_mask(p: int) -> np.ndarray:
    """Boolean array of length p: entry v is True iff v is a nonzero square
    mod p.  Unpacked from a residue index built for the call; the package
    counts residues without it."""
    words, _ = load_residue_indexes([PrimeContext(p)])
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


def load_block_counts(batch) -> list[list[BlockCounts]]:
    """For each (ctx, sizes) in batch, the residue counts of the n blocks of
    ctx.p for every n in sizes, kept in ctx.counts.

    Sizes are taken as valid.  The contexts that lack some counts get their
    indexes from one batched build, and their counts from one gather over
    it.
    """
    batch = [(ctx, list(sizes)) for ctx, sizes in batch]
    todo = [(ctx, [n for n in dict.fromkeys(sizes) if n not in ctx.counts])
            for ctx, sizes in batch]
    todo = [(ctx, missing) for ctx, missing in todo if missing]
    if todo:
        _fill_counts(todo, *load_residue_indexes([ctx for ctx, _ in todo]))
    return [[ctx.counts[n] for n in sizes] for ctx, sizes in batch]


def _fill_counts(todo, words: np.ndarray, rank: np.ndarray) -> None:
    """Fill the missing counts of load_block_counts from the (words, rank)
    of the todo contexts' indexes, one row each: the cuts of every layout
    in numpy, the residues in 1..x at every cut x in one gather, as
    residue_counts takes them, then each block's residues and nonresidues
    from differences of cuts.  A row is whole words, so x of row r is bit
    r * 64 * words.shape[1] + x of the raveled words."""
    layouts = [(r, ctx, n) for r, (ctx, missing) in enumerate(todo) for n in missing]
    row, p, n = np.array([(r, ctx.p, n) for r, ctx, n in layouts]).T
    length = n + 1
    row, p, n = (np.repeat(column, length) for column in (row, p, n))
    # k runs over 0..n in each layout, and c_n = p - 1, not k*p/n = p
    k = np.arange(row.size) - np.repeat(np.cumsum(length) - length, length)
    x = k * p // n - (k == n)
    counts = _set_bits_through(words.ravel(), rank.ravel(), row * 64 * words.shape[1] + x)
    # differences by slicing, which costs less than np.diff; the entry
    # that spans two layouts is skipped below
    residues = counts[1:] - counts[:-1]
    nonresidues = (x[1:] - x[:-1] - residues).tolist()
    residues, i = residues.tolist(), 0
    for _, ctx, n in layouts:
        ctx.counts[n] = BlockCounts(p=ctx.p, q=n, residues=tuple(residues[i:i + n]),
                                    nonresidues=tuple(nonresidues[i:i + n]))
        i += n + 1


def block_counts(p: int, q: int, generalized: bool = False) -> BlockCounts:
    """Count residues/nonresidues inside each block of 1..p-1."""
    _check_layout(p, q, generalized)
    return load_block_counts([(PrimeContext(p), [q])])[0][0]


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
