"""Partial products of consecutive-integer blocks mod p, with residue counts.

For an odd prime p and n dividing p - 1, the integers 1..p-1 split into n
equal blocks of length (p - 1)/n; the k-th block product reduced mod p is the
plain partial product.  The generalized variant drops the divisibility
requirement by cutting 1..p-1 at floor(k * p / q) instead, so blocks have
floor-length sizes and the two notions coincide when p == 1 (mod q).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .arith import is_prime
from .context import prime_context

__all__ = [
    "BlockCounts",
    "PartialProductTable",
    "block_counts",
    "block_ranges",
    "enlarged_block_index",
    "generalized_partial_products",
    "load_block_tables",
    "partial_products",
    "residue_cumulative_counts",
    "residue_mask",
    "selected_block_indices",
    "theorem1_product",
]


def _check_odd_prime(x: int, name: str) -> None:
    if x < 3 or x % 2 == 0 or not is_prime(x):
        raise ValueError(f"{name} must be an odd prime, got {x}")


def block_ranges(p: int, n: int, generalized: bool = False) -> tuple[tuple[int, int], ...]:
    """Inclusive (start, end) ranges of the n blocks partitioning 1..p-1."""
    if generalized:
        lows = [((k - 1) * p) // n + 1 for k in range(1, n + 1)]
        highs = [(k * p) // n for k in range(1, n)] + [p - 1]
        return tuple(zip(lows, highs))
    m = (p - 1) // n
    return tuple(((k - 1) * m + 1, k * m) for k in range(1, n + 1))


@dataclass(frozen=True)
class PartialProductTable:
    """All n block products for one modulus, 1-indexed via block()."""

    p: int
    n: int
    values: tuple[int, ...]
    generalized: bool

    def block(self, k: int) -> int:
        if not 1 <= k <= self.n:
            raise ValueError(f"block index must lie in 1..{self.n}, got {k}")
        return self.values[k - 1]

    def prefix_factorials(self) -> tuple[int, ...]:
        """Cumulative products: entry i-1 is blocks 1..i multiplied out mod p.

        For the plain table this is (i * (p-1)/n)! mod p.
        """
        out = []
        acc = 1
        for v in self.values:
            acc = acc * v % self.p
            out.append(acc)
        return tuple(out)

    def full_product(self) -> int:
        """Product of every block, i.e. (p-1)! mod p; equals p - 1 by Wilson."""
        return self.prefix_factorials()[-1]


def load_block_tables(p: int, layouts) -> list[PartialProductTable]:
    """The table of every (n, generalized) layout, from p's context.

    Layouts are taken as valid; the ones the context lacks are computed
    together, by one range query over all of their blocks.
    """
    ctx = prime_context(p)
    missing = [key for key in dict.fromkeys(layouts) if key not in ctx.tables]
    if missing:
        ranges = [block_ranges(p, n, generalized) for n, generalized in missing]
        lo, hi = np.array([r for rs in ranges for r in rs], dtype=np.int64).T
        values = iter(ctx.range_products(lo, hi).tolist())
        for (n, generalized), rs in zip(missing, ranges):
            ctx.tables[n, generalized] = PartialProductTable(
                p=p, n=n, values=tuple(islice(values, len(rs))),
                generalized=generalized)
    return [ctx.tables[key] for key in layouts]


def partial_products(p: int, n: int) -> PartialProductTable:
    """Block products for equal blocks of length (p-1)/n; needs n | p - 1."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if (p - 1) % n:
        raise ValueError(f"n must divide p - 1, got p={p}, n={n}")
    return load_block_tables(p, [(n, False)])[0]


def generalized_partial_products(p: int, q: int) -> PartialProductTable:
    """Floor-cut block products; defined for any odd primes q < p."""
    _check_odd_prime(q, "q")
    if q >= p:
        raise ValueError(f"q must be smaller than p, got p={p}, q={q}")
    return load_block_tables(p, [(q, True)])[0]


def residue_mask(p: int) -> np.ndarray:
    """Boolean array of length p: entry v is True iff v is a nonzero square
    mod p.  Built on each call; the package itself counts residues without it."""
    squares = prime_context(p).squares
    mask = np.zeros(p, dtype=bool)
    mask[squares] = True
    return mask


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
    generalized: bool

    def block_size(self, k: int) -> int:
        return self.residues[k - 1] + self.nonresidues[k - 1]


def block_counts(p: int, q: int, generalized: bool = False) -> BlockCounts:
    """Count residues/nonresidues inside each block of 1..p-1."""
    ctx = prime_context(p)
    _check_odd_prime(q, "q")
    if generalized:
        if q >= p:
            raise ValueError(f"q must be smaller than p, got p={p}, q={q}")
    elif (p - 1) % q:
        raise ValueError(f"q must divide p - 1, got p={p}, q={q}")
    lo, hi = np.array(block_ranges(p, q, generalized), dtype=np.int64).T
    res = ctx.residue_counts(hi) - ctx.residue_counts(lo - 1)
    return BlockCounts(p=p, q=q, residues=tuple(res.tolist()),
                       nonresidues=tuple((hi - lo + 1 - res).tolist()),
                       generalized=generalized)


def selected_block_indices(q: int) -> tuple[int, ...]:
    """Lower-half indices k whose offset (q+1)/2 - k from the center is odd."""
    if q < 3 or q % 2 == 0:
        raise ValueError(f"q must be an odd number >= 3, got {q}")
    center = (q + 1) // 2
    return tuple(k for k in range(1, (q - 1) // 2 + 1) if (center - k) % 2 == 1)


def theorem1_product(p: int, q: int, generalized: bool = False) -> int:
    """Product over the selected lower-half blocks, reduced mod p."""
    table = generalized_partial_products(p, q) if generalized else partial_products(p, q)
    acc = 1
    for k in selected_block_indices(q):
        acc = acc * table.values[k - 1] % p
    return acc


def enlarged_block_index(q: int) -> int:
    """Lower-half index whose block is one longer when p == 3 (mod q), q > 3.

    Evaluates (q + 2 + ((q|3) - 1)/2) / 3.  For a prime q > 3 the numerator
    2(q + 2) + (q|3) - 1 is 2(q + 2) or 2(q + 1), so the index is always
    ceil(q/3), in 2..(q-1)/2; verify_theorem4 checks it against the
    measured block sizes, so a wrong index shows as a failed verdict.
    """
    if q <= 3 or not is_prime(q):
        raise ValueError(f"q must be a prime > 3, got {q}")
    return (2 * (q + 2) + (0, 1, -1)[q % 3] - 1) // 6
