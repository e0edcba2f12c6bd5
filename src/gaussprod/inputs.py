"""The inputs of every verdict of a unit of primes, from one vectorised pass.

A unit is loaded in parts of whole batches of consecutive primes.  For a
part, products gathers every block table and block count as flat arrays,
one tree and one residue index per batch; then one numpy pass per claim
and width class of q computes that claim's inputs over all of its (p, q)
in the part at once, padded to the widest q: the selected-block products
of t1-t4, corollary's block values, symmetry's mirror mismatches, central
and full products, t3's cut sizes, the size checks and weighted count sums
of t4 and eq2_parity, and the running factorial products of eq_a and t2.
eq_a and t2 share one norm-form representation per (p, q).  The part's
tables then go; only the input columns and the pending Legendre symbols
cross parts.  Every symbol of the unit, each q, each representation's
(a|p) and each (2|p) that h(-p) needs among them, comes from one Euler
pass at the end; h(-p) from the residue counts of 1..(p-1)/2 where the
part built p's index, streamed elsewhere.  Each part then goes out as
(p, (theorem_id, q), inputs) per verdict, for the bodies in theorems.

int64 stays exact: p < 2**31, so a product of two residues lies below
2**62, and a weighted count sum, at most (p/q + 1) per block times weights
summing to (q*q - 1)/8, below 2**59 for q < p.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate

import numpy as np

from .arith import _legendre
from .classnum import _dirichlet, _half_interval_h, _representation, square_subgroup
from .products import (_block_counts, _block_values, _distinct, _enlarged_index,
                       selected_block_indices)


def _fold(values: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The product mod p of each row of values, a (rows, width) int64 array
    of residues that is overwritten; p is the column of the rows' primes.
    The products are a copy, which keeps no view of values alive."""
    width = values.shape[1]
    while width > 1:
        half = width // 2
        values[:, :half] *= values[:, width - half:width]
        values[:, :half] %= p
        width -= half
    return values[:, 0].copy()


def _running(values: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The running products mod p along each row of values, in place, by
    doubling shifts: log2(width) passes."""
    shift = 1
    while shift < values.shape[1]:
        values[:, shift:] = values[:, shift:] * values[:, :-shift] % p
        shift *= 2
    return values


# below this many symbols a pow per symbol beats the vectorised criterion
_EULER_VECTOR_FROM = 24


def _symbols(pairs) -> list[np.ndarray]:
    """(a|p) elementwise for each (a, p) pair of 1-D int64 arrays, all in
    one call of _euler, or by pow when there are few."""
    sizes = [a.size for a, _ in pairs]
    if sum(sizes) < _EULER_VECTOR_FROM:
        return [np.array([_legendre(x, m) for x, m in zip(a.tolist(), p.tolist())], dtype=np.int64)
                for a, p in pairs]
    found = _euler(np.concatenate([a for a, _ in pairs]), np.concatenate([p for _, p in pairs]))
    ends = list(accumulate(sizes))
    return [found[a:b] for a, b in zip([0] + ends, ends)]


def _euler(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(a|p) elementwise for 1-D int64 0 <= a < p, p an odd prime below
    2**31, with arith._legendre's values: a**((p-1)/2) mod p by square and
    multiply, so that every product of two residues lies below 2**62, and
    -1 where that is p - 1."""
    e, base, t = p >> 1, a, np.ones_like(a)
    while True:
        t = np.where(e & 1, t * base % p, t)
        e = e >> 1
        if not e.any():
            break
        base = base * base % p
    return np.where(t == p - 1, -1, t)


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The distinct entries of a fresh array, ascending."""
    a.sort()
    return _distinct(a)


# an offset past every block: it reads the entry after the last, a 1 among
# block values and a 0 among counts
_PAST = 1 << 40


def _per_q(rule, qs, pad: int = _PAST) -> np.ndarray:
    """The rows rule(q) for q in qs, each padded on the right with pad to the
    longest."""
    rows = [_row(rule, q) for q in qs]
    out = np.full((len(rows), max(row.size for row in rows)), pad, dtype=np.int64)
    for i, row in enumerate(rows):
        out[i, :row.size] = row
    return out


@cache
def _row(rule, q: int) -> np.ndarray:
    """rule(q) as an array, kept per (rule, q): the set of q of a part
    varies from part to part, the q do not."""
    return np.array(rule(q), dtype=np.int64)


# rows of _per_q: block offsets k - 1 of q blocks, or weights by block

def _selected_offsets(q: int) -> list[int]:
    return [k - 1 for k in selected_block_indices(q)]


def _block_offsets(q: int) -> list[int]:
    return list(range(q))


def _mirror_offsets(q: int) -> list[int]:
    return list(range(q - 1, -1, -1))


def _factorial_offsets(q: int) -> list[int]:
    return list(range(q - 1))


def _lower_offsets(q: int) -> list[int]:
    return list(range((q - 1) // 2))


def _lower_weights(q: int) -> list[int]:
    """Block k <= (q-1)/2 weighs (q+1)/2 - k."""
    return list(range((q - 1) // 2, 0, -1))


def _enlarged(q: int) -> list[int]:
    """1 at the blocks that are one longer when p == 3 (mod q)."""
    kstar = _enlarged_index(q)
    return [int(k in (kstar, q + 1 - kstar)) for k in range(1, q + 1)]


def _negative_squares(q: int) -> list[int]:
    """1 at the i in 1..q-1 with -i a square mod q."""
    return [int(i in square_subgroup(q).neg_square_indices) for i in range(1, q)]


def _beta(q: int) -> list[int]:
    return [int(square_subgroup(q).beta)]


class _Unit:
    """The flat data of a part of a unit's verdicts.  Row r is its r-th prime
    p[r], with h[r] = h(-p) where a claim at p reads it.  A block table or
    block count layout of n blocks at row r is keyed r << 32 | n, and the
    keys ascend; layout i's block k is values[t_start[i] + k - 1], and its
    counts are residues and nonresidues at c_start[i] + k - 1.  Request j is
    the claim pairs[j] = (theorem_id, q) at row row[j], with q[j] (0 for
    None).  groups lists (theorem_id, requests, qs): the requests of one
    claim in one width class of q (below 4, below 32, below 256, ...), so
    that padding to the group's widest q at most multiplies its entries by
    8, and the group's distinct q, request j's being qs[local[j]].

    Each batch's tables come from one tree and its counts from one index
    build, which go before the next batch loads (see products).  A row
    with counts also counts the blocks of n = 2, whose first block holds
    the residues in 1..(p-1)/2 that give h(-p), kept in half_residues at
    the rows indexed.  representations keeps the norm-form representation
    of each (p, q) that eq_a or t2 reads, made once for the two."""

    def __init__(self, batches, regimes) -> None:
        entries = [entry for batch in batches for entry in batch]
        self.primes = [p for p, _ in entries]
        self.pairs = [pair for _, work in entries for pair in work]
        self.p = p = np.array(self.primes, dtype=np.int64)
        self.representations: dict = {}
        self.row = np.arange(p.size).repeat([len(work) for _, work in entries])
        # each distinct claim pair's q, n, group, place in its group and
        # what it reads, then each request's by the pair's code
        codes: dict = {}
        code = np.array([codes.setdefault(pair, len(codes)) for pair in self.pairs])
        claims = [(tid, q or 0, regimes[tid]) for tid, q in codes]
        names: dict = {}
        for tid, q, _ in claims:
            names.setdefault((tid, q.bit_length() // 3), []).append(q)
        number = {name: i for i, name in enumerate(sorted(names))}
        q, n, group, local, blocks, counts, reads_h = np.array(
            [(q, q if reg.p_mod_q else 2, number[tid, q.bit_length() // 3],
              names[tid, q.bit_length() // 3].index(q), reg.blocks, reg.counts, reg.class_number)
             for tid, q, reg in claims], dtype=np.int64)[code].T
        self.q, self.local = q.copy(), local.copy()
        if len(names) == 1:
            [((tid, _), qs)] = names.items()
            self.groups = [(tid, np.arange(code.size), tuple(qs))]
        else:
            order = group.argsort(kind="stable")
            ends = np.bincount(group).cumsum().tolist()
            self.groups = [(tid, order[a:b], tuple(names[tid, c]))
                           for (tid, c), a, b in zip(sorted(names), [0] + ends, ends)]
        key = self.row << 32 | n
        stops = list(accumulate(map(len, batches)))
        self.t_key = _sorted_distinct(key[blocks == 1])
        n = self.t_key & 0xFFFFFFFF
        self.t_start = n.cumsum() - n
        self.values = np.concatenate((_block_values(p.tolist(), self.t_key >> 32, n, stops), [1]))
        self.indexed = self.c_key = self.c_start = p[:0]
        self.residues = self.nonresidues = np.zeros(1, dtype=np.int64)
        if any(reg.counts for _, _, reg in claims):
            self.indexed = _sorted_distinct(self.row[counts == 1])
            halves = self.indexed << 32 | 2
            self.c_key = _sorted_distinct(np.concatenate((key[counts == 1], halves)))
            n = self.c_key & 0xFFFFFFFF
            self.c_start = (n + 1).cumsum() - n - 1
            self.residues, self.nonresidues = (
                np.concatenate((c, [0]))
                for c in _block_counts(p.tolist(), self.c_key >> 32, n, stops))
            self.half_residues = self.residues[self.c_start[self.c_key.searchsorted(halves)]]
        # h(-p) streams at the rows that read it and built no index
        self.h = np.zeros(p.size, dtype=np.int64)
        if any(reg.class_number for _, _, reg in claims):
            streamed = set(self.row[reads_h == 1].tolist()).difference(self.indexed.tolist())
            for r in sorted(streamed):
                self.h[r] = _dirichlet(self.primes[r]).h

    def blocks(self, rows, n, offsets) -> np.ndarray:
        """The values of blocks offsets + 1 (a row of offsets per entry of
        rows, _PAST for none) of the table of n blocks at each row."""
        start = self.t_start[self.t_key.searchsorted(rows << 32 | n)]
        return self.values[np.minimum(start[:, None] + offsets, self.values.size - 1)]

    def counts(self, rows, n, offsets) -> tuple[np.ndarray, np.ndarray]:
        """The residues and nonresidues of blocks offsets + 1, as blocks()."""
        start = self.c_start[self.c_key.searchsorted(rows << 32 | n)]
        at = np.minimum(start[:, None] + offsets, self.residues.size - 1)
        return self.residues[at], self.nonresidues[at]

    def represent(self, rows, q) -> tuple[list, np.ndarray]:
        """The representation of 4*p**h(-q) at each (row, q), and the
        column of its a mod p."""
        reps = []
        for key in zip(map(self.primes.__getitem__, rows.tolist()), q.tolist()):
            if key not in self.representations:
                self.representations[key] = _representation(*key)
            reps.append(self.representations[key])
        return reps, np.array([rep.a % rep.p for rep in reps], dtype=np.int64)


# Each claim's inputs over one group: rows r, q and the distinct qs, request
# j's being qs[local[j]].  A claim returns the (a, p) columns whose symbols
# it needs and a function from those symbols to its input columns, one
# entry of each column per request.

def _mordell_inputs(u: _Unit, r, q, qs, local):
    p = u.p[r]
    half_fact = u.blocks(r, 2, np.zeros((r.size, 1), dtype=np.int64))[:, 0]
    computed = np.where(half_fact == 1, 1, np.where(half_fact == p - 1, -1, half_fact))
    return [], lambda: (half_fact, computed, u.h[r])


def _t1_inputs(u: _Unit, r, q, qs, local):
    p = u.p[r]
    value = _fold(u.blocks(r, q, _per_q(_selected_offsets, qs)[local]), p[:, None])
    return [(value, p)], lambda sym: (value, sym)


def _corollary_inputs(u: _Unit, r, q, qs, local):
    offsets = _per_q(_selected_offsets, qs)[local]
    selected = offsets < _PAST
    p = np.broadcast_to(u.p[r, None], offsets.shape)

    def finish(sym):
        syms = np.ones(offsets.shape, dtype=np.int64)
        syms[selected] = sym
        return syms, (syms < 0).sum(1) % 2
    return [(u.blocks(r, q, offsets)[selected], p[selected])], finish


def _eq_a_inputs(u: _Unit, r, q, qs, local):
    # the block factorials c_i!, i = 1..q-1, over the i with -i a square mod q
    p = u.p[r]
    acc = _running(u.blocks(r, q, _per_q(_factorial_offsets, qs)[local]), p[:, None])
    val = _fold(np.where(_per_q(_negative_squares, qs, 0)[local] == 1, acc, 1), p[:, None])
    beta = _per_q(_beta, qs)[local, 0]
    val = np.where(beta & 1, p - val, val)
    reps, a = u.represent(r, q)
    return [(val, p), (a, p)], lambda sym, a_sym: (sym, beta, reps, a_sym)


def _t2_inputs(u: _Unit, r, q, qs, local):
    # the selected product against the product of the first (q-1)/2 block
    # factorials
    p = u.p[r]
    selected = _fold(u.blocks(r, q, _per_q(_selected_offsets, qs)[local]), p[:, None])
    offsets = _per_q(_lower_offsets, qs)[local]
    acc = _running(u.blocks(r, q, offsets), p[:, None])
    val = _fold(np.where(offsets < _PAST, acc, 1), p[:, None])
    reps, a = u.represent(r, q)
    return ([(selected, p), (val, p), (a, p)],
            lambda s, t, a_sym: ((s == t).astype(np.int64), reps, a_sym))


def _t3_inputs(u: _Unit, r, q, qs, local):
    # every block has (p-2)/q elements but the central one, which has one
    # more; block k = offset + 1, the padding read as block q
    p = u.p[r]
    value = _fold(u.blocks(r, q, _per_q(_selected_offsets, qs)[local]), p[:, None])
    qc, pc = q[:, None], p[:, None]
    k = np.minimum(_per_q(_block_offsets, qs)[local] + 1, qc)
    sizes = np.where(k == qc, pc - 1, k * pc // qc) - (k - 1) * pc // qc
    sizes_ok = (sizes == (pc - 2) // qc + (k == (qc + 1) // 2)).all(1).astype(np.int64)
    return [(value, p)], lambda sym: (value, sym, sizes_ok, u.h[r])


def _t4_inputs(u: _Unit, r, q, qs, local):
    p = u.p[r]
    value = _fold(u.blocks(r, q, _per_q(_selected_offsets, qs)[local]), p[:, None])
    offsets = _per_q(_block_offsets, qs)[local]
    res, non = u.counts(r, q, offsets)
    size = (p - 3) // q
    longer = _per_q(_enlarged, qs, 0)[local]
    sizes_ok = ((res + non == size[:, None] + longer) | (offsets == _PAST)).all(1).astype(np.int64)
    weight = _per_q(_lower_weights, qs, 0)[local]
    rhs = (non[:, :weight.shape[1]] * weight).sum(1)
    return [(value, p), (q, p)], lambda sym, s: (value, sym, sizes_ok, rhs, s, u.h[r])


def _eq2_parity_inputs(u: _Unit, r, q, qs, local):
    # past a row's lower half the counts are 0
    p = u.p[r]
    res, non = u.counts(r, q, _per_q(_lower_offsets, qs)[local])
    weight = _per_q(_lower_weights, qs, 0)[local]
    columns = ((res - non) * weight).sum(1), (non * weight).sum(1), (non * (weight & 1)).sum(1) % 2
    return [(q, p)], lambda s: (*columns, s, u.h[r])


def _symmetry_inputs(u: _Unit, r, q, qs, local):
    # block q+1-k against block k, the central block and the full product
    p = u.p[r]
    values = u.blocks(r, q, _per_q(_block_offsets, qs)[local])
    mismatches = (values != u.blocks(r, q, _per_q(_mirror_offsets, qs)[local])).sum(1)
    central = u.blocks(r, q, ((q - 1) // 2)[:, None])[:, 0]
    full = _fold(values, p[:, None])
    return [(central, p), (full, p)], lambda c, w: (mismatches, central, c, full, w)


_INPUTS = {"mordell": _mordell_inputs, "t1": _t1_inputs, "corollary": _corollary_inputs,
           "eq_a": _eq_a_inputs, "t2": _t2_inputs, "t3": _t3_inputs, "t4": _t4_inputs,
           "eq2_parity": _eq2_parity_inputs, "symmetry": _symmetry_inputs}


# the requests of one part of a unit (see _load_unit), unless one batch has more
_PART_REQUESTS = 2048


def _parts(batches):
    """Runs of consecutive batches of at most _PART_REQUESTS requests each,
    or one batch."""
    part, size = [], 0
    for batch in batches:
        requests = sum(len(work) for _, work in batch)
        if part and size + requests > _PART_REQUESTS:
            yield part
            part, size = [], 0
        part.append(batch)
        size += requests
    if part:
        yield part


def _load_unit(batches, regimes):
    """Yield each part of a unit as the list of (p, (theorem_id, q), inputs)
    of its verdicts, in the order of the batches and of each prime's work.

    batches lists the unit's batches, each a list of (p, ((theorem_id, q),
    ...)) for consecutive primes, and regimes maps each theorem_id to its
    theorems.Regime.  The unit is loaded in parts of whole batches
    (_parts), each a _Unit whose tables, counts and representations go once
    each group of a claim's requests has made its pass over them, padded to
    its widest q; only the input columns and the pending symbols cross
    parts.  Every symbol comes from one Euler pass after all parts.  Then,
    part by part as the caller takes them, h(-p) comes from the residue
    counts and (2|p), and each group's columns are zipped into its
    verdicts' inputs, so that the caller can use and drop one part's inputs
    before the next's are made."""
    loaded, symbols = [], []
    for part in _parts(batches):
        u = _Unit(part, regimes)
        steps = []
        if u.indexed.size:
            # (2|p) for h(-p) at the rows that built an index
            steps.append((None, None, 1))
            symbols.append((np.full_like(u.indexed, 2), u.p[u.indexed]))
        for tid, group, qs in u.groups:
            wanted, finish = _INPUTS[tid](u, u.row[group], u.q[group], qs, u.local[group])
            steps.append((group, finish, len(wanted)))
            symbols += wanted
        u.values = u.residues = u.nonresidues = u.representations = None
        loaded.append((u, steps))
    found = iter(_symbols(symbols))
    loaded.reverse()
    while loaded:
        u, steps = loaded.pop()
        inputs = [None] * len(u.pairs)
        for group, finish, count in steps:
            got = [next(found) for _ in range(count)]
            if finish is None:
                u.h[u.indexed] = _half_interval_h(u.p[u.indexed], u.half_residues, *got)
                continue
            columns = [np.asarray(c).tolist() for c in finish(*got)]
            for j, item in zip(group.tolist(), zip(*columns)):
                inputs[j] = item
        verdicts = list(zip(map(u.primes.__getitem__, u.row.tolist()), u.pairs, inputs))
        del u, steps, inputs
        yield verdicts
