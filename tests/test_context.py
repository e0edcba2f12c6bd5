import math
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest

import gaussprod.context as context
import gaussprod.products as products
from gaussprod.context import PrimeContext, prime_context
from gaussprod.products import block_counts, load_block_tables, residue_mask
from gaussprod.scan import ScanConfig, run_scan
from gaussprod.theorems import THEOREM_IDS

from oracles import (naive_block_counts, naive_is_prime, naive_legendre,
                     naive_partial_products)

ODD_PRIMES_600 = [p for p in range(3, 600) if naive_is_prime(p)]


@pytest.fixture
def empty_slot(monkeypatch):
    monkeypatch.setattr(context, "_slot", None)


def test_block_tables_match_naive_products(empty_slot):
    # floor-cut blocks at every odd prime q < p and equal blocks at every
    # q | p - 1, all from one batched query per p, as in a scan; the two
    # families share the table of each n
    for p in ODD_PRIMES_600:
        qs = [q for q in ODD_PRIMES_600 if q < p]
        split = [q for q in qs if p % q == 1]
        tables = load_block_tables(p, qs + split)
        for q, table in zip(qs, tables):
            want = naive_partial_products(p, q, generalized=True)
            assert list(table.values) == want, (p, q)
        for q, table in zip(split, tables[len(qs):]):
            assert list(table.values) == naive_partial_products(p, q), (p, q)
        tables_by_n = prime_context(p).tables
        assert sorted(tables_by_n) == qs, p
        assert all(tables_by_n[q] is t for q, t in zip(qs + split, tables)), p


def test_residue_counts_match_naive():
    for p in ODD_PRIMES_600:
        squares = {x * x % p for x in range(1, p)}
        want = list(accumulate(x in squares for x in range(p)))
        ctx = PrimeContext(p)
        assert ctx.residue_counts(np.arange(p)).tolist() == want, p
        assert int(ctx.residue_counts(p - 1)) == (p - 1) // 2, p


def test_block_counts_match_naive(empty_slot):
    # every odd prime q < p in the floor-cut layout, and every such q with
    # p == 1 (mod q) in the equal-block layout
    for p in ODD_PRIMES_600:
        for q in [q for q in ODD_PRIMES_600 if q < p]:
            for generalized in (True, False) if p % q == 1 else (True,):
                c = block_counts(p, q, generalized)
                want = naive_block_counts(p, q, generalized)
                assert (list(c.residues), list(c.nonresidues)) == want, (
                    p, q, generalized)


def test_half_factorial_matches_math_factorial():
    for p in ODD_PRIMES_600:
        ctx = PrimeContext(p)
        half = (p - 1) // 2
        assert int(ctx.factorials([half])[0]) == math.factorial(half) % p, p
        xs = list(range(p))
        assert ctx.factorials(xs).tolist() == [math.factorial(x) % p for x in xs]


MID_P = 999983


def test_reduce_matches_remainder():
    rng = np.random.default_rng(8)
    for p in (3, 549979, 2**31 - 1):
        top = (p - 1) ** 2
        edges = [0, p - 1, p, 2 * p, 12345 * p, top // p * p, top]
        a = np.concatenate((rng.integers(0, top, 100_000, endpoint=True),
                            np.array(edges, dtype=np.int64)))
        want = a % p
        assert context._reduce(a, p) is a, p
        assert np.array_equal(a, want), p
    # the quotient buffer is kept: a smaller array reuses it
    buffer = context._quotient
    context._reduce(np.arange(1000, dtype=np.int64), 7)
    assert context._quotient is buffer


def test_kernels_at_a_mid_size_prime():
    # the lower tree levels and the squares are far larger than anything
    # the tests at p < 600 reach; the references are plain Python loops
    p = MID_P
    ctx = PrimeContext(p)
    j = np.arange(1, p, dtype=np.int64)
    assert np.array_equal(ctx.squares, np.unique(j * j % p))
    running = [1]
    for x in range(1, p):
        running.append(running[-1] * x % p)
    rng = np.random.default_rng(9)
    xs = [0, 1, 2, (p - 1) // 2, p - 2, p - 1] + rng.integers(0, p, 44).tolist()
    assert ctx.factorials(xs).tolist() == [running[x] for x in xs]
    assert running[p - 1] == p - 1  # Wilson
    ranges = [(1, p - 1), (2, (p - 1) // 2), (5, 4), (p - 3, p + 2),
              (123457, 876543), (p - 1, p - 1)]
    lo, hi = (np.array(r, dtype=np.int64) for r in zip(*ranges))
    want = [0 if h >= p else running[h] * pow(running[l - 1], -1, p) % p
            for l, h in ranges]
    assert ctx.range_products(lo, hi).tolist() == want


def test_tree_stores_no_leaves():
    # p - 1 leaves have p - 2 inner nodes; each level carries at most one
    # node up unpaired, which is stored once more
    ctx = PrimeContext(MID_P)
    tree = ctx._tree
    assert tree[0].size == (MID_P - 1) // 2
    assert tree[-1].size == 1
    assert sum(level.nbytes for level in tree) <= 8 * (MID_P - 2 + len(tree))


def test_legendre_matches_naive():
    for p in ODD_PRIMES_600[:40]:
        ctx = PrimeContext(p)
        for a in range(-3, 2 * p + 1):
            assert ctx.legendre(a) == naive_legendre(a, p), (p, a)


def test_context_rejects_unsupported_p():
    for bad in (1, 2, 9, 561):
        with pytest.raises(ValueError, match="odd prime"):
            PrimeContext(bad)
    # 2**31 + 11 is prime but too large for the int64 kernel
    with pytest.raises(ValueError, match="2\\*\\*31"):
        PrimeContext(2**31 + 11)
    with pytest.raises(ValueError, match="2\\*\\*31"):
        residue_mask(2**31 + 11)


def test_scan_config_rejects_p_max_above_2_31():
    ScanConfig(p_max=2**31, theorems=("t1",))
    with pytest.raises(ValueError, match="p_max"):
        ScanConfig(p_max=2**31 + 1, theorems=("t1",))


def test_slot_keeps_the_latest_context(empty_slot):
    ctx = prime_context(43)
    assert prime_context(43) is ctx
    assert prime_context(47) is not ctx
    assert prime_context(43) is not ctx


def test_scan_builds_one_context_per_prime(monkeypatch, empty_slot):
    built = Counter()

    class Counting(PrimeContext):
        def __init__(self, p):
            built[p] += 1
            super().__init__(p)

    monkeypatch.setattr(context, "PrimeContext", Counting)
    report = run_scan(ScanConfig(p_max=2000, theorems=THEOREM_IDS,
                                 q_values=(3, 5, 7, 11), workers=1))
    assert set(built) == {v.p for v in report.verdicts}
    assert set(built.values()) == {1}


def test_scan_never_builds_a_mask(monkeypatch, empty_slot):
    # residue counts come from the sorted squares; the p-sized mask and its
    # cumulative counts are public helpers only, built on demand
    def refuse(p):
        raise AssertionError(f"residue table built at p={p}")

    monkeypatch.setattr(products, "residue_mask", refuse)
    monkeypatch.setattr(products, "residue_cumulative_counts", refuse)
    report = run_scan(ScanConfig(p_max=2000, theorems=THEOREM_IDS, workers=1))
    assert {v.theorem_id for v in report.verdicts} == set(THEOREM_IDS)
    assert all(v.passed for v in report.verdicts)
    ctx = PrimeContext(1999)
    assert ctx.squares.size == 999
    for name in ("mask", "cum"):
        assert not hasattr(ctx, name), name
