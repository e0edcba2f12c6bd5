import math
import sys
from collections import Counter
from itertools import accumulate, islice

import numpy as np
import pytest

import gaussprod.arith as arith
import gaussprod.classnum as classnum
import gaussprod.context as context
import gaussprod.products as products
from gaussprod import block_counts, residue_mask
from gaussprod.context import _check_prime, _set_bits_through, half_products
from gaussprod.products import _block_counts, _block_values
from gaussprod.scan import ScanConfig, _resolved_q, run_scan
from gaussprod.theorems import _VERIFIERS, REGIMES, THEOREM_IDS, verify

from oracles import (naive_block_counts, naive_is_prime, naive_legendre,
                     naive_partial_products)

ODD_PRIMES_600 = [p for p in range(3, 600) if naive_is_prime(p)]


def layouts_below(p):
    """Floor-cut blocks at every odd prime q < p, then equal blocks at every
    n | p - 1 among the odd primes q and the even n = 2, (p-1)/2 and p - 1;
    the two families share the table of each n."""
    qs = [q for q in ODD_PRIMES_600 if q < p]
    equal = [q for q in qs if p % q == 1]
    return qs, equal + [n for n in (2, (p - 1) // 2, p - 1) if n > 1]


def batch_layouts(primes, sizes):
    """(rows, ns) of every layout of a batch, as _block_values and
    _block_counts take them: rows ascend, and sizes[r] holds the n of row
    r's layouts."""
    rows = np.repeat(np.arange(len(primes)), [len(ns) for ns in sizes])
    return rows, np.array([n for ns in sizes for n in ns], dtype=np.int64)


def per_layout(flat, ns, extra=0):
    """The first n entries of each layout's extra + n flat entries, as a
    list, one per n in ns."""
    ends = list(accumulate(n + extra for n in ns))
    return [flat[b - n - extra:b - extra].tolist() for n, b in zip(ns, ends)]


def test_block_tables_match_naive_products(monkeypatch):
    # every layout of one p from one call, as a one-row batch; then every
    # odd prime p < 600 as one batch, rows from h = 1 (p = 3) to h = 299,
    # odd and even h, the short rows padded with ones
    trees = []
    build = context._half_tree
    monkeypatch.setattr(context, "_half_tree", lambda primes: trees.append(primes) or build(primes))
    want, sizes = {}, []
    for p in ODD_PRIMES_600:
        qs, equal = layouts_below(p)
        want[p] = [naive_partial_products(p, q, generalized=True) for q in qs]
        want[p] += [naive_partial_products(p, n) for n in equal]
        rows, ns = batch_layouts([p], [qs + equal])
        assert per_layout(_block_values([p], rows, ns, [1]), ns) == want[p], p
        sizes.append(qs + equal)
    assert trees == [[p] for p in ODD_PRIMES_600]
    trees.clear()
    rows, ns = batch_layouts(ODD_PRIMES_600, sizes)
    got = per_layout(_block_values(ODD_PRIMES_600, rows, ns, [len(ODD_PRIMES_600)]), ns)
    assert got == [table for p in ODD_PRIMES_600 for table in want[p]]
    assert trees == [ODD_PRIMES_600]


def test_residue_counts_match_naive():
    for p in ODD_PRIMES_600:
        squares = {x * x % p for x in range(1, p)}
        want = list(accumulate(x in squares for x in range(p)))
        words, rank = context._residue_indexes([p])
        assert _set_bits_through(words[0], rank[0], np.arange(p)).tolist() == want, p
        assert int(_set_bits_through(words[0], rank[0], np.array(p - 1))) == (p - 1) // 2, p


def test_block_counts_match_naive():
    # every odd prime q < p in the floor-cut layout, and every such q with
    # p == 1 (mod q) in the equal-block layout
    for p in ODD_PRIMES_600:
        for q in [q for q in ODD_PRIMES_600 if q < p]:
            for generalized in (True, False) if p % q == 1 else (True,):
                c = block_counts(p, q, generalized)
                want = naive_block_counts(p, q, generalized)
                assert (list(c.residues), list(c.nonresidues)) == want, (
                    p, q, generalized)


def test_block_counts_of_a_batch_match_naive(monkeypatch):
    # every odd prime p < 600 as one batch: rows from h = 1 (p = 3) to 299,
    # and j up to 299 reaches multiples of the small p.  The batch's counts
    # come from one index build, each row of the batch's index is the
    # one-row build padded with zero words, and every floor-cut and equal
    # layout matches the naive counts; a public query is a one-row build
    builds = []
    build = context._residue_indexes
    monkeypatch.setattr(context, "_residue_indexes",
                        lambda primes: builds.append(primes) or build(primes))
    sizes = [qs + equal for qs, equal in map(layouts_below, ODD_PRIMES_600)]
    rows, ns = batch_layouts(ODD_PRIMES_600, sizes)
    residues, nonresidues = _block_counts(ODD_PRIMES_600, rows, ns, [len(ODD_PRIMES_600)])
    assert builds == [ODD_PRIMES_600]
    got = zip(per_layout(residues, ns, 1), per_layout(nonresidues, ns, 1))
    words, rank = build(ODD_PRIMES_600)
    for r, p in enumerate(ODD_PRIMES_600):
        one_words, one_rank = (a[0] for a in build([p]))
        used = one_words.size
        assert np.array_equal(words[r, :used], one_words), p
        assert not words[r, used:].any(), p
        assert np.array_equal(rank[r, :used], one_rank), p
        assert (rank[r, used:] == (p - 1) // 2).all(), p
        qs, equal = layouts_below(p)
        want = [naive_block_counts(p, q, generalized=True) for q in qs]
        want += [naive_block_counts(p, n) for n in equal]
        assert list(islice(got, len(want))) == want, p
    builds.clear()
    counts = block_counts(1999, 3, generalized=True)
    assert builds == [[1999]]
    assert (list(counts.residues), list(counts.nonresidues)) == naive_block_counts(
        1999, 3, generalized=True)


def running_products(p):
    """x! mod p at index x for 0 <= x <= h, and y*(y+1)*...*h mod p at
    index y - 1 for 1 <= y <= h, with h = (p-1)/2, by plain loops."""
    h = (p - 1) // 2
    prefix = [1]
    for x in range(1, h + 1):
        prefix.append(prefix[-1] * x % p)
    suffix = [h]
    for y in range(h - 1, 0, -1):
        suffix.append(suffix[-1] * y % p)
    return prefix, suffix[::-1]


def test_half_factorial_matches_math_factorial():
    halves = [(p - 1) // 2 for p in ODD_PRIMES_600]
    want = [math.factorial(h) % p for p, h in zip(ODD_PRIMES_600, halves)]
    for p, h, w in zip(ODD_PRIMES_600, halves, want):
        f, s = half_products([p], [0], [h], [0], [1])
        assert int(f[0]) == int(s[0]) == w, p
    rows = range(len(ODD_PRIMES_600))
    f, s = half_products(ODD_PRIMES_600, rows, halves, rows, [1] * len(halves))
    assert f.tolist() == s.tolist() == want


def test_walks_match_running_products():
    # every x and y at every odd prime p < 600, one row at a time and all
    # rows in one batch: p = 3, 5 and 7 have 1 to 3 leaves, h = (p-1)/2 is
    # odd at every p = 3 (mod 4), and every row but the last is padded
    xs, ys, x_rows, y_rows, prefixes, suffixes = [], [], [], [], [], []
    for r, p in enumerate(ODD_PRIMES_600):
        h = (p - 1) // 2
        prefix, suffix = running_products(p)
        f, s = half_products([p], [0] * (h + 1), range(h + 1), [0] * h, range(1, h + 1))
        assert f.tolist() == prefix, p
        assert s.tolist() == suffix, p
        xs += range(h + 1)
        ys += range(1, h + 1)
        x_rows += [r] * (h + 1)
        y_rows += [r] * h
        prefixes += prefix
        suffixes += suffix
    f, s = half_products(ODD_PRIMES_600, x_rows, xs, y_rows, ys)
    assert f.tolist() == prefixes
    assert s.tolist() == suffixes
    # the walks read every four-leaf node, among them the full nodes whose
    # y = x*x + 5x + 5 is 0 mod p, where y*y - 1 = -1 before its reduction
    zero_y = [(p, x) for p in ODD_PRIMES_600 for x in range(0, (p - 1) // 2 - 3, 4)
              if (x * x + 5 * x + 5) % p == 0]
    assert len(zero_y) == 7


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


def residue_counts_by_mask(p):
    """How many nonzero squares mod p lie in 1..x, at every x < p."""
    j = np.arange(1, p, dtype=np.int64)
    mask = np.zeros(p, dtype=np.int64)
    mask[np.unique(j * j % p)] = 1
    return np.cumsum(mask)


def test_residue_counts_at_word_boundaries():
    # p = 127 ends inside its last word, 193 and 257 one bit into a new
    # word, 4099 a few bits past word 64; x = 63 and 64 sit on either side
    # of the first word boundary
    for p in (127, 131, 191, 193, 257, 4099):
        xs = [0, 63, 64, p - 1]
        want = residue_counts_by_mask(p)[xs].tolist()
        words, rank = context._residue_indexes([p])
        assert _set_bits_through(words[0], rank[0], np.array(xs)).tolist() == want, p
        assert want[-1] == (p - 1) // 2, p


def test_kernels_at_a_mid_size_prime():
    # the lower tree levels and the residue index are far larger than
    # anything the tests at p < 600 reach; the references are plain Python
    # loops and a mask of the squares
    p, h = MID_P, (MID_P - 1) // 2
    words, rank = context._residue_indexes([p])
    counts = residue_counts_by_mask(p)
    assert np.array_equal(_set_bits_through(words[0], rank[0], np.arange(p)), counts)
    assert words.nbytes + rank.nbytes <= MID_P // 4 + 64
    running = [1]
    for x in range(1, p):
        running.append(running[-1] * x % p)
    assert running[p - 1] == p - 1  # Wilson
    rng = np.random.default_rng(9)
    xs = [0, 1, 2, h - 1, h] + rng.integers(0, h + 1, 45).tolist()
    ys = [1, 2, 3, h - 1, h] + rng.integers(1, h + 1, 45).tolist()
    f, s = half_products([p], [0] * len(xs), xs, [0] * len(ys), ys)
    assert f.tolist() == [running[x] for x in xs]
    assert s.tolist() == [running[h] * pow(running[y - 1], -1, p) % p for y in ys]
    # a two-row batch, the small prime's row padded far past its h = 8
    small = 17
    f, s = half_products([small, p], [1] * len(xs) + [0] * 9, xs + list(range(9)),
                         [1] * len(ys) + [0] * 8, ys + list(range(1, 9)))
    prefix, suffix = running_products(small)
    assert f.tolist() == [running[x] for x in xs] + prefix
    assert s.tolist() == [running[h] * pow(running[y - 1], -1, p) % p for y in ys] + suffix
    # and a two-row residue index, the small prime's row padded far past 17
    words, rank = context._residue_indexes([p, small])
    assert np.array_equal(_set_bits_through(words[0], rank[0], np.arange(p)), counts)
    assert np.array_equal(_set_bits_through(words[1], rank[1], np.arange(small)),
                          residue_counts_by_mask(small))
    # blocks from both walks and their mirrors, against the running product:
    # n = 2, odd floor-cut n and the equal blocks of 999982 = 2 * 499991,
    # in one call whose points fill more than one pass of _CHUNK
    ns = np.array([2, 3, 97, 499991])
    tables = per_layout(_block_values([p], np.zeros(ns.size, dtype=np.int64), ns, [1]), ns)
    for n, table in zip(ns.tolist(), tables):
        cuts = [k * p // n for k in range(n)] + [p - 1]
        want = [running[c] * pow(running[b], -1, p) % p
                for b, c in zip(cuts, cuts[1:])]
        assert table == want, n


def test_four_leaves_at_the_largest_prime():
    # the lowest stored level's kernel at p = 2**31 - 1, without its tree:
    # x = 0, 4, ... and the last multiple of 4 below h = 2**30 - 1, where
    # y = x*x + 5x + 5 nears 2**60 and (y mod p)**2 nears 2**62
    p = 2**31 - 1
    h = (p - 1) // 2
    xs = list(range(0, 4000, 4)) + [h - h % 4 - 4, h - h % 4]
    got = context._four_leaves(np.array(xs), p)
    assert got.tolist() == [(x + 1) * (x + 2) * (x + 3) * (x + 4) % p for x in xs]
    # and against a column of primes, one row each
    column = np.array([[p], [MID_P], [7]])
    rows = context._four_leaves(np.array(xs), column, np.empty((3, len(xs)), dtype=np.int64))
    assert rows.tolist() == [[(x + 1) * (x + 2) * (x + 3) * (x + 4) % q for x in xs]
                             for q in (p, MID_P, 7)]


def test_tree_stores_no_leaves_and_no_pairs():
    # h = (p-1)/2 leaves; the lowest stored level has ceil(h/4) four-leaf
    # nodes, and a level of odd length is stored with a trailing 1, its
    # last node carried up unpaired
    h = (MID_P - 1) // 2
    flat, offset, width = context._half_tree([MID_P])
    levels = offset.size - 1
    first = -(-h // 4)  # the length of level 2, then its padding
    assert offset[:4, 0].tolist() == [0, 0, 0, first + first % 2]
    assert width[:3, 0].tolist() == [0, 0, first + first % 2]
    assert flat[-1] == 1
    assert flat.nbytes <= 8 * (h / 2 + levels)
    assert flat.nbytes <= 2 * MID_P + 1024
    # a batch stores rows times each level of the widest row's tree
    flat, offset, width = context._half_tree([7, 97, MID_P])
    assert flat.size == 3 * width.sum()
    assert offset[1:, 0].tolist() == (3 * np.cumsum(width[:-1, 0])).tolist()
    assert flat[-1] == 1


def test_tree_storage_is_kept_and_never_shared(monkeypatch):
    # the storage grows to a power of two and is then reused by every batch
    # and every one-row query that fits, and no table returned keeps a view
    # of it: a tree lives only within the query that builds it
    monkeypatch.setattr(context, "_tree_store", np.empty(0, dtype=np.int64))
    stores = []
    for primes in ([1999], [4999], [1999], [1999, 2003, 2011], [4999]):
        rows, ns = batch_layouts(primes, [(3, 7, 11)] * len(primes))
        values = _block_values(primes, rows, ns, [len(primes)])
        assert not np.shares_memory(values, context._tree_store), primes
        assert per_layout(values, ns) == [naive_partial_products(p, n, True)
                                          for p in primes for n in (3, 7, 11)]
        stores.append(context._tree_store)
    assert stores[0].size < stores[1].size
    assert all(s is stores[1] for s in stores[2:])
    assert stores[1].size & (stores[1].size - 1) == 0
    # an answer does not change when a later query overwrites the storage
    f, _ = half_products([1999], [0], [999], [0], [1])
    half_products([4999], [0], [2499], [0], [1])
    assert int(f[0]) == math.factorial(999) % 1999


def test_legendre_matches_naive():
    for p in ODD_PRIMES_600[:40]:
        for a in range(-3, 2 * p + 1):
            assert arith._legendre(a, p) == naive_legendre(a, p), (p, a)


def test_context_rejects_unsupported_p():
    for bad in (1, 2, 9, 561):
        with pytest.raises(ValueError, match="odd prime"):
            _check_prime(bad)
    # 2**31 + 11 is prime but too large for the int64 kernel
    with pytest.raises(ValueError, match="2\\*\\*31"):
        _check_prime(2**31 + 11)
    with pytest.raises(ValueError, match="2\\*\\*31"):
        residue_mask(2**31 + 11)


def test_scan_config_rejects_p_max_above_2_31():
    ScanConfig(p_max=2**31, theorems=("t1",))
    with pytest.raises(ValueError, match="p_max"):
        ScanConfig(p_max=2**31 + 1, theorems=("t1",))


def test_scan_never_builds_a_mask(monkeypatch):
    # residue counts come from the residue index; the p-sized mask and its
    # cumulative counts are public helpers only, built on demand
    def refuse(p):
        raise AssertionError(f"residue table built at p={p}")

    monkeypatch.setattr(products, "residue_mask", refuse)
    monkeypatch.setattr(products, "residue_cumulative_counts", refuse)
    report = run_scan(ScanConfig(p_max=2000, theorems=THEOREM_IDS, workers=1))
    assert {v.theorem_id for v in report.verdicts} == set(THEOREM_IDS)
    assert all(v.passed for v in report.verdicts)
    words, rank = context._residue_indexes([1999])
    assert int(_set_bits_through(words[0], rank[0], np.array(1998))) == 999


def test_scan_never_streams_where_it_builds_the_squares(monkeypatch):
    # h(-p) streams at a prime that reads no block counts; where t4 or
    # eq2_parity reads them, the scan builds the residue index first and
    # takes h(-p) from its half-interval count, whatever the order of the
    # verifiers
    streamed, built = set(), set()
    build, stream = context._residue_indexes, classnum._square_floor_sum

    def recording(primes):
        built.update(primes)
        return build(primes)

    def streaming(p):
        streamed.add(p)
        return stream(p)

    monkeypatch.setattr(classnum, "_square_floor_sum", streaming)
    monkeypatch.setattr(context, "_residue_indexes", recording)
    report = run_scan(ScanConfig(p_max=2000, theorems=THEOREM_IDS, workers=1))
    assert all(v.passed for v in report.verdicts)
    assert streamed and built
    assert not streamed & built, sorted(streamed & built)


def record_verifier_calls(monkeypatch) -> list:
    """Wrap every verifier so that the returned list holds (theorem, p, q)
    while that verifier runs, and is empty between verifiers."""
    inside = []

    def outside(tid):
        verify = _VERIFIERS[tid]

        def wrapped(p, q, inputs):
            inside.append((tid, p, q))
            try:
                return verify(p, q, inputs)
            finally:
                inside.pop()
        return wrapped

    for tid in THEOREM_IDS:
        monkeypatch.setitem(_VERIFIERS, tid, outside(tid))
    return inside


def test_scan_builds_tables_in_batches(monkeypatch):
    # all nine theorems at p < 2e4: fewer trees than primes, each prime a
    # row of at most one tree, and no tree built inside a verifier
    trees = []
    build = context._half_tree
    inside = record_verifier_calls(monkeypatch)

    def counting(primes):
        assert not inside, f"tree built inside {inside[0]}"
        trees.append(list(primes))
        return build(primes)

    monkeypatch.setattr(context, "_half_tree", counting)
    report = run_scan(ScanConfig(p_max=20000, theorems=THEOREM_IDS, workers=1))
    assert all(v.passed for v in report.verdicts)
    primes = {v.p for v in report.verdicts}
    rows = [p for tree in trees for p in tree]
    assert len(trees) < len(primes)
    assert len(rows) == len(set(rows))
    assert set(rows) <= primes


def test_scan_builds_residue_indexes_in_batches(monkeypatch):
    # all nine theorems at p < 2e4: fewer index builds than primes that read
    # block counts, each such prime a row of exactly one build, and no index
    # or count built inside a verifier
    builds, runs = [], []
    build, run = context._residue_indexes, products._run_counts
    inside = record_verifier_calls(monkeypatch)

    def counting(primes):
        assert not inside, f"residue index built inside {inside[0]}"
        builds.append(list(primes))
        return build(primes)

    def running(p, rows, ns, stops):
        assert not inside, f"block counts built inside {inside[0]}"
        runs.append(rows.size)
        return run(p, rows, ns, stops)

    monkeypatch.setattr(context, "_residue_indexes", counting)
    monkeypatch.setattr(products, "_run_counts", running)
    report = run_scan(ScanConfig(p_max=20000, theorems=THEOREM_IDS, workers=1))
    assert all(v.passed for v in report.verdicts)
    assert runs
    counted = {v.p for v in report.verdicts if REGIMES[v.theorem_id].counts}
    rows = sorted(p for primes in builds for p in primes)
    assert len(builds) < len(counted)
    assert rows == sorted(counted)


def test_scan_and_verify_call_budget(monkeypatch):
    # every body and every binding of is_prime counted, as the benchmark's
    # tracer wraps them: the scan runs each body once per verdict and tests
    # each q once per theorem (the regime) and once more (ScanConfig's check
    # of an explicit q list), each prime p at most once; a public verify
    # runs its body once and tests at most q and p
    bodies = Counter()

    def counting(tid):
        body = _VERIFIERS[tid]

        def counted(p, q, inputs):
            bodies[tid] += 1
            return body(p, q, inputs)
        return counted

    for tid in THEOREM_IDS:
        monkeypatch.setitem(_VERIFIERS, tid, counting(tid))
    tested = []
    is_prime = arith.is_prime

    def testing(n):
        tested.append(n)
        return is_prime(n)

    for name, module in list(sys.modules.items()):
        if name == "gaussprod" or name.startswith("gaussprod."):
            for key, value in list(vars(module).items()):
                if value is is_prime:
                    monkeypatch.setattr(module, key, testing)
    config = ScanConfig(p_max=2000, theorems=THEOREM_IDS, workers=1)
    report = run_scan(config)
    assert dict(bodies) == {tid: t["applicable"] for tid, t in report.totals.items()}
    qs = _resolved_q(config, "t1")
    primes = {v.p for v in report.verdicts}
    assert len(tested) <= len(primes) + len(THEOREM_IDS) * len(qs) + len(qs)
    for tid in THEOREM_IDS:
        row = next(v for v in report.verdicts if v.theorem_id == tid)
        bodies.clear()
        tested.clear()
        assert verify(tid, row.p, row.q) == row
        assert dict(bodies) == {tid: 1}, tid
        assert len(tested) <= 2, (tid, tested)


def test_scan_tests_no_sieved_prime(monkeypatch):
    # the scan's primes come from the sieve, so only q meets is_prime: each
    # q once per theorem that takes one (the regime), and once more where a
    # body's cached helper first sees it; _check_prime(p), behind every
    # public query at p, still tests p
    tested = []
    is_prime = arith.is_prime

    def testing(n):
        tested.append(n)
        return is_prime(n)

    for name, module in list(sys.modules.items()):
        if name == "gaussprod" or name.startswith("gaussprod."):
            for key, value in list(vars(module).items()):
                if value is is_prime:
                    monkeypatch.setattr(module, key, testing)
    config = ScanConfig(p_max=2000, theorems=THEOREM_IDS, workers=1)
    report = run_scan(config)
    qs = _resolved_q(config, "t1")
    primes = {v.p for v in report.verdicts}
    assert max(primes) > max(qs)
    assert set(tested) <= set(qs), sorted(set(tested) - set(qs))
    assert len(tested) <= (len(THEOREM_IDS) + 1) * len(qs)
    tested.clear()
    _check_prime(1999)
    assert tested == [1999]
