"""The verdict inputs that inputs._load_unit computes for a unit, each
recomputed from the naive oracles, and the vectorised Euler criterion
against pow."""

from fractions import Fraction
from functools import cache, reduce

import numpy as np

import gaussprod.inputs as inputs
from gaussprod.inputs import _load_unit, _symbols
from gaussprod.scan import ScanConfig, _batches, _build_units, run_scan
from gaussprod.theorems import REGIMES, THEOREM_IDS

from oracles import (naive_block_counts, naive_block_ranges, naive_class_number,
                     naive_class_number_dirichlet, naive_is_prime, naive_legendre,
                     naive_partial_products)

SMALL_QS = tuple(q for q in range(3, 32, 2) if naive_is_prime(q))

# each oracle once per (p, q) or p, whichever claims read it
blocks_of = cache(naive_partial_products)
counts_of = cache(naive_block_counts)
class_number_of = cache(lambda p: int(naive_class_number_dirichlet(p)))


def oracle_inputs(tid, p, q, a=None):
    """The inputs of tid's verdict at (p, q), as the pass yields them, from
    literal products, set-based symbols and counts; for eq_a and t2, less
    the representation 4*p**h(-q) = a*a + q*b*b itself, which
    check_against_oracles checks, and with (a|p) for the a given."""
    def leg(a):
        return naive_legendre(a, p)

    def prod(values):
        return reduce(lambda a, b: a * b % p, values, 1)

    if tid == "mordell":
        half = prod(range(1, (p - 1) // 2 + 1))
        return half, {1: 1, p - 1: -1}.get(half, half), class_number_of(p)
    blocks = blocks_of(p, q, generalized=True)
    center = (q + 1) // 2
    selected = prod(blocks[k - 1] for k in range(1, center) if (center - k) % 2)
    s = leg(q)
    h = class_number_of(p) if REGIMES[tid].class_number else None
    # block k <= (q-1)/2 weighs (q+1)/2 - k
    weights = range(center - 1, 0, -1)
    if tid == "t1":
        return selected, leg(selected)
    if tid == "corollary":
        syms = [leg(blocks[k - 1]) for k in range(1, center) if (center - k) % 2]
        return syms, syms.count(-1) % 2
    if tid in ("eq_a", "t2"):
        factorials = [prod(blocks[:i]) for i in range(1, q)]
        if tid == "t2":
            return int(leg(selected) == leg(prod(factorials[:center - 1]))), leg(a)
        squares = {x * x % q for x in range(1, q)}
        beta = Fraction(sum(q - x for x in squares), q)
        value = prod(f for i, f in enumerate(factorials, 1) if (q - i) % q in squares)
        return leg(p - value if int(beta) % 2 else value), int(beta), leg(a)
    if tid == "t3":
        sizes = [hi - lo + 1 for lo, hi in naive_block_ranges(p, q, generalized=True)]
        base = (p - 2) // q
        sizes_ok = sizes == [base + (k == center) for k in range(1, q + 1)]
        return selected, leg(selected), int(sizes_ok), h
    residues, nonresidues = counts_of(p, q, generalized=True)
    if tid == "t4":
        kstar = -(-q // 3)
        base = (p - 3) // q
        sizes_ok = all(r + n == base + (k in (kstar, q + 1 - kstar))
                       for k, r, n in zip(range(1, q + 1), residues, nonresidues))
        rhs = sum(n * w for n, w in zip(nonresidues, weights))
        return selected, leg(selected), int(sizes_ok), rhs, s, h
    if tid == "eq2_parity":
        rows = list(zip(residues, nonresidues, weights))
        return (sum((r - n) * w for r, n, w in rows), sum(n * w for _, n, w in rows),
                sum(n for _, n, w in rows if w % 2) % 2, s, h)
    assert tid == "symmetry"
    mirror = sum(a != b for a, b in zip(blocks, reversed(blocks)))
    central, full = blocks[center - 1], prod(blocks)
    return mirror, central, leg(central), full, leg(full)


def load_as_one_unit(entries):
    """The (p, (theorem_id, q), inputs) of (p, work) entries, from one pass
    over all of them in the scan's batches, each verdict once and in the
    entries' order."""
    loaded = [verdict for part in _load_unit(_batches(tuple(entries)), REGIMES)
              for verdict in part]
    assert [(p, pair) for p, pair, _ in loaded] == [
        (p, pair) for p, work in entries for pair in work]
    return loaded


def check_against_oracles(loaded):
    checked = 0
    for p, (tid, q), got in loaded:
        a = None
        if tid in ("eq_a", "t2"):
            # 4*p**h(-q) = a*a + q*b*b with a == 2 (mod q), b > 0
            rep = got[-2]
            h = naive_class_number(q)
            assert (rep.p, rep.q, rep.h) == (p, q, h), (tid, p, q, rep)
            assert rep.a ** 2 + q * rep.b ** 2 == 4 * p ** h and rep.a % q == 2, (tid, p, q, rep)
            assert rep.b > 0, (tid, p, q, rep)
            got, a = got[:-2] + got[-1:], rep.a
        want = oracle_inputs(tid, p, q, a)
        if tid == "corollary":
            # the symbols are padded to the widest q of the pass
            assert got[0][:len(want[0])] == want[0], (tid, p, q)
            assert set(got[0][len(want[0]):]) <= {1}, (tid, p, q)
            got, want = got[1:], want[1:]
        assert tuple(got) == tuple(want), (tid, p, q, got, want)
        checked += 1
    return checked


def test_unit_inputs_match_oracles():
    # every admissible (theorem, p, q) at p < 1500 and q <= 31, in one pass,
    # so that every q of a claim is padded together
    units, _ = _build_units(ScanConfig(p_max=1500, theorems=THEOREM_IDS, q_values=SMALL_QS))
    entries = [entry for unit in units for entry in unit]
    loaded = load_as_one_unit(entries)
    assert len(list(_batches(tuple(entries)))) > 1
    checked = check_against_oracles(loaded)
    assert checked == sum(len(work) for _, work in entries)
    assert {tid for _, work in entries for tid, _ in work} == set(THEOREM_IDS)


def test_unit_inputs_across_the_two_row_bound():
    # below 65,537 two primes share a tree and an index, above it each
    # prime is a batch alone; one pass takes four primes on either side,
    # at q = 3 and 97
    units, _ = _build_units(ScanConfig(p_max=66_000, theorems=THEOREM_IDS, q_values=(3, 97)))
    entries = [(p, work) for unit in units for p, work in unit]
    below = [i for i, (p, _) in enumerate(entries) if p < 65_537][-4:]
    entries = entries[below[0]:below[-1] + 5]
    batches = list(_batches(tuple(entries)))
    assert any(len(b) > 1 for b in batches) and any(b[0][0] > 65_537 for b in batches)
    assert check_against_oracles(load_as_one_unit(entries)) == sum(len(w) for _, w in entries)


def test_eq_a_and_t2_share_each_representation(monkeypatch):
    # the representation workload: eq_a and t2 at the same (p, q) read one
    # representation, made once by the pass
    made = []
    represent = inputs._representation

    def counting(p, q):
        made.append((p, q))
        return represent(p, q)

    monkeypatch.setattr(inputs, "_representation", counting)
    report = run_scan(ScanConfig(p_max=20_000, theorems=("eq_a", "t2"),
                                 q_values=(7, 11, 19, 23, 31), workers=1))
    assert all(v.passed for v in report.verdicts)
    assert len(report.verdicts) == 1344
    assert len(made) == len(set(made)) == 892
    assert set(made) == {(v.p, v.q) for v in report.verdicts}


def test_euler_criterion_matches_pow():
    # mixed primes in one call, up to 2**31 - 1, where x*x nears 2**62;
    # a long call takes the vectorised criterion, a short one pow
    rng = np.random.default_rng(24)
    primes = [3, 5, 7, 1063, 65_537, 999_983, 2**31 - 1]
    p = rng.choice(primes, 400)
    a = rng.integers(1, p)
    big = 2**31 - 1
    p = np.append(p, [big] * 3 + [3, 3])
    a = np.append(a, [1, 2, big - 1, 1, 2])
    want = [{1: 1, m - 1: -1}.get(pow(x, (m - 1) // 2, m)) for x, m in zip(a.tolist(), p.tolist())]
    [left, right] = _symbols([(a[:200], p[:200]), (a[200:], p[200:])])
    assert left.tolist() + right.tolist() == want
    assert [s.tolist() for s in _symbols([(a[-5:-2], p[-5:-2]), (a[-2:], p[-2:])])] == [
        want[-5:-2], want[-2:]]
    assert [naive_legendre(x, m) for x, m in zip(a[:60].tolist(), p[:60].tolist())
            if m < 70_000] == [w for w, m in zip(want[:60], p[:60].tolist()) if m < 70_000]
