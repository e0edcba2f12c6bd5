"""Acceptance sweeps: exhaustive ranges with one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  These are the big
ranges; the rest of the suite covers the same code on small inputs.
"""

import json
import time

import pytest

from gaussprod import (CongruenceConstraint, RegimeError,
                       beta_identity_check, class_number_dirichlet,
                       class_number_forms, class_number_lemma1, is_prime,
                       primes_matching)
from gaussprod.scan import ScanConfig, render_json, run_scan
from gaussprod.selftest import run_selftest

Q_ODD_PRIMES_97 = tuple(q for q in range(3, 98, 2) if is_prime(q))


def _line(tag, ok, took, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {tag}: {status} ({took:.1f}s){' ' + extra if extra else ''}")


def _scan(p_max, theorems, q_values=None):
    return run_scan(ScanConfig(p_max=p_max, theorems=theorems,
                               q_values=q_values, workers=1))


def test_criterion_1_mordell_full_range():
    t0 = time.perf_counter()
    rep = _scan(100_000, ("mordell",))
    took = time.perf_counter() - t0
    tot = rep.totals["mordell"]
    ok = tot["failed"] == 0 and tot["applicable"] > 4000 and took < 60
    _line("1 mordell p<1e5", ok, took,
          f"{tot['applicable']} primes, {tot['failed']} failures")
    assert tot["failed"] == 0, rep.failures[:5]
    assert tot["applicable"] == 4807
    assert took < 60


def test_criterion_2_split_family_full_range():
    t0 = time.perf_counter()
    rep = _scan(100_000, ("t1", "corollary", "eq2_parity", "symmetry"),
                Q_ODD_PRIMES_97)
    took = time.perf_counter() - t0
    fails = sum(rep.totals[t]["failed"] for t in rep.totals)
    counts = {t: rep.totals[t]["applicable"] for t in rep.totals}
    ok = fails == 0 and took < 300
    _line("2 split family q<=97 p<1e5", ok, took, f"applicable {counts}")
    assert fails == 0, rep.failures[:5]
    assert all(c == 7587 for c in counts.values()), counts
    assert took < 300


def test_criterion_3_shifted_by_two_full_range():
    t0 = time.perf_counter()
    rep = _scan(100_000, ("t3",), Q_ODD_PRIMES_97)
    took = time.perf_counter() - t0
    tot = rep.totals["t3"]
    ok = tot["failed"] == 0 and tot["applicable"] > 7000
    _line("3 t3 q<=97 p<1e5", ok, took,
          f"{tot['applicable']} pairs, {tot['failed']} failures")
    assert tot["failed"] == 0, rep.failures[:5]
    assert tot["applicable"] == 7557


def test_criterion_4_shifted_by_three_full_range():
    t0 = time.perf_counter()
    rep = _scan(100_000, ("t4",), Q_ODD_PRIMES_97)
    took = time.perf_counter() - t0
    tot = rep.totals["t4"]
    # q=3 is skipped by regime; every other q contributes
    ok = tot["failed"] == 0 and tot["skipped_q"] == 1
    _line("4 t4 5<=q<=97 p<1e5", ok, took,
          f"{tot['applicable']} pairs, {tot['failed']} failures")
    assert tot["failed"] == 0, rep.failures[:5]
    assert tot["skipped_q"] == 1
    assert tot["applicable"] == 5145


def test_criterion_5_representation_identities():
    t0 = time.perf_counter()
    rep = _scan(20_000, ("eq_a", "t2"), (7, 11, 19, 23, 31))
    took = time.perf_counter() - t0
    fails = rep.totals["eq_a"]["failed"] + rep.totals["t2"]["failed"]
    ok = fails == 0 and took < 120
    _line("5 eq_a/t2 p<2e4", ok, took,
          f"eq_a {rep.totals['eq_a']['applicable']}, "
          f"t2 {rep.totals['t2']['applicable']}")
    assert fails == 0, rep.failures[:5]
    assert rep.totals["eq_a"]["applicable"] == 892
    assert rep.totals["t2"]["applicable"] == 452
    assert took < 120


def test_criterion_6_class_number_triple_agreement():
    t0 = time.perf_counter()
    checked = 0
    for p in primes_matching(10_000, [CongruenceConstraint(4, 3)]):
        if p < 7:
            continue
        h = class_number_dirichlet(p).h
        assert h % 2 == 1, p
        assert class_number_forms(p).h == h, p
        for q in (3, 5, 7, 11, 13):
            if q != p:
                # any InternalCheckError (divisibility guard) would raise here
                assert class_number_lemma1(p, q).h == h, (p, q)
        checked += 1
    took = time.perf_counter() - t0
    _line("6 class-number triple agreement p<1e4", True, took,
          f"{checked} primes x 3 methods")
    assert checked == 618


def test_criterion_7_beta_identity_all_q():
    t0 = time.perf_counter()
    qs = [q for q in range(7, 500, 4) if q % 4 == 3 and is_prime(q)]
    for q in qs:
        v = beta_identity_check(q)
        assert v.passed, (q, v)
    with pytest.raises(RegimeError):
        beta_identity_check(3)
    took = time.perf_counter() - t0
    _line("7 beta identity 7<=q<500", True, took,
          f"{len(qs)} primes, q=3 exceptional")
    assert len(qs) == 49


def test_criterion_8_selftest_under_budget(capsys):
    t0 = time.perf_counter()
    code = run_selftest(quiet=True)
    took = time.perf_counter() - t0
    with capsys.disabled():
        _line("8 selftest fixtures", code == 0 and took < 5, took)
    assert code == 0
    assert took < 5


def test_criterion_9_worker_determinism():
    t0 = time.perf_counter()
    base = dict(p_max=10_000,
                theorems=("t1", "corollary", "eq2_parity", "symmetry"),
                q_values=Q_ODD_PRIMES_97)
    j1 = json.loads(render_json(run_scan(ScanConfig(workers=1, **base))))
    j8 = json.loads(render_json(run_scan(ScanConfig(workers=8, **base))))
    j1.pop("runtime_ms")
    j8.pop("runtime_ms")
    same = json.dumps(j1, sort_keys=True) == json.dumps(j8, sort_keys=True)
    took = time.perf_counter() - t0
    _line("9 determinism 1 vs 8 workers", same, took)
    assert same


def test_criterion_10_representation_identities_default_q():
    t0 = time.perf_counter()
    rep = _scan(100_000, ("eq_a", "t2"))
    took = time.perf_counter() - t0
    eq_a, t2 = rep.totals["eq_a"], rep.totals["t2"]
    fails = eq_a["failed"] + t2["failed"]
    ok = fails == 0 and took < 60
    _line("10 eq_a/t2 default q<=97 p<1e5", ok, took,
          f"eq_a {eq_a['applicable']}, t2 {t2['applicable']}")
    assert rep.config["q"]["eq_a"] == list(Q_ODD_PRIMES_97)
    assert fails == 0, rep.failures[:5]
    # skipped: the 11 q == 1 (mod 4), plus q = 3 for eq_a
    assert (eq_a["applicable"], eq_a["skipped_q"]) == (4942, 12)
    assert (t2["applicable"], t2["skipped_q"]) == (4903, 11)
    assert took < 60
