"""Scan units: runs of consecutive primes cut at a fixed modelled cost, run
in this process when there is one and in a forked pool otherwise, in report
order either way."""

import json
import multiprocessing.pool

import pytest

from gaussprod import scan
from gaussprod.scan import ScanConfig, _build_units, render_csv, render_json, run_scan
from gaussprod.theorems import REGIMES, THEOREM_IDS

# all nine theorems, so the units mix every verifier
SMALL = dict(p_max=3000, theorems=THEOREM_IDS, q_values=(3, 5, 7))


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the pools started while a test runs."""
    started = []

    class Counted(multiprocessing.pool.Pool):
        def __init__(self, processes=None, *args, **kwargs):
            started.append(processes)
            super().__init__(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool, "Pool", Counted)
    return started


def _without_runtime(report) -> dict:
    payload = json.loads(render_json(report))
    payload.pop("runtime_ms")
    return payload


def test_pool_reports_equal_in_process_reports(monkeypatch, pools):
    monkeypatch.setattr(scan, "UNIT_S", 0.01)
    units, _ = _build_units(ScanConfig(**SMALL))
    assert len(units) >= 4
    r1 = run_scan(ScanConfig(workers=1, **SMALL))
    assert pools == []
    r2 = run_scan(ScanConfig(workers=2, **SMALL))
    assert pools == [2]
    assert _without_runtime(r1) == _without_runtime(r2)
    assert render_csv(r1) == render_csv(r2)
    assert r1.verdicts == r2.verdicts


def test_scan_below_one_unit_starts_no_pool(pools):
    config = ScanConfig(workers=8, **SMALL)
    units, _ = _build_units(config)
    assert len(units) == 1
    report = run_scan(config)
    assert pools == []
    assert report.totals["t1"]["applicable"] > 0


def _modelled_cost(p: int, work) -> float:
    """One prime's cost by the model _build_units states."""
    cost = scan.VERDICT_S * len(work)
    if any(REGIMES[tid].blocks for tid, _ in work):
        cost += scan.LEAF_S * ((p - 1) // 2)
    if any(REGIMES[tid].counts for tid, _ in work):
        cost += scan.MARK_S * p
    return cost


def test_units_cover_the_domain_once_at_a_bounded_cost():
    # all nine theorems over the default q at p < 1e5, against the
    # acceptance counts
    units, skipped = _build_units(ScanConfig(p_max=100_000, theorems=THEOREM_IDS))
    primes = [p for unit in units for p, _ in unit]
    assert primes == sorted(set(primes))
    pairs = [(tid, p, q) for unit in units for p, work in unit for tid, q in work]
    assert len(pairs) == len(set(pairs))
    for tid, p, q in pairs:
        classes, min_p = REGIMES[tid].p_classes(q)
        assert p > min_p and all(p % m == r for m, r in classes), (tid, p, q)
    counts = {tid: sum(t == tid for t, _, _ in pairs) for tid in THEOREM_IDS}
    split = 7587
    assert counts == {"mordell": 4807, "t1": split, "corollary": split,
                      "eq2_parity": split, "symmetry": split, "t3": 7557,
                      "t4": 5145, "eq_a": 4942, "t2": 4903}
    assert skipped["eq_a"] == 12 and skipped["t2"] == 11
    assert len(units) > 1
    for i, unit in enumerate(units):
        costs = [_modelled_cost(p, work) for p, work in unit]
        assert sum(costs) <= scan.UNIT_S + costs[-1] + 1e-9, i
        if i < len(units) - 1:
            # a unit closes at the first prime that takes it to UNIT_S
            assert sum(costs[:-1]) < scan.UNIT_S <= sum(costs) + 1e-9, i
