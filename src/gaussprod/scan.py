"""Range-scan engine: enumerate applicable (p, q) pairs, verify, aggregate.

The engine is prime-major: it maps each prime p to the (theorem, q) pairs
that apply to it, and works through runs of consecutive primes in batches.
For a batch it creates each prime's PrimeContext, loads every block table
of every prime in one query and every block count in another, then runs
each prime's verifier bodies on its context.

Reports are deterministic functions of the mathematical domain: verdicts are
sorted by (p, q, theorem_id) after the parallel phase, so the worker count
changes wall time only.  JSON output therefore compares byte-identical
across worker counts once the runtime_ms field is ignored.
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import time
from dataclasses import asdict, dataclass

import numpy as np

from .arith import is_prime, primes_matching
from . import context
from .context import P_LIMIT
from .theorems import REGIMES, THEOREM_IDS, _VERIFIERS, _load_work, regime_q_reason
from .verdict import Verdict

__all__ = [
    "DEFAULT_Q_MAX",
    "ScanConfig",
    "ScanReport",
    "render_csv",
    "render_human",
    "render_json",
    "run_scan",
]

DEFAULT_Q_MAX = 97
# the leaves of one batch's product tree, rows times the widest row's h; a
# prime with more is a batch alone.  In 10 s perfbench runs on a 2-vCPU VM,
# 2**14, 2**16 and 2**18 took representation 0.14-0.17, 0.11-0.12 and
# 0.10-0.12 s (0.20-0.22 s one prime at a time) and sweep peak RSS 38.3,
# 39.3 and 43.8-44.7 MB (38.2 MB)
BATCH_LEAVES = 1 << 16


@dataclass(frozen=True)
class ScanConfig:
    """Domain of one sweep.  q_values None means every odd prime up to
    DEFAULT_Q_MAX for every theorem; q values outside a theorem's regime
    are counted under skipped_q."""

    p_max: int
    theorems: tuple[str, ...]
    q_values: tuple[int, ...] | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.p_max < 7:
            raise ValueError(f"p_max must be >= 7, got {self.p_max}")
        if self.p_max > P_LIMIT:
            raise ValueError(f"p_max must be <= 2**31, got {self.p_max}")
        if not self.theorems:
            raise ValueError("at least one theorem id is required")
        for tid in self.theorems:
            if tid not in THEOREM_IDS:
                raise ValueError(f"unknown theorem id {tid!r}; "
                                 f"valid: {', '.join(THEOREM_IDS)}")
        if len(set(self.theorems)) != len(self.theorems):
            raise ValueError("duplicate theorem ids")
        if self.q_values is not None:
            if not self.q_values:
                raise ValueError("q_values must not be empty; None means the default list")
            for q in self.q_values:
                if q < 3 or q % 2 == 0 or not is_prime(q):
                    raise ValueError(f"q values must be odd primes, got {q}")
            if len(set(self.q_values)) != len(self.q_values):
                raise ValueError("duplicate q values")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass
class ScanReport:
    config: dict
    totals: dict[str, dict[str, int]]
    verdicts: list[Verdict]
    failures: list[Verdict]
    runtime_ms: int


def _resolved_q(config: ScanConfig, theorem_id: str) -> tuple[int | None, ...]:
    if REGIMES[theorem_id].p_mod_q is None:
        return (None,)
    if config.q_values is not None:
        return config.q_values
    return tuple(primes_matching(DEFAULT_Q_MAX + 1)[1:])


def _batches(unit: tuple[tuple[int, tuple], ...]):
    """Runs of consecutive entries of a unit whose product tree, rows times
    the largest h = (p-1)/2, holds at most BATCH_LEAVES leaves."""
    batch: list = []
    widest = 0
    for entry in unit:
        h = (entry[0] - 1) // 2
        if batch and (len(batch) + 1) * max(widest, h) > BATCH_LEAVES:
            yield batch
            batch, widest = [], 0
        batch.append(entry)
        widest = max(widest, h)
    if batch:
        yield batch


def _run_unit(unit: tuple[tuple[int, tuple], ...]) -> list[Verdict]:
    """Verdicts for a unit of (p, ((theorem, q), ...)) entries."""
    out = []
    for batch in _batches(unit):
        # looked up on the module, so a replaced class takes effect
        rows = [(context.PrimeContext(p), work) for p, work in batch]
        _load_work(rows)
        for ctx, work in rows:
            for tid, q in work:
                # looked up per call, so a replaced verifier takes effect at once
                out.append(_VERIFIERS[tid](ctx, q))
    return out


def _build_units(config: ScanConfig) -> tuple[list, dict[str, int]]:
    """Prime-major work units: runs of consecutive primes, each with its
    (theorem, q) pairs, taken by masks from one list of the primes below
    p_max, and cut so that every unit holds about the same sum of p, since
    the per-prime set-up grows linearly in p."""
    skipped: dict[str, int] = {tid: 0 for tid in config.theorems}
    below = np.array(primes_matching(config.p_max), dtype=np.int64)
    work: dict[int, list[tuple[str, int | None]]] = {}
    for tid in config.theorems:
        for q in _resolved_q(config, tid):
            if regime_q_reason(tid, q) is not None:
                skipped[tid] += 1
                continue
            classes, min_p = REGIMES[tid].p_classes(q)
            keep = np.logical_and.reduce([below > min_p] + [below % m == r for m, r in classes])
            for p in below[keep].tolist():
                work.setdefault(p, []).append((tid, q))
    primes = sorted(work)
    target = sum(primes) / (config.workers * 4)
    units, unit, weight = [], [], 0
    for p in primes:
        unit.append((p, tuple(work[p])))
        weight += p
        if weight >= target:
            units.append(tuple(unit))
            unit, weight = [], 0
    if unit:
        units.append(tuple(unit))
    return units, skipped


def run_scan(config: ScanConfig) -> ScanReport:
    start = time.monotonic()
    units, skipped = _build_units(config)
    if config.workers > 1 and len(units) > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(config.workers) as pool:
            chunks = pool.map(_run_unit, units)
    else:
        chunks = [_run_unit(u) for u in units]
    verdicts = [v for chunk in chunks for v in chunk]
    verdicts.sort(key=lambda v: (v.p, v.q if v.q is not None else -1, v.theorem_id))
    totals = {tid: {"applicable": 0, "passed": 0, "failed": 0,
                    "skipped_q": skipped[tid]} for tid in config.theorems}
    for v in verdicts:
        t = totals[v.theorem_id]
        t["applicable"] += 1
        t["passed" if v.passed else "failed"] += 1
    failures = [v for v in verdicts if not v.passed]
    echo = {
        "p_max": config.p_max,
        "theorems": sorted(config.theorems),
        "q": {tid: ([q for q in _resolved_q(config, tid) if q is not None] or None)
              for tid in config.theorems},
    }
    runtime_ms = int((time.monotonic() - start) * 1000)
    return ScanReport(config=echo, totals=totals, verdicts=verdicts,
                      failures=failures, runtime_ms=runtime_ms)


def _flat(v: Verdict) -> dict:
    d = asdict(v)
    d.pop("passed")
    return d


def render_json(report: ScanReport) -> str:
    payload = {
        "config": report.config,
        "totals": report.totals,
        "failures": [_flat(v) for v in report.failures],
        "runtime_ms": report.runtime_ms,
    }
    return json.dumps(payload, sort_keys=True, indent=2, default=list) + "\n"


def render_csv(report: ScanReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["theorem_id", "p", "q", "predicted", "computed", "detail"])
    for v in report.verdicts:
        writer.writerow([v.theorem_id, v.p, "" if v.q is None else v.q,
                         _cell(v.predicted), _cell(v.computed), v.detail])
    return buf.getvalue()


def _cell(value: object) -> str:
    if isinstance(value, tuple):
        return ";".join(str(x) for x in value)
    return str(value)


_HEADLINES = {
    3: "q=3: the first third-block product is always a quadratic residue",
    5: "q=5: the second fifth-block product is always a quadratic residue",
    7: "q=7: blocks 1 and 3 share a symbol, so their product is a residue",
    11: "q=11: the product of blocks 1, 3, 5 is always a quadratic residue",
}


def render_human(report: ScanReport) -> str:
    lines = [f"scan p < {report.config['p_max']}"]
    width = max(len(t) for t in report.totals)
    lines.append(f"{'theorem':<{width}}  applicable  passed  failed  skipped_q")
    for tid in sorted(report.totals):
        t = report.totals[tid]
        lines.append(f"{tid:<{width}}  {t['applicable']:>10}  {t['passed']:>6}  "
                     f"{t['failed']:>6}  {t['skipped_q']:>9}")
    for v in report.failures[:50]:
        lines.append(f"FAIL {v.theorem_id} p={v.p} q={v.q} "
                     f"predicted={v.predicted} computed={v.computed} [{v.detail}]")
    if len(report.failures) > 50:
        lines.append(f"... and {len(report.failures) - 50} more failures")
    if not report.failures:
        # a headline only where some t1 verdict checked it
        checked = {v.q for v in report.verdicts if v.theorem_id == "t1"}
        lines += [_HEADLINES[q] for q in sorted(checked & _HEADLINES.keys())]
    total_fail = len(report.failures)
    verdict = "all passed" if total_fail == 0 else f"{total_fail} FAILED"
    lines.append(f"result: {verdict} ({report.runtime_ms} ms)")
    return "\n".join(lines) + "\n"
