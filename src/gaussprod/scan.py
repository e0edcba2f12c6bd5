"""Range-scan engine: enumerate applicable (p, q) pairs, verify, aggregate.

The engine is prime-major: it maps each prime p to the (theorem, q) pairs
that apply to it, ordered by (q, theorem), and works through units of
consecutive primes from the sieve, which it does not test again.  For a
unit, inputs._load_unit computes the inputs of every verdict in one
vectorised pass, loading block tables and block counts batch by batch;
then the claim's body runs on each (p, q) and its inputs, once per
verdict.

Units are runs of consecutive primes cut at a fixed modelled cost, and a
unit yields its verdicts in report order, (p, q, theorem_id), without a
sort.  Units taken in order are therefore in report order, whether they
run in this process or in a forked pool, which hands them back in order.
There is no global sort, and stream_report writes CSV rows unit by unit,
keeping only what the JSON and human reports need.  Reports are
deterministic functions of the mathematical domain, so the worker count
changes wall time only: JSON output compares byte-identical across worker
counts once the runtime_ms field is ignored.
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
from .context import P_LIMIT
from .inputs import _load_unit
from .theorems import REGIMES, THEOREM_IDS, _VERIFIERS, regime_q_reason
from .verdict import Verdict

__all__ = [
    "DEFAULT_Q_MAX",
    "ScanConfig",
    "ScanReport",
    "render_csv",
    "render_human",
    "render_json",
    "run_scan",
    "stream_report",
]

DEFAULT_Q_MAX = 97
# the leaves of one batch's product tree, rows times the widest row's h; a
# prime with more is a batch alone.  In 10 s perfbench runs on a 2-vCPU VM,
# 2**14, 2**16 and 2**18 took representation 0.14-0.17, 0.11-0.12 and
# 0.10-0.12 s (0.20-0.22 s one prime at a time) and sweep peak RSS 38.3,
# 39.3 and 43.8-44.7 MB (38.2 MB)
BATCH_LEAVES = 1 << 16
# the modelled seconds of one unit (see _build_units), about ten times what
# a worker costs to start: on a 2-vCPU VM, starting a fork Pool(2), mapping
# two trivial tasks and shutting it down took 9.7-24 ms over 10 runs
UNIT_S = 0.25
# the cost model's seconds per tree leaf, per residue-index mark and per
# verdict, fitted as _build_units states
LEAF_S = 4.3e-9
MARK_S = 3.8e-9
VERDICT_S = 1.9e-5


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
                if q >= self.p_max:
                    # no regime admits q >= p, so such a q could take no p
                    raise ValueError(f"q values must be below p_max, got q {q} "
                                     f"and p_max {self.p_max}")
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
    """Verdicts for a unit of (p, ((theorem, q), ...)) entries, in report
    order, since _build_units orders each prime's work by (q, theorem).  A
    body is looked up per call, so a replaced verifier takes effect at once."""
    return [_VERIFIERS[tid](p, q, inputs)
            for part in _load_unit(_batches(unit), REGIMES)
            for p, (tid, q), inputs in part]


def _build_units(config: ScanConfig) -> tuple[list, dict[str, int]]:
    """Prime-major work units: runs of consecutive primes, each with its
    (theorem, q) pairs, taken by masks from one list of the primes below
    p_max.  A unit closes once its modelled cost reaches UNIT_S, so it costs
    at most UNIT_S plus the cost of its last prime.

    The model of one prime's cost, in seconds, is
        LEAF_S * h     if some claim at p reads block tables (the product
                       tree over 1..h, h = (p-1)/2)
      + MARK_S * p     if some claim at p reads block counts (the residue
                       index marks j*j mod p)
      + VERDICT_S * v  for the v verdicts at p.
    The constants were fitted by nonnegative least squares on relative
    error to 240 timed _run_unit calls on a 2-vCPU VM, made in two rounds
    on 24 units spread over 7 < p < 10**6 for each of five mixes: all nine
    theorems over the default q, mordell alone, eq2_parity alone, t1 at
    q = 3, and eq_a with t2 at q = 7, 11, 19, 23, 31.  The model gave
    0.62-1.27 times the measured time for 90% of the calls, and 0.86-1.44
    times for the mix of all nine theorems (rms relative error 0.21).  A
    fourth term per batch of the tree, 0.2 ms * min(1, h/BATCH_LEAVES) for
    the batch's widest h, fitted only slightly better (rms 0.20, 0.65-1.23
    and 0.84-1.38), so the model keeps three terms."""
    skipped: dict[str, int] = {tid: 0 for tid in config.theorems}
    below = np.array(primes_matching(config.p_max), dtype=np.int64)
    work: list[list[tuple[str, int | None]]] = [[] for _ in range(below.size)]
    verdicts = np.zeros(below.size, dtype=np.int64)
    tree = np.zeros(below.size, dtype=bool)
    index = np.zeros(below.size, dtype=bool)
    # in report order: by q, None first, then by theorem
    pairs = sorted(((tid, q) for tid in config.theorems for q in _resolved_q(config, tid)),
                   key=lambda pair: (-1 if pair[1] is None else pair[1], pair[0]))
    for pair in pairs:
        tid, q = pair
        regime = REGIMES[tid]
        if regime_q_reason(tid, q) is not None:
            skipped[tid] += 1
            continue
        classes, min_p = regime.p_classes(q)
        keep = np.flatnonzero(np.logical_and.reduce(
            [below > min_p] + [below % m == r for m, r in classes]))
        for i in keep.tolist():
            work[i].append(pair)
        verdicts[keep] += 1
        tree[keep] |= regime.blocks
        index[keep] |= regime.counts
    cost = (LEAF_S * tree * ((below - 1) // 2) + MARK_S * index * below
            + VERDICT_S * verdicts).tolist()
    primes = below.tolist()
    units, unit, weight = [], [], 0.0
    for i in np.flatnonzero(verdicts).tolist():
        unit.append((primes[i], tuple(work[i])))
        weight += cost[i]
        if weight >= UNIT_S:
            units.append(tuple(unit))
            unit, weight = [], 0.0
    if unit:
        units.append(tuple(unit))
    return units, skipped


class _Stream:
    """One scan, unit by unit.  Iterating runs the units and yields each
    unit with its verdicts, in report order, while it tallies what a report
    keeps of them: per-theorem totals, the failures, and the q at which t1
    ran.  The units run in this process when there is one, else in a forked
    pool of at most one worker per unit."""

    def __init__(self, config: ScanConfig) -> None:
        self.start = time.monotonic()
        self.config = config
        self.units, skipped = _build_units(config)
        self.totals = {tid: {"applicable": 0, "passed": 0, "failed": 0,
                             "skipped_q": skipped[tid]} for tid in config.theorems}
        self.failures: list[Verdict] = []
        self.t1_qs: set[int] = set()

    def __iter__(self):
        for unit, verdicts in self._results():
            for v in verdicts:
                t = self.totals[v.theorem_id]
                t["applicable"] += 1
                t["passed" if v.passed else "failed"] += 1
                if not v.passed:
                    self.failures.append(v)
                if v.theorem_id == "t1":
                    self.t1_qs.add(v.q)
            yield unit, verdicts

    def _results(self):
        workers = min(self.config.workers, len(self.units))
        if workers <= 1:
            yield from zip(self.units, map(_run_unit, self.units))
            return
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            yield from zip(self.units, pool.imap(_run_unit, self.units))

    def report(self, verdicts: list[Verdict]) -> ScanReport:
        """The report of the units run so far, holding the given verdicts."""
        config = self.config
        echo = {
            "p_max": config.p_max,
            "theorems": sorted(config.theorems),
            "q": {tid: ([q for q in _resolved_q(config, tid) if q is not None] or None)
                  for tid in config.theorems},
        }
        runtime_ms = int((time.monotonic() - self.start) * 1000)
        return ScanReport(config=echo, totals=self.totals, verdicts=verdicts,
                          failures=self.failures, runtime_ms=runtime_ms)


def run_scan(config: ScanConfig) -> ScanReport:
    stream = _Stream(config)
    return stream.report([v for _, verdicts in stream for v in verdicts])


def stream_report(config: ScanConfig, fmt: str, out, on_unit=None) -> ScanReport:
    """Run config's scan and write its report in fmt ("human", "json" or
    "csv") to out, as render_* would write run_scan(config)'s: CSV rows as
    each unit arrives, the JSON or human text at the end.  After each unit,
    on_unit(done, total, primes) gets the units done, the unit count and
    the primes done.  Returns the report, which holds no verdicts."""
    stream = _Stream(config)
    rows = _csv_writer(out) if fmt == "csv" else None
    primes = 0
    for done, (unit, verdicts) in enumerate(stream, 1):
        if rows is not None:
            rows.writerows(_csv_rows(verdicts))
        primes += len(unit)
        if on_unit:
            on_unit(done, len(stream.units), primes)
    report = stream.report([])
    if fmt == "json":
        out.write(render_json(report))
    elif fmt == "human":
        out.write(_render_human(report, stream.t1_qs))
    return report


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
    _csv_writer(buf).writerows(_csv_rows(report.verdicts))
    return buf.getvalue()


def _csv_writer(out):
    """A CSV writer on out that has written the header row."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["theorem_id", "p", "q", "predicted", "computed", "detail"])
    return writer


def _csv_rows(verdicts: list[Verdict]):
    for v in verdicts:
        yield [v.theorem_id, v.p, "" if v.q is None else v.q,
               _cell(v.predicted), _cell(v.computed), v.detail]


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
    return _render_human(report, {v.q for v in report.verdicts if v.theorem_id == "t1"})


def _render_human(report: ScanReport, t1_qs: set[int]) -> str:
    """The human report; a headline is stated only at a q in t1_qs, where
    some t1 verdict checked it."""
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
        lines += [_HEADLINES[q] for q in sorted(t1_qs & _HEADLINES.keys())]
    total_fail = len(report.failures)
    verdict = "all passed" if total_fail == 0 else f"{total_fail} FAILED"
    lines.append(f"result: {verdict} ({report.runtime_ms} ms)")
    return "\n".join(lines) + "\n"
