"""One sample of a workload in a fresh interpreter.

Reads a JSON spec on stdin, times `import gaussprod`, runs the workload once
(optionally traced), and prints one JSON line with its timings and the
digests the parent checks.  Run by perfbench/run.py; every sample gets its
own interpreter so the package's in-process caches start cold.
"""

from __future__ import annotations

import hashlib
import json
import platform
import resource
import sys
import time
from collections import Counter
from pathlib import Path

# keys of render_json that hold timings and are left out of its digest
_TIMING_KEYS = ("runtime_ms", "timings")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(rendered_json: str) -> str:
    payload = json.loads(rendered_json)
    for key in _TIMING_KEYS:
        payload.pop(key, None)
    return _sha256(json.dumps(payload, sort_keys=True, indent=2))


def rows_digest(rows) -> str:
    """Digest of (kind, p, q, predicted, computed) rows, in order."""
    return _sha256("".join(f"{k},{p},{q},{pred},{comp}\n" for k, p, q, pred, comp in rows))


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def run_scan_sample(gp, spec: dict, tracer) -> dict:
    cfg = gp.ScanConfig(p_max=spec["p_max"], theorems=tuple(spec["theorems"]),
                        q_values=tuple(spec["q"]), workers=spec["workers"])
    if tracer:
        tracer.install()
    self0 = _cpu(resource.getrusage(resource.RUSAGE_SELF))
    t0 = time.perf_counter()
    report = gp.run_scan(cfg)
    if spec["render"]:
        gp.render_json(report)
        gp.render_csv(report)
    wall = time.perf_counter() - t0
    self_cpu = _cpu(resource.getrusage(resource.RUSAGE_SELF)) - self0
    if tracer:
        tracer.uninstall()
    worker_cpu = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN))
    rows = [(v.theorem_id, v.p, v.q, v.predicted, v.computed) for v in report.verdicts]
    return {
        "wall_s": wall,
        "cpu_s": self_cpu + worker_cpu,
        # the processes that ran verifiers: pool workers if any, else this one
        "busy_cpu_s": worker_cpu if worker_cpu > 0 else self_cpu,
        "attempted": len(report.verdicts),
        "failed": len(report.failures),
        "totals": report.totals,
        "report_sha256": report_digest(gp.render_json(report)),
        "rows_sha256": rows_digest(rows),
    }


def run_query_sample(gp, spec: dict, tracer) -> dict:
    if tracer:
        tracer.install()
    rows = []
    latencies = []
    failed = 0
    clock = time.perf_counter
    self0 = _cpu(resource.getrusage(resource.RUSAGE_SELF))
    t0 = clock()
    for kind, p, q in spec["queries"]:
        s = clock()
        if kind == "classnumber":
            predicted = gp.class_number_dirichlet(p).h
            computed = (gp.class_number_forms(p).h, gp.class_number_lemma1(p, q).h)
            ok = computed == (predicted, predicted)
        else:
            v = gp.verify(kind, p, None if kind == "mordell" else q)
            predicted, computed, ok = v.predicted, v.computed, v.passed
        latencies.append(clock() - s)
        rows.append((kind, p, q, predicted, computed))
        failed += not ok
    wall = clock() - t0
    self_cpu = _cpu(resource.getrusage(resource.RUSAGE_SELF)) - self0
    if tracer:
        tracer.uninstall()
    return {
        "wall_s": wall,
        "cpu_s": self_cpu,
        "busy_cpu_s": self_cpu,
        "attempted": len(rows),
        "failed": failed,
        "latencies_s": latencies,
        "counts": Counter(r[0] for r in rows),
        "rows_sha256": rows_digest(rows),
    }


def main() -> int:
    spec = json.load(sys.stdin)
    src = str(Path(spec["src"]).resolve())
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import gaussprod as gp
    import_s = time.perf_counter() - t0
    if not str(Path(gp.__file__).resolve()).startswith(src):
        raise SystemExit(f"imported gaussprod from {gp.__file__}, not from {src}")
    import numpy

    out = {"import_s": import_s, "python": platform.python_version(),
           "numpy": numpy.__version__}
    if spec["workload"] is not None:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer
            tracer = Tracer()
        runner = run_query_sample if "queries" in spec else run_scan_sample
        out.update(runner(gp, spec, tracer))
        if tracer:
            out["layers"] = tracer.summary()
            tracer.write_spans(spec["spans_path"])
        self_ru = resource.getrusage(resource.RUSAGE_SELF)
        child_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        out["peak_rss_mb"] = max(self_ru.ru_maxrss, child_ru.ru_maxrss) / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
