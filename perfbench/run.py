"""gaussprod benchmark: three workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every sample runs in a fresh interpreter
(perfbench/sample.py), because the package keeps unbounded caches in the
process and the CLI runs one process per scan.  A run repeats samples for
--seconds and reports medians.  --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer metrics of BENCHMARK.json.  Each run checks its
outputs against perfbench/expected.json; a mismatch makes `correct` false,
counts the sample's verdicts as failed, and exits 1.

    python3 perfbench/run.py --record

recomputes perfbench/expected.json at workers=1 from the code as it stands.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_PATH = BENCH_DIR / "expected.json"
OUT_DIR = ROOT / ".perfbench"

NPROC = len(os.sched_getaffinity(0))
THEOREM_IDS = ("corollary", "eq2_parity", "eq_a", "mordell", "symmetry",
               "t1", "t2", "t3", "t4")
ODD_PRIMES_TO_97 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                    59, 61, 67, 71, 73, 79, 83, 89, 97)

# Scan domains are spelled out here rather than taken from the package's
# defaults, so they stay fixed while those defaults change.
SCANS = {
    # block products, residue tables, h(-p) by Dirichlet, legendre/is_prime;
    # no representation search.  The plain single-process baseline.
    "sweep": {"p_max": 10_000,
              "theorems": ("mordell", "t1", "corollary", "eq2_parity",
                           "symmetry", "t3", "t4"),
              "q": ODD_PRIMES_TO_97, "workers": 1, "render": True},
    # the representation search dominates (cost ~ p**(h(-q)/2), h = 3 at
    # q = 23, 31); forked pool, eq_a and t2 share representations
    "representation": {"p_max": 20_000, "theorems": ("eq_a", "t2"),
                       "q": (7, 11, 19, 23, 31), "workers": NPROC,
                       "render": False},
}

# point_queries: single verdicts and class-number queries at large p, each at
# a distinct prime, so every query builds its per-prime state cold
QUERY_P_RANGE = (100_000, 1_000_000)
QUERY_KINDS = THEOREM_IDS + ("classnumber",)
QUERIES_PER_KIND = 40
H1_Q = (7, 11, 19, 43, 67)  # h(-q) = 1 keeps the representation search cheap
WORKLOADS = ("sweep", "representation", "point_queries")
RECORD_SEEDS = range(100)

MIN_SAMPLES = 3
MIN_TRACE_ROUNDS = 2
SETUP_SAMPLES = 5
HARD_LIMIT_S = 170.0


class SampleFailed(Exception):
    pass


# --- inputs -----------------------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _query_class(kind: str, q: int | None) -> tuple[int, int]:
    """(modulus, residue) of the primes p that fit a query kind at q."""
    if kind in ("mordell", "classnumber"):
        cons = [(4, 3)]
    elif kind == "eq_a":
        cons = [(2, 1), (q, 1)]
    elif kind == "t3":
        cons = [(4, 3), (q, 2)]
    elif kind == "t4":
        cons = [(4, 3), (q, 3)]
    else:
        cons = [(4, 3), (q, 1)]
    m = 1
    for mod, _ in cons:
        m *= mod
    r = next(x for x in range(m) if all(x % mod == res for mod, res in cons))
    return m, r


def _query_q_choices(kind: str) -> tuple[int | None, ...]:
    if kind == "mordell":
        return (None,)
    if kind in ("eq_a", "t2"):
        return H1_Q
    if kind == "t4":
        return ODD_PRIMES_TO_97[1:]
    return ODD_PRIMES_TO_97


def _next_fit(p: int, step: int, used: set[int]) -> int:
    """First prime not in used at p, p + step, p + 2*step, ..."""
    while p in used or not _is_prime(p):
        p += step
    return p


def make_queries(seed: int) -> list[tuple[str, int, int | None]]:
    """QUERIES_PER_KIND queries of each kind, p stratified over QUERY_P_RANGE
    (one draw per equal-width stratum) so the size mix is the same for every
    seed; each p is a distinct prime fitting the kind's regime."""
    rng = random.Random(seed)
    lo, hi = QUERY_P_RANGE
    width = (hi - lo) / QUERIES_PER_KIND
    used: set[int] = set()
    queries = []
    for kind in QUERY_KINDS:
        for i in range(QUERIES_PER_KIND):
            q = rng.choice(_query_q_choices(kind))
            m, r = _query_class(kind, q)
            x = lo + int((i + rng.random()) * width)
            x += (r - x) % m
            p = _next_fit(x, m, used)
            if p >= hi:
                p = _next_fit(x - m, -m, used)
            used.add(p)
            queries.append((kind, p, q))
    rng.shuffle(queries)
    return queries


def make_spec(workload: str, seed: int, trace: bool, workers: int | None = None) -> dict:
    spec = {"src": str(SRC), "workload": workload, "trace": trace,
            "spans_path": str(OUT_DIR / f"spans-{workload}.tsv")}
    if workload == "point_queries":
        spec["queries"] = make_queries(seed)
        spec["workers"] = 1
    else:
        spec.update(SCANS[workload])
        if workers is not None:
            spec["workers"] = workers
    return spec


# --- samples ----------------------------------------------------------------

def run_sample(spec: dict, started: float) -> dict:
    """Run one sample in a fresh interpreter (own session, so a timeout can
    kill it together with its pool workers) and return its JSON result."""
    timeout = max(5.0, HARD_LIMIT_S - (time.monotonic() - started))
    # gaussprod calls no BLAS routine; starting OpenBLAS's thread pool at
    # numpy import was the noisiest part of setup_s, so the pool gets one thread
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "sample.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            env=env, start_new_session=True)
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SampleFailed(f"sample timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise SampleFailed(f"sample exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def check_sample(workload: str, seed: int, res: dict, expected: dict) -> list[str]:
    """Correctness gate for one sample; returns the problems found."""
    problems = []
    if res["failed"]:
        problems.append(f"{res['failed']} verdicts failed")
    exp = expected[workload]
    if workload == "point_queries":
        digest = exp["rows_sha256"].get(str(seed))
        if digest is not None and res["rows_sha256"] != digest:
            problems.append("query digest differs from the one recorded for this seed")
    else:
        if res["totals"] != exp["totals"]:
            problems.append(f"totals {res['totals']} differ from {exp['totals']}")
        for key in ("report_sha256", "rows_sha256"):
            if res[key] != exp[key]:
                problems.append(f"{key} differs from the recorded digest")
    if "layers" in res:
        # every verifier call goes through the patched call sites
        for tid in THEOREM_IDS:
            calls = res["layers"][f"theorems.{tid}.calls"]
            want = (res["counts"].get(tid, 0) if workload == "point_queries"
                    else exp["totals"].get(tid, {}).get("applicable", 0))
            if calls != want:
                problems.append(f"traced theorems.{tid}.calls={calls}, expected {want}")
    return problems


def quantile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Run:
    """Collects the samples of one run and the outcome of their checks."""

    def __init__(self, workload: str, seed: int, expected: dict) -> None:
        self.workload, self.seed, self.expected = workload, seed, expected
        self.started = time.monotonic()
        self.samples: dict[str, list[dict]] = {}
        self.import_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.versions: dict[str, str] = {}

    def sample(self, kind: str, spec: dict) -> dict | None:
        try:
            res = run_sample(spec, self.started)
        except SampleFailed as exc:
            self.problems.append(f"{kind}: {exc}")
            lost = self._expected_verdicts() if spec["workload"] else 1
            self.attempted += lost
            self.failed += lost
            return None
        self.import_s.append(res["import_s"])
        self.versions = {"python": res["python"], "numpy": res["numpy"]}
        if spec["workload"] is None:
            return res
        problems = check_sample(self.workload, self.seed, res, self.expected)
        digests = {s["rows_sha256"] for group in self.samples.values() for s in group}
        if digests and res["rows_sha256"] not in digests:
            problems.append("digest differs from an earlier sample of this run")
        self.attempted += res["attempted"]
        if problems:
            self.problems += [f"{kind}: {p}" for p in problems]
            self.failed += res["attempted"]
        self.samples.setdefault(kind, []).append(res)
        return res

    def _expected_verdicts(self) -> int:
        if self.workload == "point_queries":
            return QUERIES_PER_KIND * len(QUERY_KINDS)
        return sum(t["applicable"] for t in self.expected[self.workload]["totals"].values())

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def measure(run: Run, seconds: float, round_specs: list[tuple[str, dict]], min_rounds: int) -> None:
    """Repeat rounds of samples until the next round would pass --seconds."""
    import_spec = {"src": str(SRC), "workload": None}
    for _ in range(SETUP_SAMPLES):
        run.sample("setup", import_spec)
    rounds = 0
    while True:
        t0 = run.elapsed()
        for kind, spec in round_specs:
            if run.sample(kind, spec) is None:
                return
        rounds += 1
        if rounds >= min_rounds and run.elapsed() + (run.elapsed() - t0) > seconds:
            return


# --- metrics ----------------------------------------------------------------

def end_to_end(run: Run) -> dict[str, float]:
    samples = run.samples["untraced"]
    walls = [s["wall_s"] for s in samples]
    if run.workload == "point_queries":
        latencies_ms = [x * 1000 for s in samples for x in s["latencies_s"]]
    else:
        # for a scan, one query is one whole scan
        latencies_ms = [w * 1000 for w in walls]
    return {
        "wall_s": statistics.median(walls),
        "verdicts_per_s": statistics.median(s["attempted"] / s["wall_s"] for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "setup_s": statistics.median(run.import_s),
        "query_ms_p50": quantile(latencies_ms, 50),
        "query_ms_p95": quantile(latencies_ms, 95),
    }


def per_layer(run: Run, workers: int) -> dict[str, float | None]:
    traced = run.samples["traced"]
    out: dict[str, float | None] = {}
    for name in traced[0]["layers"]:
        values = [s["layers"][name] for s in traced]
        out[name] = None if None in values else statistics.median(values)
    untraced = run.samples["untraced"]
    out["scan.pool_busy_frac"] = statistics.median(
        s["busy_cpu_s"] / (workers * s["wall_s"]) for s in untraced)
    baseline = run.samples.get("untraced_w1", untraced)
    out["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                               - statistics.median(s["wall_s"] for s in baseline))
    return out


def environment(run: Run, workers: int) -> dict:
    env = {"nproc": NPROC, **run.versions, "cpu_model": None, "l2": None, "l3": None,
           "git_commit": None, "seed": run.seed, "workload": run.workload,
           "workers": workers,
           "p_max": {w: SCANS[w]["p_max"] for w in SCANS},
           "query_p_range": list(QUERY_P_RANGE)}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                env[f"l{level}"] = (idx / "size").read_text().strip()
        if (ROOT / ".git").exists():
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            env["git_commit"] = git.stdout.strip() or None
    except OSError:
        pass
    return env


# --- entry points -----------------------------------------------------------

def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def bench(workload: str, seed: int, seconds: float, trace: bool) -> int:
    expected = json.loads(EXPECTED_PATH.read_text())
    run = Run(workload, seed, expected)
    workers = 1 if workload == "point_queries" else SCANS[workload]["workers"]
    rounds = [("untraced", make_spec(workload, seed, False))]
    if trace:
        # spans recorded in forked workers never reach the parent, so the
        # traced sample runs at workers=1, next to an untraced one to compare
        if workers != 1:
            rounds.append(("untraced_w1", make_spec(workload, seed, False, workers=1)))
        rounds.append(("traced", make_spec(workload, seed, True, workers=1)))
        OUT_DIR.mkdir(exist_ok=True)
    measure(run, seconds, rounds, MIN_TRACE_ROUNDS if trace else MIN_SAMPLES)

    values: dict[str, float | None] = {}
    if not run.problems:
        values = per_layer(run, workers) if trace else end_to_end(run)
    metrics = {}
    print(f"perfbench {workload} seed={seed} trace={int(trace)} "
          f"samples={ {k: len(v) for k, v in run.samples.items()} }")
    for m in declared_metrics(trace):
        if values and m["name"] not in values:
            raise SystemExit(f"BENCHMARK.json declares {m['name']}, which the run does not measure")
        value = values.get(m["name"])
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {m['name']:<44} {shown} {m['unit']}")
        metrics[m["name"]] = {"value": 0.0 if value is None else value, "unit": m["unit"]}
    fail_frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'fail_frac':<44} {fail_frac:.6g} ratio "
          f"({run.failed} of {run.attempted} verdicts)")
    for problem in run.problems:
        print(f"  FAIL {problem}")
    print("env " + json.dumps(environment(run, workers), sort_keys=True))
    correct = not run.problems and run.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed if correct else max(run.failed, 1),
                      "metrics": metrics if correct else {}}))
    return 0 if correct else 1


def record() -> int:
    """Rewrite expected.json from single samples at workers=1."""
    started = time.monotonic()
    expected: dict = {}
    for workload in SCANS:
        res = run_sample(make_spec(workload, 0, False, workers=1), started)
        if res["failed"]:
            raise SystemExit(f"{workload}: {res['failed']} verdicts failed; not recording")
        expected[workload] = {k: res[k] for k in ("totals", "report_sha256", "rows_sha256")}
    digests = {}
    for seed in RECORD_SEEDS:
        res = run_sample(make_spec("point_queries", seed, False), time.monotonic())
        if res["failed"]:
            raise SystemExit(f"point_queries seed {seed}: {res['failed']} failed; not recording")
        digests[str(seed)] = res["rows_sha256"]
    expected["point_queries"] = {"rows_sha256": digests}
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="recompute perfbench/expected.json and exit")
    args = ap.parse_args(argv)
    if not (SRC / "gaussprod" / "__init__.py").is_file():
        print(f"error: no gaussprod package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
