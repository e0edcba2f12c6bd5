import csv
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import gaussprod
from gaussprod.cli import main
from gaussprod.scan import (ScanConfig, render_csv, render_human, render_json,
                            run_scan)
from gaussprod.selftest import FIXTURES, run_selftest
from gaussprod.theorems import THEOREM_IDS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_scan_example_six_pairs(capsys):
    code, out, err = run_cli(capsys, "scan", "--p-max", "100", "--q", "3",
                             "--theorems", "t1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["totals"]["t1"] == {"applicable": 6, "passed": 6,
                                      "failed": 0, "skipped_q": 0}
    assert report["failures"] == []
    # the six split primes below 100: 7, 19, 31, 43, 67, 79
    assert report["config"]["q"]["t1"] == [3]


def test_scan_empty_regime_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "scan", "--p-max", "10", "--q", "7",
                           "--theorems", "t1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["totals"]["t1"]["applicable"] == 0


def test_scan_human_format(capsys):
    code, out, _ = run_cli(capsys, "scan", "--p-max", "200", "--q", "3",
                           "--theorems", "t1")
    assert code == 0
    assert "t1" in out
    assert "all passed" in out
    assert "quadratic residue" in out   # q=3 headline


def test_scan_human_states_only_checked_headlines(capsys):
    # no prime p < 7 is in t1's regime at q = 3, so no verdict checks the
    # q = 3 headline and the report does not state it
    code, out, _ = run_cli(capsys, "scan", "--p-max", "7", "--theorems", "t1",
                           "--q", "3")
    assert code == 0
    assert out.splitlines()[2].split()[:2] == ["t1", "0"]
    assert "all passed" in out
    assert "quadratic residue" not in out


def test_scan_csv_format(capsys):
    code, out, _ = run_cli(capsys, "scan", "--p-max", "100", "--q", "3",
                           "--theorems", "t1,symmetry", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["theorem_id", "p", "q", "predicted", "computed", "detail"]
    body = rows[1:]
    assert len(body) == 12    # 6 primes x 2 theorems
    assert {r[0] for r in body} == {"t1", "symmetry"}
    assert [r[1] for r in body if r[0] == "t1"] == ["7", "19", "31", "43", "67", "79"]
    sym = next(r for r in body if r[0] == "symmetry")
    assert sym[3] == "0;-1;-1" and sym[4] == "0;-1;-1"


def test_scan_writes_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "scan", "--p-max", "100", "--q", "3",
                           "--theorems", "t1", "--format", "json",
                           "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["totals"]["t1"]["passed"] == 6


def test_scan_usage_errors(capsys):
    code, _, err = run_cli(capsys, "scan", "--p-max", "5")
    assert code == 2 and "p_max" in err
    code, _, err = run_cli(capsys, "scan", "--p-max", "100", "--theorems", "bogus")
    assert code == 2 and "bogus" in err
    code, _, err = run_cli(capsys, "scan", "--p-max", "100", "--q", "9")
    assert code == 2
    code, _, err = run_cli(capsys, "scan", "--p-max", "100", "--q", "3",
                           "--q-max", "13")
    assert code == 2 and "mutually exclusive" in err
    code, _, err = run_cli(capsys, "scan", "--p-max", "100", "--workers", "0")
    assert code == 2
    # no regime admits q >= p, so a q bound at or above the p bound is refused
    # at the start, before any q is enumerated
    for q_max in ("100", "3000000"):
        code, _, err = run_cli(capsys, "scan", "--p-max", "100", "--q-max", q_max,
                               "--theorems", "t1")
        assert code == 2, q_max
        assert err.count("error:") == 1 and "--q-max" in err and "--p-max" in err, err
        assert q_max in err and "100" in err, err
    code, _, _ = run_cli(capsys, "scan", "--p-max", "100", "--q-max", "99",
                         "--theorems", "t1")
    assert code == 0


def test_scan_failure_exit_code(monkeypatch, capsys):
    # force one verifier to lie so the failure path is observable end to end
    import gaussprod.scan as scan_mod
    from gaussprod.verdict import Verdict

    def broken(p, q, inputs):
        return Verdict("t1", p, q, 1, -1, False, "injected")

    monkeypatch.setitem(scan_mod._VERIFIERS, "t1", broken)
    code, out, _ = run_cli(capsys, "scan", "--p-max", "100", "--q", "3",
                           "--theorems", "t1", "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["totals"]["t1"]["failed"] == 6
    assert len(report["failures"]) == 6
    assert report["failures"][0]["detail"] == "injected"


def test_compute_products_text(capsys):
    code, out, _ = run_cli(capsys, "compute", "--what", "products",
                           "--p", "7", "--q", "3")
    assert code == 0 and out.strip() == "[2, 5, 2]"


def test_compute_products_json(capsys):
    code, out, _ = run_cli(capsys, "compute", "--what", "products",
                           "--p", "11", "--q", "3", "--generalized",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"p": 11, "q": 3, "generalized": True,
                               "values": [6, 4, 5]}


def test_compute_classnumber(capsys):
    code, out, _ = run_cli(capsys, "compute", "--what", "classnumber", "--p", "23")
    assert code == 0
    assert out.strip() == "dirichlet=3 lemma1(q=3)=3 forms=3"


def test_compute_representation(capsys):
    code, out, _ = run_cli(capsys, "compute", "--what", "representation",
                           "--p", "7", "--q", "3")
    assert code == 0 and out.strip() == "a=5 b=1"


def test_compute_squares(capsys):
    code, out, _ = run_cli(capsys, "compute", "--what", "squares", "--p", "7")
    assert code == 0
    assert "beta=2" in out and "neg=[3, 5, 6]" in out


def test_compute_verdict_pass_and_fail_codes(capsys):
    code, out, _ = run_cli(capsys, "compute", "--what", "verdict",
                           "--theorem", "t4", "--p", "47", "--q", "11")
    assert code == 0 and "PASS" in out
    # out-of-regime single verdict is a usage error, not a theorem failure
    code, _, err = run_cli(capsys, "compute", "--what", "verdict",
                           "--theorem", "t1", "--p", "13", "--q", "3")
    assert code == 2


def test_compute_verdict_regime_error_names_theorem(capsys):
    code, out, err = run_cli(capsys, "compute", "--what", "verdict",
                             "--theorem", "t1", "--p", "13", "--q", "3")
    assert code == 2 and out == ""
    assert err == "error: t1: p=13: need p == 3 (mod 4)\n"


def test_scan_q_max_takes_every_odd_prime(capsys):
    code, out, _ = run_cli(capsys, "scan", "--p-max", "100", "--q-max", "13",
                           "--theorems", "t1,eq_a", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["config"]["q"] == {"t1": [3, 5, 7, 11, 13],
                                     "eq_a": [3, 5, 7, 11, 13]}
    assert report["totals"]["eq_a"]["skipped_q"] == 3   # 3, 5 and 13


def test_compute_usage_errors(capsys):
    code, _, err = run_cli(capsys, "compute", "--what", "products", "--p", "7")
    assert code == 2 and "needs --q" in err
    code, _, err = run_cli(capsys, "compute", "--what", "products",
                           "--p", "13", "--q", "5")
    assert code == 2
    code, _, err = run_cli(capsys, "compute", "--what", "verdict", "--p", "7",
                           "--q", "3")
    assert code == 2 and "--theorem" in err


def test_compute_out_of_memory_is_a_usage_error():
    # block counts read the residue index, whose build at p = 2**31 - 1
    # marks a p-byte array, 2 GiB alone, which cannot fit under a 2 GiB cap
    # (h(-p) streams instead)
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(gaussprod.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-m", "gaussprod", "compute", "--what",
                          "counts", "--p", str(2**31 - 1), "--q", "3"],
                         capture_output=True, text=True, env=env,
                         preexec_fn=cap_address_space, timeout=120)
    assert run.returncode == 2, run.stderr
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1


def test_selftest_command(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "selftest:" in out and "ok" in out


def test_selftest_reports_failures(monkeypatch, capsys):
    import gaussprod.selftest as st_mod
    monkeypatch.setattr(st_mod, "FIXTURES",
                        st_mod.FIXTURES + [("arith", "planted", lambda: 1, 2)])
    assert run_selftest(quiet=True) == 3
    out = capsys.readouterr().out
    assert "planted" in out


def test_selftest_fixture_count():
    assert len(FIXTURES) >= 75


def test_workers_env_var(monkeypatch, capsys):
    monkeypatch.setenv("GAUSSPROD_WORKERS", "2")
    code, out, _ = run_cli(capsys, "scan", "--p-max", "300", "--q", "3",
                           "--theorems", "t1", "--format", "json")
    assert code == 0
    monkeypatch.setenv("GAUSSPROD_WORKERS", "zebra")
    code, _, err = run_cli(capsys, "scan", "--p-max", "100", "--q", "3",
                           "--theorems", "t1")
    assert code == 2 and "GAUSSPROD_WORKERS" in err


def test_scan_reports_identical_across_worker_counts():
    # all nine theorems, so the prime-major units mix every verifier
    base = dict(p_max=3000, theorems=THEOREM_IDS, q_values=(3, 5, 7))
    r1 = run_scan(ScanConfig(workers=1, **base))
    r8 = run_scan(ScanConfig(workers=8, **base))
    j1 = json.loads(render_json(r1))
    j8 = json.loads(render_json(r8))
    j1.pop("runtime_ms")
    j8.pop("runtime_ms")
    assert json.dumps(j1, sort_keys=True) == json.dumps(j8, sort_keys=True)
    assert render_csv(r1) == render_csv(r8)
    assert r1.verdicts == r8.verdicts


def test_render_human_failure_listing():
    from gaussprod.verdict import Verdict
    rep = run_scan(ScanConfig(p_max=100, theorems=("t1",), q_values=(3,)))
    rep.failures = [Verdict("t1", 7, 3, 1, -1, False, "synthetic")]
    text = render_human(rep)
    assert "FAIL t1 p=7 q=3" in text and "synthetic" in text


def test_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(p_max=6, theorems=("t1",))
    with pytest.raises(ValueError):
        ScanConfig(p_max=100, theorems=())
    with pytest.raises(ValueError):
        ScanConfig(p_max=100, theorems=("t1", "t1"))
    with pytest.raises(ValueError):
        ScanConfig(p_max=100, theorems=("t1",), q_values=(4,))
    with pytest.raises(ValueError):
        ScanConfig(p_max=100, theorems=("t1",), workers=0)
    # an empty q list would run nothing and echo like a claim without q
    with pytest.raises(ValueError, match="q_values"):
        ScanConfig(p_max=200, theorems=("t1",), q_values=())


def test_scan_rejects_q_at_or_above_p_max(capsys):
    # no regime admits q >= p, so such a q would run nothing and echo a claim
    for p_max, q in ((100, 101), (101, 101)):
        with pytest.raises(ValueError, match=f"q {q} and p_max {p_max}"):
            ScanConfig(p_max=p_max, theorems=("t1",), q_values=(3, q))
    code, out, err = run_cli(capsys, "scan", "--p-max", "100", "--q", "101",
                             "--theorems", "t1")
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and "101" in err and "100" in err, err


SMALL_SCAN = ("--p-max", "3000", "--theorems", "all", "--q", "3", "--q", "5", "--q", "7")


def _small_config(workers: int) -> ScanConfig:
    return ScanConfig(p_max=3000, theorems=THEOREM_IDS, q_values=(3, 5, 7), workers=workers)


def test_scan_csv_streams_the_library_rendering(tmp_path, monkeypatch, capsys):
    import gaussprod.scan as scan_mod
    want = render_csv(run_scan(_small_config(1)))
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "scan", *SMALL_SCAN, "--workers", "1",
                           "--format", "csv", "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_bytes() == want.encode()
    # several units in a pool of two
    monkeypatch.setattr(scan_mod, "UNIT_S", 0.01)
    code, out, _ = run_cli(capsys, "scan", *SMALL_SCAN, "--workers", "2",
                           "--format", "csv", "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_bytes() == want.encode()


def test_scan_json_and_human_match_the_library_rendering(capsys):
    report = run_scan(_small_config(1))
    code, out, _ = run_cli(capsys, "scan", *SMALL_SCAN, "--format", "json")
    assert code == 0
    got, want = json.loads(out), json.loads(render_json(report))
    got.pop("runtime_ms")
    want.pop("runtime_ms")
    assert got == want
    code, out, _ = run_cli(capsys, "scan", *SMALL_SCAN)
    assert code == 0
    want = render_human(report)
    # the last line states the runtime
    assert out.splitlines()[:-1] == want.splitlines()[:-1]
    assert out.splitlines()[-1].startswith("result: all passed (")
    assert "q=7: blocks 1 and 3 share a symbol" in out


def test_scan_internal_error_keeps_the_rows_written(tmp_path, monkeypatch, capsys):
    # a verifier raises at one prime: the rows of the units before its unit
    # are in the file, and the run exits 3 with one line
    import gaussprod.scan as scan_mod
    from gaussprod.errors import InternalCheckError
    monkeypatch.setattr(scan_mod, "UNIT_S", 0.01)
    units, _ = scan_mod._build_units(_small_config(1))
    unit = units[2]
    bad = next(p for p, work in unit if any(tid == "t1" for tid, _ in work))
    lines = render_csv(run_scan(_small_config(1))).splitlines(keepends=True)
    want = "".join(lines[:1] + [r for r in lines[1:] if int(r.split(",")[1]) < unit[0][0]])
    t1 = scan_mod._VERIFIERS["t1"]

    def broken(p, q, inputs):
        if p == bad:
            raise InternalCheckError(f"planted at p={bad}")
        return t1(p, q, inputs)

    monkeypatch.setitem(scan_mod._VERIFIERS, "t1", broken)
    target = tmp_path / "rows.csv"
    for workers in ("1", "2"):
        code, out, err = run_cli(capsys, "scan", *SMALL_SCAN, "--workers", workers,
                                 "--format", "csv", "--output", str(target))
        assert code == 3 and out == ""
        assert err == f"internal error: planted at p={bad}\n", err
        assert target.read_text() == want, workers


def test_scan_progress_goes_to_stderr_only(tmp_path, monkeypatch, capsys):
    # CSV, the one format without a runtime, so that output can compare bytes
    import gaussprod.scan as scan_mod
    monkeypatch.setattr(scan_mod, "UNIT_S", 0.01)
    total = len(scan_mod._build_units(_small_config(1))[0])
    assert total > 1
    base = ("scan", *SMALL_SCAN, "--format", "csv")
    code, plain, err = run_cli(capsys, *base)
    assert code == 0 and err == ""
    code, shown, err = run_cli(capsys, *base, "--progress")
    assert code == 0 and shown == plain
    lines = err.splitlines()
    assert len(lines) == total
    for done, line in enumerate(lines, 1):
        assert re.fullmatch(rf"scan: {done}/{total} units, \d+ primes/s, ETA \d+ s", line), line
    plain_file, shown_file = tmp_path / "plain.csv", tmp_path / "shown.csv"
    code, out, err = run_cli(capsys, *base, "--output", str(plain_file))
    assert code == 0 and out == err == ""
    code, out, err = run_cli(capsys, *base, "--output", str(shown_file), "--progress")
    assert code == 0 and out == "" and len(err.splitlines()) == total
    assert shown_file.read_bytes() == plain_file.read_bytes()
