"""Names that other code or the docs look up by string must exist: the
benchmark tracer's targets, every public name a module exports, and the
dotted names README.md quotes.  A deletion that leaves one behind must fail
here, not at benchmark time, on import * or in a reader's hands.  So must a
change that moves a digest the benchmark's correctness gate checks, and a
private helper that the package itself no longer uses."""

import ast
import importlib
import importlib.util
import json
import pkgutil
import re
import time
from pathlib import Path

import gaussprod
from gaussprod import selftest, theorems

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gaussprod"
PERFBENCH = ROOT / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist():
    tracer = _load_perfbench("tracer")
    missing = [(short, attr)
               for targets in tracer.LAYERS.values()
               for short, attr in targets
               if not callable(getattr(importlib.import_module(f"gaussprod.{short}"),
                                       attr, None))]
    assert missing == []
    assert set(tracer.THEOREM_IDS) == set(theorems._VERIFIERS)


def test_benchmark_correctness_gate_passes():
    # one untraced sample of each workload, in a fresh interpreter as the
    # benchmark runs it, checked against the recorded digests and totals
    run = _load_perfbench("run")
    expected = json.loads(run.EXPECTED_PATH.read_text(encoding="utf-8"))
    for workload, workers in (("sweep", None), ("representation", 1),
                              ("point_queries", None)):
        spec = run.make_spec(workload, 0, False, workers)
        res = run.run_sample(spec, time.monotonic())
        assert run.check_sample(workload, 0, res, expected) == [], workload


def test_traced_samples_pass_the_correctness_gate(tmp_path):
    # one traced sample of each workload, whose tracer counts every body call
    # through theorems._VERIFIERS against the totals; the spans go to tmp_path
    run = _load_perfbench("run")
    expected = json.loads(run.EXPECTED_PATH.read_text(encoding="utf-8"))
    for workload, workers in (("sweep", 1), ("representation", 1), ("point_queries", None)):
        spec = run.make_spec(workload, 0, True, workers)
        spec["spans_path"] = str(tmp_path / f"spans-{workload}.tsv")
        res = run.run_sample(spec, time.monotonic())
        assert "layers" in res, workload
        assert run.check_sample(workload, 0, res, expected) == [], workload


def test_public_names_resolve():
    # __main__ is skipped: importing it runs the command line
    modules = [gaussprod] + [importlib.import_module(f"gaussprod.{info.name}")
                             for info in pkgutil.iter_modules(gaussprod.__path__)
                             if info.name != "__main__"]
    exported = [m for m in modules if hasattr(m, "__all__")]
    assert len(exported) >= 7
    unresolved = [(m.__name__, name) for m in exported for name in m.__all__
                  if not hasattr(m, name)]
    assert unresolved == []


def test_readme_fixture_count_matches_selftest():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    counts = [int(n) for n in re.findall(r"(\d+) frozen fixtures", readme)]
    assert counts == [len(selftest.FIXTURES)]


def test_readme_names_resolve():
    # every backticked dotted name whose head is a gaussprod module
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    prose = re.sub(r"^```.*?^```", "", readme, flags=re.M | re.S)
    heads = {info.name: importlib.import_module(f"gaussprod.{info.name}")
             for info in pkgutil.iter_modules(gaussprod.__path__)
             if info.name != "__main__"}
    names = [name for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", prose)
             if name.split(".")[0] in heads]
    assert len(names) >= 5

    def resolves(name):
        head, *rest = name.split(".")
        obj = heads[head]
        for attr in rest:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True

    assert [name for name in names if not resolves(name)] == []


def test_private_names_are_used():
    # every top-level _name a module of the package defines is read by name
    # somewhere in the package, as a Name or an Attribute: a helper that
    # only tests call belongs with the tests
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert len(private) >= 20
    assert sorted(private - used) == []
