"""Names that other code looks up by string must exist: the benchmark
tracer's targets, and every public name a module exports.  A deletion that
leaves one behind must fail here, not at benchmark time or on import *."""

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import gaussprod
from gaussprod import selftest, theorems

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist():
    tracer = _load_tracer()
    missing = [(short, attr)
               for targets in tracer.LAYERS.values()
               for short, attr in targets
               if not callable(getattr(importlib.import_module(f"gaussprod.{short}"),
                                       attr, None))]
    assert missing == []
    assert set(tracer.THEOREM_IDS) == set(theorems._VERIFIERS)


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
