"""The benchmark's tracer names package functions; a deletion that breaks
its traced run must fail here, not at benchmark time."""

import importlib
import importlib.util
from pathlib import Path

from gaussprod import theorems

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
