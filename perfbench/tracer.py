"""Span tracer that wraps gaussprod's layer functions from outside the package.

Every wrapped call records one span (layer, start, end, parent span) in
memory.  Wrapping replaces the function at its call sites: every gaussprod
module whose globals bind the original, and the theorem dispatch table that
run_scan and verify go through.  Nothing under src/ is edited; uninstall()
puts the originals back.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

THEOREM_IDS = ("corollary", "eq2_parity", "eq_a", "mordell", "symmetry",
               "t1", "t2", "t3", "t4")

# layer name -> (module, function) pairs whose calls the layer's spans cover
LAYERS = {
    "arith.is_prime": [("arith", "is_prime")],
    "arith.legendre": [("arith", "legendre")],
    "arith.primes_matching": [("arith", "primes_matching")],
    "products.partial_products": [("products", "partial_products")],
    "products.generalized_partial_products": [("products", "generalized_partial_products")],
    "products.block_counts": [("products", "block_counts")],
    "products.theorem1_product": [("products", "theorem1_product")],
    "products.residue_table": [("products", "residue_mask"),
                               ("products", "residue_cumulative_counts")],
    "classnum.dirichlet": [("classnum", "class_number_dirichlet")],
    "classnum.forms": [("classnum", "class_number_forms")],
    "classnum.lemma1": [("classnum", "class_number_lemma1")],
    "classnum.representation": [("classnum", "hahn_lee_representation")],
    "scan.run_scan": [("scan", "run_scan")],
    "scan.render": [("scan", "render_json"), ("scan", "render_csv")],
}

# layer name -> (module, lru-cached function) whose cache_info gives hit_ratio;
# a function without cache_info leaves the ratio absent
CACHES = {
    "products.partial_products": ("products", "partial_products"),
    "products.generalized_partial_products": ("products", "generalized_partial_products"),
    "products.residue_table": ("products", "_residue_tables"),
    "classnum.dirichlet": ("classnum", "class_number_dirichlet"),
    "classnum.representation": ("classnum", "hahn_lee_representation"),
}


def _module(short: str):
    return sys.modules[f"gaussprod.{short}"]


def _cache_counts(short: str, attr: str) -> tuple[int, int] | None:
    info = getattr(getattr(_module(short), attr, None), "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


class Tracer:
    """Records spans for the layers in LAYERS and the nine theorem verifiers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[dict, object, object]] = []
        self._cache_before: dict[str, tuple[int, int] | None] = {}
        self._cache_after: dict[str, tuple[int, int] | None] = {}

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        lid = self.names.index(name)
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            layer.append(lid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _replace(self, orig, wrapper) -> None:
        """Rebind orig to wrapper in every gaussprod module namespace."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gaussprod" or mod_name.startswith("gaussprod.")):
                continue
            ns = vars(mod)
            for key, value in list(ns.items()):
                if value is orig:
                    self._undo.append((ns, key, orig))
                    ns[key] = wrapper

    def install(self) -> None:
        self._cache_before = {name: _cache_counts(*src) for name, src in CACHES.items()}
        for name, targets in LAYERS.items():
            for short, attr in targets:
                orig = getattr(_module(short), attr)
                self._replace(orig, self._wrap(name, orig))
        verifiers = _module("theorems")._VERIFIERS
        for tid in THEOREM_IDS:
            orig = verifiers[tid]
            wrapper = self._wrap(f"theorems.{tid}", orig)
            self._replace(orig, wrapper)
            self._undo.append((verifiers, tid, orig))
            verifiers[tid] = wrapper

    def uninstall(self) -> None:
        for ns, key, orig in reversed(self._undo):
            ns[key] = orig
        self._undo.clear()
        self._cache_after = {name: _cache_counts(*src) for name, src in CACHES.items()}

    def summary(self) -> dict[str, float | None]:
        """Per-layer calls, self_s (duration minus child spans), s (inclusive)
        and hit_ratio; None marks a ratio that is absent."""
        n_layers = len(self.names)
        layer = np.frombuffer(self.layer, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        calls = np.bincount(layer, minlength=n_layers)
        total = np.bincount(layer, weights=dur, minlength=n_layers)
        self_time = np.bincount(layer, weights=dur - child, minlength=n_layers)
        out: dict[str, float | None] = {}
        for lid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[lid])
            out[f"{name}.self_s"] = float(self_time[lid])
            out[f"{name}.s"] = float(total[lid])
        for name in CACHES:
            before, after = self._cache_before.get(name), self._cache_after.get(name)
            ratio = None
            if before is not None and after is not None:
                hits, misses = after[0] - before[0], after[1] - before[1]
                if hits + misses:
                    ratio = hits / (hits + misses)
            out[f"{name}.hit_ratio"] = ratio
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span: layer, start, end, parent index."""
        with open(path, "w") as fh:
            fh.write("layer\tstart\tend\tparent\n")
            names = self.names
            fh.writelines(f"{names[l]}\t{s:.9f}\t{e:.9f}\t{p}\n"
                          for l, s, e, p in zip(self.layer, self.start, self.end, self.parent))
