"""Per-layer tracing of kostantcheck from outside the package.

:func:`install` replaces the public functions of each layer module, and a few
named methods, with timing wrappers.  The modules import each other with
``from .x import f``, so a function is rebound in every ``kostantcheck.*``
namespace that holds the same object (found by identity); methods are patched
on their class.  An ``lru_cache`` keeps caching behind its wrapper.

Every call is folded into per-function and per-(function, caller) aggregates:
calls, self time (the call's span minus the spans of wrapped calls inside it)
and an outcome count for the waste ratios.  Coarse calls (cells, file
operations, ``hodge``, ``build_maps``, module builders, ``transfer``,
``normalize_step``, ``ag_costar_check``, load and save) are also kept as full
spans (name, start, end, parent span, run id).  Spans stay in memory until
:meth:`Tracer.dump`.  ``ratlin.frac`` and ``Fraction`` are never wrapped: they
run millions of times per sweep and the wrapper would dominate them.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from typing import Callable

LAYERS = ("ratlin", "gla", "kostant", "feff", "penrose", "cochain_io", "checks", "cli")

# Private helpers that carry a named layer metric.
PRIVATE = {"checks._random_combination", "checks._random_tensor"}
SKIP = {"ratlin.frac"}

# Methods wrapped on their class, by the metric name they report under.
METHODS = {
    ("ratlin", "Subspace", "insert"): "ratlin.subspace_insert",
    ("ratlin", "Subspace", "contains"): "ratlin.subspace_contains",
    ("ratlin", "Subspace", "intersect"): "ratlin.subspace_intersect",
    ("gla", "GradedSL", "class_mod_p"): "gla.class_mod_p",
    ("kostant", "Cochain", "add"): "kostant.cochain_add",
    ("kostant", "Cochain", "add_term"): "kostant.cochain_add_term",
    ("kostant", "ChainModule", "contains"): "kostant.chain_module_contains",
}

MODULE_BUILDERS = ("module_E", "module_E2", "module_F", "module_F_path",
                   "module_E_path", "module_constrained_path")

# Calls kept as full spans; everything else is aggregated only.
SPANS = {"checks.run_check", "cli.main", "kostant.hodge", "feff.build_maps",
         "feff.transfer", "feff.normalize_step", "feff.ag_costar_check",
         "cochain_io.load_cochain", "cochain_io.save_cochain",
         *(f"feff.{b}" for b in MODULE_BUILDERS)}


def _nonzero_count(_args, result) -> int:
    return not result.is_zero()


def _zero_class(_args, result) -> int:
    return not any(result)


def _grew(_args, result) -> int:
    return bool(result)


def _infeasible(_args, result) -> int:
    return result is None


def _load_bytes(args, _result) -> int:
    return os.path.getsize(args[0])


def _save_bytes(args, _result) -> int:
    return os.path.getsize(args[1])


# Per-call outcome counters: the numerator of a waste ratio or a byte count.
OUTCOMES: dict[str, Callable] = {
    "gla.class_mod_p": _zero_class,
    "kostant.insertion": _nonzero_count,
    "ratlin.subspace_insert": _grew,
    "feff.normalize_step": _infeasible,
    "cochain_io.load_cochain": _load_bytes,
    "cochain_io.save_cochain": _save_bytes,
}

# lru_cache tables whose hit ratio is reported, by metric prefix.
CACHES = {
    "gla.graded_sl": ("gla", ("graded_sl",)),
    "kostant.block_structure": ("kostant", ("block_structure",)),
    "kostant.hodge": ("kostant", ("hodge",)),
    "feff.build_maps": ("feff", ("build_maps",)),
    "feff.modules": ("feff", MODULE_BUILDERS),
}

ROOT_FRAME = "bench"


class Tracer:
    """Stack of open calls plus the aggregates they fold into."""

    def __init__(self) -> None:
        # A frame is [child seconds, name, span id of the nearest span].
        self.stack: list[list] = [[0.0, ROOT_FRAME, None]]
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, outcome, total_s]
        self.by_caller: dict[tuple[str, str], list] = {}
        self.spans: list[tuple] = []
        self.run_id = 0

    def begin_run(self) -> None:
        """Start a new top-level operation (a cell or a file operation)."""
        self.run_id += 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack, stats, by_caller, spans = self.stack, self.stats, self.by_caller, self.spans
        stat = stats.setdefault(name, [0, 0.0, 0, 0.0])
        outcome = OUTCOMES.get(name)
        keep_span = name in SPANS
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans) if keep_span else parent[2]
            if keep_span:
                spans.append(None)
            frame = [0.0, name, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                own = (t1 - t0) - frame[0]
                stat[0] += 1
                stat[1] += own
                stat[3] += t1 - t0
                agg = by_caller.get((name, parent[1]))
                if agg is None:
                    agg = by_caller[(name, parent[1])] = [0, 0.0]
                agg[0] += 1
                agg[1] += own
                if keep_span:
                    spans[span_id] = (span_id, name, t0, t1, parent[2], tracer.run_id)
                parent[0] += t1 - t0
            if outcome is not None:
                stat[2] += outcome(args, result)
            # The hook and the bookkeeping above are overhead: keep them out
            # of the caller's self time as well.
            parent[0] += clock() - t1
            return result

        wrapper.__wrapped__ = fn
        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
        return wrapper

    def snapshot_caches(self) -> dict[str, tuple[int, int]]:
        out = {}
        for metric, (layer, names) in CACHES.items():
            mod = sys.modules[f"kostantcheck.{layer}"]
            hits = misses = 0
            for fname in names:
                info = getattr(mod, fname).cache_info()
                hits += info.hits
                misses += info.misses
            out[metric] = (hits, misses)
        return out

    def metrics(self, cache_before: dict, cache_after: dict) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: ``<module>.<function>.<stat>`` → (value, unit)."""
        def stat(name: str) -> list:
            return self.stats.get(name, [0, 0.0, 0, 0.0])

        def calls(name: str) -> int:
            return stat(name)[0]

        def self_s(*names: str) -> float:
            return sum(stat(n)[1] for n in names)

        def total_s(*names: str) -> float:
            return sum(stat(n)[3] for n in names)

        def frac(name: str) -> float:
            c = calls(name)
            return stat(name)[2] / c if c else 0.0

        out: dict[str, tuple[float, str]] = {}
        for name in ("gla.class_mod_p", "kostant.insertion", "kostant.costar_two_form",
                     "gla.smat_bracket", "kostant.cochain_add", "ratlin.rref",
                     "ratlin.kernel_basis", "ratlin.solve", "ratlin.subspace_insert",
                     "ratlin.subspace_contains", "ratlin.subspace_intersect",
                     "kostant.operator_block", "kostant.blocked_coords",
                     "kostant.chain_module_contains", "feff.normalize_step",
                     "feff.transfer", "kostant.costar", "penrose.extract_blocks"):
            out[f"{name}.calls"] = (calls(name), "count")
            out[f"{name}.self_s"] = (self_s(name), "s")
        out["checks.sample.calls"] = (calls("checks._random_combination")
                                      + calls("checks._random_tensor"), "count")
        out["checks.sample.self_s"] = (self_s("checks._random_combination",
                                              "checks._random_tensor"), "s")
        out["kostant.cochain_add_term.calls"] = (calls("kostant.cochain_add_term"), "count")
        out["gla.smat_add_into.calls"] = (calls("gla.smat_add_into"), "count")
        out["gla.smat_add_into.self_s"] = (self_s("gla.smat_add_into"), "s")
        # Inclusive time (span with its wrapped children) of calls that never
        # recurse: where a layer's self time is spent on behalf of a caller.
        out["checks.sample.total_s"] = (total_s("checks._random_combination",
                                                "checks._random_tensor"), "s")
        for name in ("kostant.cochain_add", "kostant.insertion", "kostant.costar_two_form",
                     "kostant.hodge", "feff.transfer", "kostant.costar"):
            out[f"{name}.total_s"] = (total_s(name), "s")
        out["gla.class_mod_p.zero_frac"] = (frac("gla.class_mod_p"), "ratio")
        out["kostant.insertion.nonzero_frac"] = (frac("kostant.insertion"), "ratio")
        out["ratlin.subspace_insert.grew_frac"] = (frac("ratlin.subspace_insert"), "ratio")
        out["feff.normalize_step.infeasible_frac"] = (frac("feff.normalize_step"), "ratio")
        out["kostant.hodge.self_s"] = (self_s("kostant.hodge"), "s")
        out["feff.build_maps.self_s"] = (self_s("feff.build_maps"), "s")
        out["feff.modules.self_s"] = (self_s(*(f"feff.{b}" for b in MODULE_BUILDERS)), "s")
        out["feff.ag_costar_check.self_s"] = (self_s("feff.ag_costar_check"), "s")
        for short, name in (("load", "cochain_io.load_cochain"),
                            ("save", "cochain_io.save_cochain")):
            out[f"cochain_io.{short}.calls"] = (calls(name), "count")
            out[f"cochain_io.{short}.self_s"] = (self_s(name), "s")
            out[f"cochain_io.{short}.total_s"] = (total_s(name), "s")
            out[f"cochain_io.{short}.bytes"] = (stat(name)[2], "B")
        for metric in CACHES:
            hits = cache_after[metric][0] - cache_before[metric][0]
            misses = cache_after[metric][1] - cache_before[metric][1]
            out[f"{metric}.lookups"] = (hits + misses, "count")
            out[f"{metric}.hit_frac"] = (hits / (hits + misses) if hits + misses else 0.0,
                                         "ratio")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_s(*(n for n in self.stats
                                               if n.startswith(layer + "."))), "s")
        return out

    def dump(self, path: str) -> None:
        """Write the spans and the per-(function, caller) aggregates."""
        doc = {
            "spans": [dict(zip(("id", "name", "start", "end", "parent", "run"), s))
                      for s in self.spans if s is not None],
            "by_caller": [{"name": n, "caller": c, "calls": a[0], "self_s": a[1]}
                          for (n, c), a in sorted(self.by_caller.items())],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _targets():
    """(metric name, owner, attribute, original) for everything to wrap."""
    for layer in LAYERS:
        mod = importlib.import_module(f"kostantcheck.{layer}")
        for attr, obj in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if name in SKIP or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if attr.startswith("_") and name not in PRIVATE:
                continue
            yield name, mod, attr, obj
        for (mlayer, cls_name, meth), name in METHODS.items():
            if mlayer == layer:
                cls = getattr(mod, cls_name)
                yield name, cls, meth, cls.__dict__[meth]


def install() -> Tracer:
    """Wrap every layer of the imported package and return the tracer."""
    tracer = Tracer()
    namespaces = [m for k, m in sys.modules.items()
                  if k == "kostantcheck" or k.startswith("kostantcheck.")]
    for name, owner, attr, original in list(_targets()):
        wrapped = tracer.wrap(name, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)
                elif isinstance(value, dict):
                    # The check registry maps names to (min n, runner).
                    for k, v in list(value.items()):
                        if isinstance(v, tuple) and original in v:
                            value[k] = tuple(wrapped if x is original else x for x in v)
    return tracer
