"""Spans around the public functions of sl3coh, installed from outside.

The package itself is not changed: `install` rebinds every reference to a
public function in the package's module namespaces to a wrapper that opens
a span.  A span has an id, its parent's id, a name `<module>.<function>`,
and start and end times; spans of one top-level call share that call's
span as their root.  Totals per name (calls, time, self time) are exact;
individual span records are kept up to a cap and written out at the end.
"""
from __future__ import annotations

import importlib
import json
import time
from functools import wraps

LAYERS = ("rootsystem", "parity", "gl2", "traces", "euler", "boundary", "eisenstein", "checks", "cli")

# unbounded lru_cache sites, read through cache_info()
CACHED = {
    "survivor_sets": "parity",
    "e1_page": "boundary",
    "case_profile": "boundary",
    "dim_cusp_forms": "gl2",
    "kostant_set": "rootsystem",
    "_h_row": "traces",
}

SPAN_CAP = 20000


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [id, name, start_ns, child_ns]
        self.totals: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.spans: list[tuple] = []  # (id, parent_id, name, start_ns, end_ns)
        self.dropped = 0
        self._next_id = 0

    def wrap(self, name: str, fn):
        stack, totals, spans, clock = self.stack, self.totals, self.spans, time.perf_counter_ns
        totals.setdefault(name, [0, 0, 0])
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            tracer._next_id += 1
            span = [tracer._next_id, name, clock(), 0]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - span[2]
                entry = totals[name]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - span[3]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((span[0], parent[0] if parent else None, name, span[2], end))
                else:
                    tracer.dropped += 1

        return traced

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "dropped_spans": self.dropped, "totals": self.totals}, fh)
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _public_functions(mod) -> dict:
    return {
        attr: obj
        for attr, obj in vars(mod).items()
        if not attr.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == mod.__name__
    }


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer; checks families get one span each.

    cli is wrapped at its entry point `main` only, so that its self time is
    argument parsing plus rendering.
    """
    pkg = importlib.import_module("sl3coh")
    mods = {name: importlib.import_module(f"sl3coh.{name}") for name in LAYERS}
    wrapped = {}
    for name, mod in mods.items():
        if name == "cli":
            fns = {"main": mod.main}
        elif name == "checks":
            fns = {"run_all": mod.run_all}
        else:
            fns = _public_functions(mod)
        for attr, fn in fns.items():
            wrapped[id(fn)] = (fn, tracer.wrap(f"{name}.{attr}", fn))
    for mod in (pkg, *mods.values()):
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    checks = mods["checks"]
    checks.CHECKS = tuple((fam, tracer.wrap(f"checks.{fam}", fn)) for fam, fn in checks.CHECKS)


def cache_counters() -> dict:
    """hits, misses and current size of each cache site."""
    out = {}
    for fn, layer in CACHED.items():
        obj = getattr(importlib.import_module(f"sl3coh.{layer}"), fn)
        # a traced function is a wrapper whose __wrapped__ is the cache
        info = (obj if hasattr(obj, "cache_info") else obj.__wrapped__).cache_info()
        out[fn] = {"hits": info.hits, "misses": info.misses, "entries": info.currsize}
    return out
