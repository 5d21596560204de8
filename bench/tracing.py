"""Outside-in tracing of the library: wrap public functions, keep spans in memory.

The tracer patches every ``credal`` module attribute that is bound to a
wrapped function object, so calls through any import path are seen.  Each
call becomes a span (name, parent span, start, end); counters ride along
at the same boundaries (integrand points, ``prob_matrix`` rows, rows and
bytes written).  Self time is a span's duration minus its children's.
A name listed for wrapping that no longer exists is recorded as absent.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# modules whose public functions are wrapped; the harness package's
# submodules all report under "harness"
MODULES = {
    "credal.measures": "measures",
    "credal.sets": "sets",
    "credal.estimation": "estimation",
    "credal.synthgen": "synthgen",
    "credal.dro": "dro",
    "credal.harness.config": "harness",
    "credal.harness.experiments": "harness",
    "credal.harness.summary": "harness",
}
# methods wrapped on every class of credal.measures that defines them
METHODS = {"prob_matrix": "measures.prob_matrix", "pdf": "measures.pdf"}
# functions the per-layer metrics name; reported as absent when missing
EXPECTED = (
    "measures.adaptive_simpson",
    "measures.gauss_hermite_expectation",
    "measures.joint_tv_exact",
    "measures.expected_conditional_tv",
    "measures.tv_env",
    "measures.sup_conditional_tv",
    "sets.diameter_bounds",
    "sets.pairwise_bounds",
    "sets.component_diameters",
    "harness.run",
    "harness.config_hash",
    "estimation.disagreement_hard_from_labels",
    "estimation.read_annotations",
    "estimation.write_annotations",
    "estimation.certificate",
    "synthgen.sample_hard_arrays",
    "synthgen.sample_annotated",
    "dro.train",
    "dro.world_risks",
    "dro.brute_force_minimax",
)


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Spans and counters for one traced pass; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)
        self.wrapped: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spanned(self, name: str, fn):
        """fn wrapped so that each call records a span named ``name``."""
        nid = self._id(name)
        names, parents, starts, ends, stack = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self._stack
        )

        def spanned(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = start
                stack.pop()

        return spanned

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named ``name``."""
        return self._spanned(name, fn)(*args, **kwargs)

    def reset(self) -> None:
        """Drop the spans and counters of the previous pass."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.counters.clear()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        counters = self.counters
        if name == "measures.pdf":
            # counted only: a span per density evaluation would cost more than it shows
            key = name + ".calls"

            def counted(*args, **kwargs):
                counters[key] += 1
                return fn(*args, **kwargs)

            return counted
        inner = self._spanned(name, fn)
        if name in ("measures.adaptive_simpson", "measures.gauss_hermite_expectation"):
            key = name + ".evals"

            def wrapper(f_, *args, **kwargs):
                def integrand(x):
                    counters[key] += getattr(x, "size", 1)
                    return f_(x)

                return inner(integrand, *args, **kwargs)

        elif name in METHODS.values():
            key = name + ".points"

            def wrapper(obj, x, *args, **kwargs):
                counters[key] += getattr(x, "size", 1)
                return inner(obj, x, *args, **kwargs)

        elif name == "harness.run":

            def wrapper(*args, **kwargs):
                manifest = inner(*args, **kwargs)
                counters["harness.rows"] += manifest["rows"]
                text = Path(manifest["csv"]).read_bytes()
                # the body only: the first line carries a timestamp
                counters["harness.csv_bytes"] += len(text) - len(text.split(b"\n", 1)[0]) - 1
                return manifest

        elif name in ("estimation.write_annotations", "estimation.read_annotations"):
            key = name + ".bytes"

            def wrapper(path, *args, **kwargs):
                out = inner(path, *args, **kwargs)
                counters[key] += _file_bytes(path)
                return out

        elif name == "dro.train":

            def wrapper(*args, **kwargs):
                h, trace = inner(*args, **kwargs)
                counters["dro.train.steps"] += len(trace)
                return h, trace

        else:
            wrapper = inner
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the public functions of MODULES and the METHODS of measures' classes."""
        targets: dict[int, tuple[str, object]] = {}
        for modname, short in MODULES.items():
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != modname:
                    continue
                targets[id(obj)] = (f"{short}.{attr}", obj)
        wrappers = {key: self._wrap(name, obj) for key, (name, obj) in targets.items()}
        self.wrapped = {name for name, _ in targets.values()}
        # rebind every credal module attribute that holds a wrapped object
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "credal" or modname.startswith("credal.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and obj is targets[id(obj)][1]:
                    self._patch(mod, attr, wrappers[id(obj)])
        measures = sys.modules.get("credal.measures")
        for cls in (vars(measures).values() if measures else ()):
            if not inspect.isclass(cls) or cls.__module__ != "credal.measures":
                continue
            for method, name in METHODS.items():
                if method in vars(cls):
                    self._patch(cls, method, self._wrap(name, vars(cls)[method]))
                    self.wrapped.add(name)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def layer_stats(self) -> dict[str, float]:
        """calls and self_s per span name, plus every counter."""
        name = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        self_sum = np.bincount(name, weights=self_time, minlength=len(self.names))
        out: dict[str, float] = {}
        for i, n in enumerate(self.names):
            out[f"{n}.calls"] = int(calls[i])
            out[f"{n}.self_s"] = float(self_sum[i])
        out.update(self.counters)
        return out

    def absent(self) -> list[str]:
        return [n for n in (*EXPECTED, *METHODS.values()) if n not in self.wrapped]

    def write(self, path: Path) -> None:
        """Write the spans of the current pass: one row per span."""
        np.savez_compressed(
            path,
            name=np.asarray(self.span_name, dtype=np.int32),
            parent=np.asarray(self.span_parent, dtype=np.int32),
            start=np.asarray(self.span_start),
            end=np.asarray(self.span_end),
            names=np.asarray(json.dumps(self.names)),
        )
