"""Spans around the public functions of polyreg's modules.

Wrappers are installed by replacing module attributes.  Every call inside
the package resolves through a module namespace (a module global or
`module.function`), so the wrappers see internal calls as well as the
benchmark's own, without any change to the package.  Spans are kept in
memory as (id, parent id, name, start ns, end ns) and written at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import time
from collections import Counter, defaultdict

LAYERS = ("circulant", "spherical", "hyperbolic", "euclid", "analyzer", "experiment", "emit", "cli")
SPECTRUM = ("eigenvalues", "contraction_factor", "fixed_space_limit", "predict_iterations")

# Per-layer metrics reported by a traced run: name -> (unit, how it is read
# from the span totals).  `calls`/`self_s` are per function; the others are
# counters recorded at the same boundaries.
PER_LAYER = {}


def _fn(name, stat, unit):
    PER_LAYER[f"{name}.{stat}"] = (unit, lambda t: t.stat(name, stat))


for _name in ("circulant.apply", "spherical.to_cyclic_frame", "spherical.from_cyclic_frame",
              "hyperbolic.gap_step", "hyperbolic.points_from_gaps",
              "experiment.random_spherical_triangle", "euclid.rotate_half_step",
              "analyzer.classify", "cli.main"):
    _fn(_name, "calls", "count")
for _name in ("circulant.apply", "spherical.to_cyclic_frame", "spherical.regularize",
              "spherical.from_cyclic_frame", "hyperbolic.regularize_hyperbolic",
              "hyperbolic.gap_step", "hyperbolic.points_from_gaps",
              "hyperbolic.polygon_from_boundary", "experiment.run_table1",
              "experiment.random_spherical_triangle", "emit.trace_records", "emit.write_records",
              "emit.write_json", "euclid.rotate_half_step", "euclid.angle_gaps", "euclid.napoleon",
              "analyzer.classify", "cli.main"):
    _fn(_name, "self_s", "s")
PER_LAYER["circulant.spectrum.calls"] = (
    "count", lambda t: sum(t.stat(f"circulant.{f}", "calls") for f in SPECTRUM))
PER_LAYER["circulant.spectrum.self_s"] = (
    "s", lambda t: sum(t.stat(f"circulant.{f}", "self_s") for f in SPECTRUM))
for _counter, _unit in (("spherical.regularize.iterations", "count"),
                        ("hyperbolic.regularize_hyperbolic.iterations", "count"),
                        ("hyperbolic.errors", "count"), ("cli.errors", "count"),
                        ("emit.rows_written", "count"), ("emit.bytes_written", "bytes")):
    PER_LAYER[_counter] = (_unit, lambda t, c=_counter: t.counts[c])
PER_LAYER["experiment.frames_per_trial"] = ("ratio", lambda t: t.frames_per_trial())


def _regularize_iterations(args, result):
    return {"iterations": result.iterations}


def _table1_trials(args, result):
    config = args["config"]
    return {"trials": config.trials * len(set(config.k_values))}


def _written(args, result):
    out = {"bytes_written": os.stat(args["path"]).st_size}
    if "records" in args:
        out["rows_written"] = len(args["records"])
    return out


# Counters read off a call's arguments and result, keyed by function.
# Each returns {counter: increment}; the counter is filed under the layer
# (emit.*) or the function (everything else).
_AFTER = {
    "spherical.regularize": _regularize_iterations,
    "hyperbolic.regularize_hyperbolic": _regularize_iterations,
    "experiment.run_table1": _table1_trials,
    "emit.write_records": _written,
    "emit.write_json": _written,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._stack: list[tuple[int, str]] = []
        self._installed: list[tuple[object, str, object]] = []
        self._totals = None

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"polyreg.{layer}")
            for attr, fn in list(vars(module).items()):
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                    self._installed.append((module, attr, fn))
                    setattr(module, attr, self._wrap(layer, f"{layer}.{attr}", fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _wrap(self, layer: str, name: str, fn):
        after = _AFTER.get(name)
        prefix = layer if layer == "emit" else name
        signature = inspect.signature(fn)
        spans, stack, ids, counts = self.spans, self._stack, self._ids, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, parent_layer = stack[-1] if stack else (0, "")
            span = next(ids)
            stack.append((span, layer))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent_layer != layer:
                    counts[f"{layer}.errors"] += 1
                raise
            finally:
                spans.append((span, parent, name, start, time.perf_counter_ns()))
                stack.pop()
            if after is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for counter, value in after(bound, result).items():
                    counts[f"{prefix}.{counter}"] += value
            return result

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """calls and self seconds per function; self = duration minus child spans."""
        if self._totals is None:
            child = defaultdict(int)
            for _, parent, _, start, end in self.spans:
                child[parent] += end - start
            totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
            for span, _, name, start, end in self.spans:
                totals[name]["calls"] += 1
                totals[name]["self_s"] += (end - start - child[span]) / 1e9
            self._totals = dict(totals)
        return self._totals

    def stat(self, name: str, stat: str) -> float:
        return self.totals().get(name, {}).get(stat, 0)

    def frames_per_trial(self) -> float:
        """Frame extractions made under run_table1, per table1 trial."""
        names = {span: name for span, _, name, _, _ in self.spans}
        parents = {span: parent for span, parent, _, _, _ in self.spans}
        frames = 0
        for span, name in names.items():
            if name != "spherical.to_cyclic_frame":
                continue
            while span and names.get(span) != "experiment.run_table1":
                span = parents.get(span, 0)
            frames += bool(span)
        trials = self.counts["experiment.run_table1.trials"]
        return frames / trials if trials else 0.0

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {name: (float(read(self)), unit) for name, (unit, read) in PER_LAYER.items()}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                handle.write("%d,%d,%s,%d,%d\n" % span)
