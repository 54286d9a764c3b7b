"""Span tracing of damagekit's layers from outside the package.

A Tracer wraps every public function of the layer modules at every place a
loaded damagekit module refers to it, including the defining module itself,
so calls are seen however the caller reached the function. Each call made
while the tracer is installed becomes a span: name, start, end, parent span
and operation id. Spans live in flat integer arrays in memory and are
written out once, when the run ends.

Self time of a span is its duration minus the durations of its direct
children. A layer's self time is the sum over its spans. Named per-function
metrics (such as ``zonal.assess_all_s``) collect the self time of their own
spans plus that of same-layer callees that have no metric of their own, so
``assess_footprint`` time counts towards ``assess_all`` while ``contains_many``
time counts towards geom.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import importlib
import inspect
import json
import os
import sys
import types
from array import array
from time import perf_counter_ns

LAYERS = ("cli", "synth", "raster", "formats", "zonal", "geom", "truth",
          "metrics", "plot")

# Function -> the metric its layer self time (and that of unnamed same-layer
# callees) is reported under. Functions not listed count only in <layer>.self_s.
TIMED = {
    "raster.parse_ascii_grid": "raster.parse_ascii_grid_s",
    "raster.write_ascii_grid": "raster.write_ascii_grid_s",
    "synth.generate": "synth.generate_s",
    "zonal.assess_all": "zonal.assess_all_s",
    "geom.contains_many": "geom.contains_many_s",
    "truth.match_points": "truth.match_points_s",
    "truth.join_samples": "truth.join_samples_s",
    "metrics.validate": "metrics.validate_s",
    "plot.render_pr_curve_svg": "plot.render_pr_curve_svg_s",
    "formats.read_text": "formats.file_io_s",
    "formats.write_text": "formats.file_io_s",
    "formats.parse_json": "formats.geojson_parse_s",
    "formats.parse_footprints_with_properties": "formats.geojson_parse_s",
    "formats.parse_footprints_geojson": "formats.geojson_parse_s",
    "formats.load_footprints": "formats.geojson_parse_s",
    "formats.parse_assessed_geojson": "formats.geojson_parse_s",
    "formats.write_footprints_geojson": "formats.geojson_write_s",
    "formats.write_assessed_geojson": "formats.geojson_write_s",
    "formats.round_half_up": "formats.geojson_write_s",
    "formats.write_truth_csv": "formats.csv_s",
    "formats.parse_truth_csv": "formats.csv_s",
    "formats.load_truth": "formats.csv_s",
    "formats.write_matches_csv": "formats.csv_s",
    "formats.parse_matches_csv": "formats.csv_s",
    "formats.write_oracle_csv": "formats.csv_s",
    "formats.parse_oracle_csv": "formats.csv_s",
    "formats.write_curve_csv": "formats.csv_s",
    "formats.parse_curve_csv": "formats.csv_s",
}

# Functions whose number of calls is a metric.
CALLS = {
    "geom.contains_many": "geom.contains_many_calls",
    "geom.contains": "geom.contains_calls",
    "geom.point_to_footprint_distance_m": "geom.distance_calls",
    "geom.distance_m": "geom.distance_calls",
}


def _count_raster_parse(c, a, r):
    c["raster.cells"] += r.ncols * r.nrows
    c["raster.text_bytes"] += len(a["text"])


def _count_raster_write(c, a, r):
    c["raster.cells"] += a["raster"].ncols * a["raster"].nrows
    c["raster.text_bytes"] += len(r)


def _count_generate(c, a, r):
    c["synth.footprints"] += len(r.footprints)
    c["synth.truth_points"] += len(r.truth)


def _count_assess(c, a, r):
    c["zonal.usable_pixels"] += sum(e.n_inside for e in r if not e.supersampled)
    c["zonal.supersampled"] += sum(e.supersampled for e in r)
    c["zonal.no_coverage"] += sum(e.no_coverage for e in r)


def _count_match(c, a, r):
    c["truth.points"] += len(a["points"])
    c["truth.matched"] += len(r[0])
    c["truth.unmatched"] += len(r[1])


def _count_write_text(c, a, r):
    c["formats.bytes_written"] += os.path.getsize(a["path"])


def _count_validate(c, a, r):
    c["metrics.samples"] += len(a["samples"])
    c["metrics.thresholds"] += len(r.curve.points)


# Counters the hooks below add to, reported per operation.
COUNTERS = ("raster.cells", "raster.text_bytes", "synth.footprints",
            "synth.truth_points", "zonal.usable_pixels", "zonal.supersampled",
            "zonal.no_coverage", "truth.points", "truth.unmatched",
            "formats.bytes_written", "metrics.samples", "metrics.thresholds")


# Counters read from a call's bound arguments and result, after the span.
HOOKS = {
    "raster.parse_ascii_grid": _count_raster_parse,
    "raster.write_ascii_grid": _count_raster_write,
    "synth.generate": _count_generate,
    "zonal.assess_all": _count_assess,
    "truth.match_points": _count_match,
    "formats.write_text": _count_write_text,
    "metrics.validate": _count_validate,
}


class TracerBlind(RuntimeError):
    """A layer that must run on a workload recorded no spans."""


class Tracer:
    """Records spans of damagekit layer calls while installed."""

    def __init__(self, package: str = "damagekit"):
        self.package = package
        self.modules = {name: importlib.import_module(f"{package}.{name}")
                        for name in LAYERS}
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters: dict[str, int] = collections.defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self._wrappers = self._build_wrappers()

    def _public_functions(self):
        for layer, module in self.modules.items():
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    yield f"{layer}.{attr}", obj

    def _build_wrappers(self) -> dict[int, object]:
        wrappers = {}
        for qualname, fn in self._public_functions():
            wrappers[id(fn)] = (fn, self._wrap(qualname, fn))
        return wrappers

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        self.name_id[qualname] = name_id
        hook = HOOKS.get(qualname)
        signature = inspect.signature(fn) if hook else None
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_op, span_start, span_end = self.span_op, self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_op.append(self.op)
            span_start.append(0)
            span_end.append(0)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                span_start[idx] = start
                span_end[idx] = end
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counters, bound.arguments, result)
            return result

        return traced

    def install(self, op: int) -> None:
        """Swap every reference to a layer function for its traced wrapper."""
        self.op = op
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(self.package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self._stack.clear()
        self.op = -1

    @contextlib.contextmanager
    def traced_op(self, op: int):
        """Wrappers installed for exactly one operation."""
        self.install(op)
        try:
            yield
        finally:
            self.uninstall()

    # ------------------------------------------------------------ analysis

    def summarize(self, n_ops: int, op_scale=None) -> dict[str, float]:
        """Per-operation layer metrics over every recorded span. op_scale
        maps an operation id to the factor that turns its wall seconds into
        reference-host seconds (1.0 for an operation it does not name)."""
        op_scale = op_scale or {}
        n = len(self.span_start)
        names = self.names
        layer_of = [q.split(".", 1)[0] for q in names]
        timed_of = [TIMED.get(q) for q in names]
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        self_ns = list(duration)
        parent = self.span_parent
        name = self.span_name
        for i in range(n):
            p = parent[i]
            if p >= 0:
                self_ns[p] -= duration[i]

        totals: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        totals.update({m: 0.0 for m in TIMED.values()})
        totals.update({m: 0.0 for m in CALLS.values()})
        attributed: list[str | None] = [None] * n
        candidates = 0
        match_id = self.name_id.get("truth.match_points", -2)
        distance_id = self.name_id.get("geom.point_to_footprint_distance_m", -2)
        for i in range(n):
            nid = name[i]
            layer = layer_of[nid]
            seconds = self_ns[i] * 1e-9 * op_scale.get(self.span_op[i], 1.0)
            totals[f"{layer}.self_s"] += seconds
            p = parent[i]
            metric = timed_of[nid]
            if metric is None and p >= 0 and layer_of[name[p]] == layer:
                metric = attributed[p]
            attributed[i] = metric
            if metric is not None:
                totals[metric] += seconds
            calls = CALLS.get(names[nid])
            if calls is not None:
                totals[calls] += 1
            if nid == distance_id and p >= 0 and name[p] == match_id:
                candidates += 1

        totals.update({key: self.counters.get(key, 0) for key in COUNTERS})
        points = self.counters.get("truth.points", 0)
        matched = self.counters.get("truth.matched", 0)
        per_op = {key: value / n_ops for key, value in totals.items()}
        per_op["truth.candidates_per_point"] = candidates / points if points else 0.0
        per_op["truth.match_yield"] = matched / candidates if candidates else 0.0
        per_op["trace.spans"] = n / n_ops
        return per_op

    def check_layers(self, expected) -> None:
        """Raise TracerBlind unless every expected layer recorded a span."""
        seen = {self.names[nid].split(".", 1)[0] for nid in set(self.span_name)}
        missing = [layer for layer in expected if layer not in seen]
        if missing:
            raise TracerBlind(f"layers recorded no calls: {', '.join(missing)}")

    def write(self, path) -> None:
        """Write every span as gzipped JSON columns of integers (times in ns)."""
        doc = {
            "names": self.names,
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "op": self.span_op.tolist(),
                "start_ns": self.span_start.tolist(),
                "end_ns": self.span_end.tolist(),
            },
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(doc, handle, separators=(",", ":"))
