"""The benchmark's workloads: their inputs, operations and output checks.

A workload makes its inputs from the seed in ``make_inputs`` (set-up), lists
the CLI invocations of one operation in ``commands``, and checks one
operation's outputs in ``check``, returning a list of problems (empty when
the outputs are right). Byte identity between operations is checked by the
runner for every workload.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random

from damagekit import formats
from damagekit.geom import Footprint, GeoPoint, Ring, contains
from damagekit.truth import FemaCategory, GroundTruthPoint, PointMatch
from damagekit.zonal import DamageEstimate
from spans import LAYERS


class SceneWorkload:
    """The README round trip, synth -> assess -> match -> validate -> pr-plot."""

    layers = LAYERS  # layers a traced operation must reach
    check_footprints = 16  # footprints re-assessed by scalar scan per operation

    def __init__(self, name: str, spec: dict, seed: int):
        self.name = name
        self.seed = seed
        self.spec = dict(spec, seed=seed)
        self.items = spec["grid_cols"] * spec["grid_rows"]

    def make_inputs(self, inputs: str) -> None:
        with open(os.path.join(inputs, "scene.json"), "w", encoding="utf-8") as handle:
            json.dump(self.spec, handle, sort_keys=True)

    def commands(self, inputs: str, out: str) -> list[list[str]]:
        scene = os.path.join(out, "scene")
        fps = os.path.join(scene, "footprints.geojson")
        truth = os.path.join(scene, "truth.csv")
        assessed = os.path.join(out, "assessed.geojson")
        matched = os.path.join(out, "matched.csv")
        curve = os.path.join(out, "curve.csv")
        return [
            ["synth", os.path.join(inputs, "scene.json"), scene],
            ["assess", fps, os.path.join(scene, "raster.asc"), "--out", assessed],
            ["match", truth, fps, "--out", matched],
            ["validate", assessed, matched, truth, "--scheme", "major_plus",
             "--report", os.path.join(out, "report.json"), "--curve", curve],
            ["pr-plot", curve, "--out", os.path.join(out, "curve.svg")],
        ]

    def check(self, out: str, op: int) -> list[str]:
        """Re-assess a seeded subset of footprints by a scalar scan with
        geom.contains over every pixel centre in the footprint's bounds
        (contains() is False outside them, so this equals a full scan).
        Nothing parsed here outlives the check, so the process's peak RSS
        stays the program's."""
        scene = os.path.join(out, "scene")
        fps = _read_footprints(os.path.join(scene, "footprints.geojson"))
        assessed = _read_assessed(os.path.join(out, "assessed.geojson"))
        rng = random.Random(self.seed * 1_000_003 + op)
        ids = rng.sample(sorted(fps), min(self.check_footprints, len(fps)))
        grid = _AsciiRows(os.path.join(scene, "raster.asc"))
        windows = {fid: _window(fps[fid], grid) for fid in ids}
        grid.load({r for rows, _ in windows.values() for r in rows})
        problems = []
        for fid in ids:
            expected = _scalar_counts(fps[fid], grid, *windows[fid])
            got = assessed.get(fid)
            if got != (expected[0], expected[1], False):
                problems.append(f"{fid}: assessed {got}, scalar scan {expected}")
        return problems


class RescoreWorkload:
    """validate + pr-plot over three schemes on pre-written samples."""

    layers = ("cli", "formats", "truth", "metrics", "plot")
    schemes = ("major_plus", "destroyed_only", "minor_damage,major_damage,destroyed")

    def __init__(self, name: str, n_samples: int, seed: int):
        self.name = name
        self.seed = seed
        self.n_samples = n_samples
        self.items = n_samples * len(self.schemes)
        self.expected: dict[str, tuple[int, int, float]] = {}

    def make_inputs(self, inputs: str) -> None:
        rng = random.Random(self.seed)
        footprints, estimates, points, matches = [], [], [], []
        pcts, categories = [], []
        for k in range(self.n_samples):
            lon = -90.88 + (k % 64) * 0.0004
            lat = 32.90 + (k // 64) * 0.0004
            h = 0.00005
            corners = [GeoPoint(lon - h, lat - h), GeoPoint(lon + h, lat - h),
                       GeoPoint(lon + h, lat + h), GeoPoint(lon - h, lat + h)]
            fid, pid = f"b{k:06d}", f"p{k:06d}"
            footprints.append(Footprint(fid, Ring(tuple(corners + corners[:1]))))
            n_inside = 200 + int(rng.random() * 4800)
            n_damaged = int(rng.random() * (n_inside + 1))
            pct = 100.0 * n_damaged / n_inside
            estimates.append(DamageEstimate(fid, pct, n_inside, n_damaged))
            # Severity follows the estimate loosely; the first two samples pin
            # one destroyed and one undamaged point so every scheme has both.
            severity = 0.6 * pct / 100.0 + 0.4 * rng.random()
            category = FemaCategory(min(4, int(severity * 5)))
            if k < 2:
                category = (FemaCategory.DESTROYED, FemaCategory.NO_VISIBLE_DAMAGE)[k]
            points.append(GroundTruthPoint(pid, GeoPoint(lon, lat), category))
            matches.append(PointMatch(pid, fid, 0.0))
            pcts.append(pct)
            categories.append(category)
        files = {
            "assessed.geojson": formats.write_assessed_geojson(footprints, estimates),
            "matches.csv": formats.write_matches_csv([p.id for p in points], matches, []),
            "truth.csv": formats.write_truth_csv(points),
        }
        for name, text in files.items():
            formats.write_text(os.path.join(inputs, name), text)
        self.expected = {}
        for scheme in self.schemes:
            damaged = _scheme_categories(scheme)
            labels = [int(c in damaged) for c in categories]
            self.expected[scheme] = (len(labels), sum(labels),
                                     step_sum_ap(pcts, labels))

    def _stem(self, scheme: str) -> str:
        return scheme.replace(",", "-")

    def commands(self, inputs: str, out: str) -> list[list[str]]:
        cmds = []
        for scheme in self.schemes:
            stem = os.path.join(out, self._stem(scheme))
            cmds.append(["validate", os.path.join(inputs, "assessed.geojson"),
                         os.path.join(inputs, "matches.csv"),
                         os.path.join(inputs, "truth.csv"), "--scheme", scheme,
                         "--report", stem + ".json", "--curve", stem + ".csv"])
            cmds.append(["pr-plot", stem + ".csv", "--out", stem + ".svg"])
        return cmds

    def check(self, out: str, op: int) -> list[str]:
        """AP from the report must match an independent step sum to 1e-12."""
        problems = []
        for scheme in self.schemes:
            path = os.path.join(out, self._stem(scheme) + ".json")
            with open(path, encoding="utf-8") as handle:
                report = json.load(handle)
            n, n_pos, ap = self.expected[scheme]
            if (report["n_samples"], report["n_positive"]) != (n, n_pos):
                problems.append(f"{scheme}: counts {report['n_samples']}/"
                                f"{report['n_positive']}, expected {n}/{n_pos}")
            if not abs(report["average_precision"] - ap) <= 1e-12:
                problems.append(f"{scheme}: AP {report['average_precision']!r}, "
                                f"expected {ap!r}")
        return problems


def _scheme_categories(scheme: str) -> set[FemaCategory]:
    presets = {"major_plus": "major_damage,destroyed", "destroyed_only": "destroyed"}
    labels = presets.get(scheme, scheme).split(",")
    return {FemaCategory[label.upper()] for label in labels}


def step_sum_ap(pcts: list[float], labels: list[int]) -> float:
    """AP by sorting once: a sample is predicted damaged when its estimate
    exceeds the threshold, so each distinct estimate above 0 adds its whole
    tie group at one step; 0 is never predicted."""
    order = sorted(range(len(pcts)), key=lambda i: -pcts[i])
    n_pos = sum(labels)
    ap = recall_before = 0.0
    tp = fp = 0
    i = 0
    while i < len(order) and pcts[order[i]] > 0.0:
        value = pcts[order[i]]
        while i < len(order) and pcts[order[i]] == value:
            tp += labels[order[i]]
            fp += 1 - labels[order[i]]
            i += 1
        recall = tp / n_pos
        ap += (recall - recall_before) * (tp / (tp + fp))
        recall_before = recall
    return ap


def _read_footprints(path: str) -> dict[str, Footprint]:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    out = {}
    for feature in doc["features"]:
        rings = [Ring(tuple(GeoPoint(lon, lat) for lon, lat in ring))
                 for ring in feature["geometry"]["coordinates"]]
        out[feature["id"]] = Footprint(feature["id"], rings[0], tuple(rings[1:]))
    return out


def _read_assessed(path: str) -> dict[str, tuple[int, int, bool]]:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    return {f["id"]: (f["properties"]["n_inside"], f["properties"]["n_damaged"],
                      f["properties"]["supersampled"])
            for f in doc["features"]}


class _AsciiRows:
    """Esri ASCII grid header, plus the rows that ``load`` is asked for."""

    def __init__(self, path: str):
        self.path = path
        header = {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if not line[:1].isalpha():
                    break
                key, value = line.split()
                header[key.lower()] = value
        self.ncols = int(header["ncols"])
        self.nrows = int(header["nrows"])
        self.xll = float(header["xllcorner"])
        self.yll = float(header["yllcorner"])
        self.cellsize = float(header["cellsize"])
        self.nodata = int(header.get("nodata_value", -1))
        self.rows: dict[int, list[int]] = {}

    def load(self, wanted: set[int]) -> None:
        """Tokenise the wanted rows, streaming past the others."""
        with open(self.path, encoding="utf-8") as handle:
            body = itertools.dropwhile(lambda line: line[:1].isalpha(), handle)
            self.rows = {r: [int(t) for t in line.split()]
                         for r, line in enumerate(body) if r in wanted}


def _window(fp: Footprint, grid: _AsciiRows) -> tuple[range, range]:
    """Rows and columns of the pixels around fp's bounds, two cells wider."""
    b, cs = fp.bounds, grid.cellsize
    col_lo = max(math.floor((b.min_lon - grid.xll) / cs) - 2, 0)
    col_hi = min(math.floor((b.max_lon - grid.xll) / cs) + 2, grid.ncols - 1)
    row_lo = max(math.floor(grid.nrows - (b.max_lat - grid.yll) / cs) - 2, 0)
    row_hi = min(math.floor(grid.nrows - (b.min_lat - grid.yll) / cs) + 2,
                 grid.nrows - 1)
    return range(row_lo, row_hi + 1), range(col_lo, col_hi + 1)


def _scalar_counts(fp: Footprint, grid: _AsciiRows, rows: range,
                   cols: range) -> tuple[int, int]:
    """(usable pixels, damaged pixels) whose centres fall inside fp."""
    cs = grid.cellsize
    n_inside = n_damaged = 0
    for row in rows:
        lat = grid.yll + (grid.nrows - row - 0.5) * cs
        values = grid.rows[row]
        for col in cols:
            value = values[col]
            if value == grid.nodata:
                continue
            if contains(fp, GeoPoint(grid.xll + (col + 0.5) * cs, lat)):
                n_inside += 1
                n_damaged += value == 2
    return n_inside, n_damaged


def make(name: str, seed: int, size: str = "full"):
    """The named workload at full size, or a tiny one for smoke tests."""
    tiny = size == "tiny"
    if name == "scene-fine":
        cols = 4 if tiny else 30
        return SceneWorkload(name, {
            "grid_cols": cols, "grid_rows": cols, "cellsize_m": 0.5,
            "pixel_noise_rate": 0.05, "point_jitter_sigma_m": 4.0,
            "swath_width_m": 0.3 * cols * 30.0}, seed)
    if name == "survey-dense":
        cols = 6 if tiny else 80
        return SceneWorkload(name, {
            "grid_cols": cols, "grid_rows": cols, "spacing_m": 10.0,
            "cellsize_m": 2.0, "pixel_noise_rate": 0.05,
            "point_jitter_sigma_m": 6.0, "swath_width_m": 0.3 * cols * 20.0}, seed)
    if name == "rescore":
        return RescoreWorkload(name, 60 if tiny else 4000, seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("scene-fine", "survey-dense", "rescore")
