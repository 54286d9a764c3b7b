"""Acceptance gate: eight package-level checks, one test per criterion.

Each test prints a single `[criterion N] name: PASS|FAIL` line (visible
with `pytest -s tests/test_acceptance.py`) and then asserts. Granular
diagnostics live in the per-module test files; this file is the go/no-go
summary, with every tolerance pinned as a module constant.
"""

import json
import math
import subprocess
import sys
from dataclasses import replace
from time import perf_counter

import numpy as np

from _oracles import (bbox_prefiltered_match, brute_average_precision,
                      brute_force_match, build_raster, confusion,
                      full_scan_assess, octagon_footprint,
                      precision_recall, square_footprint)
from damagekit.geom import EARTH_RADIUS_M, GeoPoint
from damagekit.metrics import average_precision, pr_curve, validate
from damagekit.synth import SceneSpec, generate
from damagekit.truth import (FemaCategory, GroundTruthPoint, MatchedSample,
                             join_samples, match_points, parse_scheme)
from damagekit.zonal import assess_all

ZONAL_PAIRS = 200
ZONAL_BUDGET_S = 10.0

MATCH_SCENES = 50
MATCH_POINTS = 500
MATCH_FOOTPRINTS = 1000
MATCH_DISTANCE_TOL_M = 1e-9
MATCH_BUDGET_S = 30.0

AP_PINNED = 0.833333333333
AP_FIXTURE_TOL = 1e-12
AP_INVARIANCE_SETS = 100
AP_INVARIANCE_TOL = 1e-12

E2E_SEEDS = (101, 202, 303)
E2E_BUDGET_S = 5.0

DEGRADATION_SEEDS = 20
DEGRADATION_MIN_WINS = 14  # 70% of seeds

THROUGHPUT_BUDGET_S = 10.0


def report(number: int, name: str, ok: bool) -> None:
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


# ------------------------------------------------------------ criterion 1

def random_zonal_pair(seed):
    rng = np.random.default_rng(seed)
    nrows = int(rng.integers(4, 14))
    ncols = int(rng.integers(4, 14))
    cellsize = float(rng.choice([0.0004, 0.001, 0.0025]))
    xll = float(rng.uniform(-0.5, 0.5))
    yll = float(rng.uniform(-0.5, 0.5))
    cells = rng.integers(0, 3, size=(nrows, ncols))
    cells[rng.random(size=cells.shape) < 0.08] = -1
    raster = build_raster(cells, cellsize=cellsize, xll=xll, yll=yll)

    cx = xll + float(rng.uniform(-0.1, 1.1)) * ncols * cellsize
    cy = yll + float(rng.uniform(-0.1, 1.1)) * nrows * cellsize
    kind = seed % 4
    if kind == 0:
        fp = square_footprint("f", cx, cy,
                              float(rng.uniform(0.2, 3.0)) * cellsize)
    elif kind == 1:
        half = float(rng.uniform(1.0, 4.0)) * cellsize
        fp = square_footprint("f", cx, cy, half, hole_half=half * 0.4)
    elif kind == 2:
        fp = octagon_footprint("f", cx, cy,
                               float(rng.uniform(0.1, 3.0)) * cellsize)
    else:
        # Sliver smaller than a cell: supersample / no-coverage paths.
        fp = square_footprint("f", cx, cy,
                              float(rng.uniform(0.02, 0.2)) * cellsize)
    return raster, fp


def test_criterion_1_zonal_oracle_equivalence():
    start = perf_counter()
    mismatches = 0
    for seed in range(ZONAL_PAIRS):
        raster, fp = random_zonal_pair(seed)
        if assess_all(raster, [fp])[0] != full_scan_assess(raster, fp):
            mismatches += 1
    elapsed = perf_counter() - start
    report(1, "zonal oracle equivalence",
           mismatches == 0 and elapsed < ZONAL_BUDGET_S)


# ------------------------------------------------------------ criterion 2

def random_match_scene(seed):
    rng = np.random.default_rng(1000 + seed)
    lat0 = float(rng.uniform(-55.0, 55.0))
    lon0 = float(rng.uniform(-170.0, 170.0))
    ky = EARTH_RADIUS_M * math.pi / 180.0
    kx = math.cos(lat0 * math.pi / 180.0) * ky

    footprints = []
    k = 0
    for i in range(32):
        for j in range(32):
            if k == MATCH_FOOTPRINTS:
                break
            cx = j * 40.0 + float(rng.uniform(-6.0, 6.0))
            cy = i * 40.0 + float(rng.uniform(-6.0, 6.0))
            half = float(rng.uniform(4.0, 9.0))
            footprints.append(square_footprint(
                f"b{k:04d}", lon0 + cx / kx, lat0 + cy / ky, half / ky))
            k += 1

    extent = 32 * 40.0
    points = []
    for n in range(MATCH_POINTS):
        if rng.random() < 0.7:
            target = footprints[int(rng.integers(0, len(footprints)))]
            cx = (target.bounds.min_lon + target.bounds.max_lon) / 2.0
            cy = (target.bounds.min_lat + target.bounds.max_lat) / 2.0
            loc = GeoPoint(cx + float(rng.normal(0.0, 9.0)) / kx,
                           cy + float(rng.normal(0.0, 9.0)) / ky)
        else:
            loc = GeoPoint(
                lon0 + float(rng.uniform(-40.0, extent + 40.0)) / kx,
                lat0 + float(rng.uniform(-40.0, extent + 40.0)) / ky)
        points.append(GroundTruthPoint(f"p{n:04d}", loc,
                                       FemaCategory.AFFECTED))
    return points, footprints


def test_criterion_2_matching_oracle_equivalence():
    start = perf_counter()
    failures = 0
    for seed in range(MATCH_SCENES):
        points, footprints = random_match_scene(seed)
        got_matched, got_unmatched = match_points(points, footprints,
                                                  radius_m=20.0)
        got = [(m.point_id, m.footprint_id, m.distance_m)
               for m in got_matched]
        want, want_unmatched = bbox_prefiltered_match(points, footprints,
                                                      20.0)
        if seed == 0:
            # Anchor the prefiltered oracle against the plain scan of
            # every point-footprint pair once at full scale.
            exact = brute_force_match(points, footprints, 20.0)
            if (want, want_unmatched) != exact:
                failures += 1
        ok = (got_unmatched == want_unmatched and len(got) == len(want)
              and all(g[0] == w[0] and g[1] == w[1]
                      and abs(g[2] - w[2]) <= MATCH_DISTANCE_TOL_M
                      for g, w in zip(got, want)))
        if not ok:
            failures += 1
    elapsed = perf_counter() - start
    report(2, "matching oracle equivalence",
           failures == 0 and elapsed < MATCH_BUDGET_S)


# ------------------------------------------------------------ criterion 3

def make_samples(pcts, labels):
    return [MatchedSample(f"p{k}", f"b{k}", 0.0, label, float(pct))
            for k, (pct, label) in enumerate(zip(pcts, labels))]


def ap_of(pcts, labels):
    return average_precision(pr_curve(make_samples(pcts, labels)))


def test_criterion_3_metrics_hand_fixtures():
    c = confusion(make_samples([10, 0, 50], [1, 0, 1]), 0.0)
    ok = (c.tp, c.fp, c.fn) == (2, 0, 0)

    c = confusion(make_samples([10, 20, 0, 0], [1, 0, 1, 0]), 0.0)
    ok &= (c.tp, c.fp, c.fn) == (1, 1, 1)
    ok &= precision_recall(c) == (0.5, 0.5)

    curve = pr_curve(make_samples([100, 50, 0], [1, 1, 0]))
    ok &= [(p.theta, p.precision, p.recall) for p in curve.points] == \
        [(100.0, 1.0, 0.0), (50.0, 1.0, 0.5), (0.0, 1.0, 1.0)]
    ok &= average_precision(curve) == 1.0

    single = pr_curve(make_samples([30], [1]))
    ok &= [(p.theta, p.precision, p.recall) for p in single.points] == \
        [(100.0, 1.0, 0.0), (30.0, 1.0, 0.0), (0.0, 1.0, 1.0)]

    ok &= abs(ap_of([80, 60, 40, 20], [1, 0, 1, 0]) - AP_PINNED) \
        <= AP_FIXTURE_TOL

    # Anti-ranked: all positives score 0, and estimates of exactly 0 are
    # never predicted (strict >), so recall never rises.
    anti_pcts, anti_labels = [0.0, 0.0, 10.0, 20.0], [1, 1, 0, 0]
    ap_anti = ap_of(anti_pcts, anti_labels)
    ok &= ap_anti == brute_average_precision(anti_pcts, anti_labels)
    ok &= ap_anti == 0.0

    report(3, "metrics hand fixtures", bool(ok))


# ------------------------------------------------------------ criterion 4

def test_criterion_4_ap_ranking_invariance():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(AP_INVARIANCE_SETS):
        n = int(rng.integers(3, 40))
        pcts = rng.uniform(0.5, 99.5, size=n)
        labels = (rng.random(n) < 0.5).astype(int)
        labels[int(rng.integers(0, n))] = 1  # recall needs a positive
        base = ap_of(pcts.tolist(), labels.tolist())
        moved = ap_of((pcts / 2.0 + 1.0).tolist(), labels.tolist())
        worst = max(worst, abs(base - moved))
    report(4, "AP ranking invariance", worst <= AP_INVARIANCE_TOL)


# ------------------------------------------------------------ criterion 5

def pipeline_reports(scene, scheme_texts):
    estimates = assess_all(scene.raster, list(scene.footprints))
    matched, _ = match_points(list(scene.truth), list(scene.footprints),
                              radius_m=20.0)
    out = {}
    for text in scheme_texts:
        scheme = parse_scheme(text)
        samples = join_samples(matched, estimates, scene.truth, scheme)
        out[text] = validate(samples, scheme.id)
    return out


def test_criterion_5_noiseless_end_to_end_oracle():
    start = perf_counter()
    ok = True
    for seed in E2E_SEEDS:
        scene = generate(SceneSpec(seed=seed))
        rep = pipeline_reports(scene, ["major_plus"])["major_plus"]
        ok &= (rep.n_samples == 900 and rep.precision0 == 1.0
               and rep.recall0 == 1.0 and rep.average_precision == 1.0)
    elapsed = perf_counter() - start
    report(5, "noiseless end-to-end oracle",
           bool(ok) and elapsed < E2E_BUDGET_S)


# ------------------------------------------------------------ criterion 6

def test_criterion_6_degradation_realism():
    major_aps = []
    wins = 0
    for seed in range(1, DEGRADATION_SEEDS + 1):
        spec = replace(SceneSpec(seed=seed), pixel_noise_rate=0.1,
                       point_jitter_sigma_m=8.0)
        reports = pipeline_reports(generate(spec),
                                   ["major_plus", "destroyed_only"])
        major = reports["major_plus"].average_precision
        destroyed = reports["destroyed_only"].average_precision
        major_aps.append(major)
        if destroyed >= major:
            wins += 1
    mean_ap = sum(major_aps) / len(major_aps)
    report(6, "degradation realism",
           0.5 < mean_ap < 1.0 and wins >= DEGRADATION_MIN_WINS)


# ------------------------------------------------------------ criterion 7

def run_cli(env, *argv):
    proc = subprocess.run([sys.executable, "-m", "damagekit", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_criterion_7_pipeline_determinism(tmp_path, cli_env):
    spec_path = tmp_path / "scene.json"
    spec_path.write_text(json.dumps({
        "seed": 77, "pixel_noise_rate": 0.1,
        "point_jitter_sigma_m": 8.0, "point_drop_rate": 0.1,
    }), encoding="utf-8")

    # Different fixed hash seeds make any dependence on set or dict-of-str
    # iteration order fail every time rather than now and then.
    def run(tag, hash_seed):
        d = tmp_path / tag
        env = {**cli_env, "PYTHONHASHSEED": str(hash_seed)}
        run_cli(env, "synth", str(spec_path), str(d))
        run_cli(env, "assess", str(d / "footprints.geojson"),
                str(d / "raster.asc"), "--out", str(d / "assessed.geojson"))
        run_cli(env, "match", str(d / "truth.csv"),
                str(d / "footprints.geojson"), "--out", str(d / "matched.csv"))
        run_cli(env, "validate", str(d / "assessed.geojson"),
                str(d / "matched.csv"), str(d / "truth.csv"),
                "--report", str(d / "report.json"),
                "--curve", str(d / "curve.csv"))
        return d

    a = run("one", 1)
    b = run("two", 2)
    ok = ((a / "raster.asc").read_bytes() == (b / "raster.asc").read_bytes()
          and (a / "report.json").read_bytes()
          == (b / "report.json").read_bytes())
    report(7, "pipeline determinism", ok)


# ------------------------------------------------------------ criterion 8

def test_criterion_8_throughput_sanity():
    rng = np.random.default_rng(0)
    cells = rng.integers(0, 3, size=(4000, 4000), dtype=np.int32)
    raster = build_raster(cells, cellsize=1e-5, xll=0.0, yll=0.0)
    pitch = 40e-5
    half = 4.5e-5
    footprints = [square_footprint(f"b{i * 100 + j:05d}",
                                   (j + 0.5) * pitch, (i + 0.5) * pitch,
                                   half)
                  for i in range(100) for j in range(100)]

    start = perf_counter()
    estimates = assess_all(raster, footprints)
    elapsed = perf_counter() - start

    ok = (len(estimates) == 10_000
          and all(not e.no_coverage and not e.supersampled
                  and e.n_inside >= 64 for e in estimates)
          and elapsed < THROUGHPUT_BUDGET_S)
    report(8, "throughput sanity", ok)
