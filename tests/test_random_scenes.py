"""Random small scenes through the whole command chain: synth, assess, match,
validate and pr-plot run through cli.main in process, each reading the files
the one before wrote, and each output equals the brute-force references of
_oracles on the same files.

Scenes are 1-6 buildings a side, so the per-pixel reference assessment of
every footprint stays fast; cell size, noise, jitter, drops and the swath vary.
"""

import json
import tempfile
from pathlib import Path
from xml.etree import ElementTree

from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import (assessed_properties, brute_average_precision, brute_force_match,
                      full_scan_assess, join_samples_by_row, parse_curve_csv_by_row,
                      parse_footprints_one_by_one, parse_matches_csv_by_row,
                      parse_oracle_csv_by_row, parse_truth_csv_by_row, polyline_by_point,
                      scene_survey_one_by_one)
from damagekit import cli
from damagekit.cli import main
from damagekit.truth import FemaCategory, parse_scheme

ORIGIN = (-90.88, 32.90)  # SceneSpec's default origin
SVG = "{http://www.w3.org/2000/svg}"


@st.composite
def scene_specs(draw):
    spec = {
        "seed": draw(st.integers(0, 2**64 - 1)),
        "grid_cols": draw(st.integers(1, 6)),
        "grid_rows": draw(st.integers(1, 6)),
        "cellsize_m": draw(st.sampled_from([2.0, 3.0, 5.0, 8.0, 12.0])),
        "pixel_noise_rate": draw(st.sampled_from([0.0, 0.02, 0.25, 1.0])),
        "point_jitter_sigma_m": draw(st.sampled_from([0.0, 3.0, 25.0])),
        "point_drop_rate": draw(st.sampled_from([0.0, 0.3, 1.0])),
    }
    if draw(st.integers(0, 2)) == 0:
        # Both swath ends, on a 1e-4 degree lattice around the buildings
        # (up to about 0.002 degrees a side): some swaths miss every building.
        for end in ("swath_start", "swath_end"):
            spec[end] = [ORIGIN[0] + draw(st.integers(-10, 30)) * 1e-4,
                         ORIGIN[1] + draw(st.integers(-10, 30)) * 1e-4]
        spec["swath_width_m"] = draw(st.sampled_from([5.0, 24.0, 60.0]))
    return spec


@settings(max_examples=100)
@given(spec=scene_specs(), radius=st.sampled_from(["20", "4", "45.5"]),
       scheme=st.sampled_from(["major_plus", "destroyed_only"]))
def test_random_scenes_run_the_chain_as_the_references_do(spec, radius, scheme):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        path = d / "scene.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        s = d / "scene"

        def read(name):
            return (d / name).read_text(encoding="utf-8")

        code = main(["synth", str(path), str(s)])
        scene_spec = cli._load_scene_spec(str(path))
        if code == 7:  # the swath misses every building
            _, oracle = scene_survey_one_by_one(scene_spec, 0)
            assert set(oracle.values()) == {FemaCategory.NO_VISIBLE_DAMAGE}
            return
        assert code == 0
        raster = _oracles.parse_ascii_grid(read("scene/raster.asc"))
        truth, oracle = scene_survey_one_by_one(scene_spec, raster.ncols * raster.nrows)
        assert parse_truth_csv_by_row(read("scene/truth.csv")) == truth
        assert parse_oracle_csv_by_row(read("scene/oracle.csv")) == oracle
        footprints, _ = parse_footprints_one_by_one(read("scene/footprints.geojson"))

        assert main(["assess", str(s / "footprints.geojson"), str(s / "raster.asc"),
                     "--out", str(d / "assessed.geojson")]) == 0
        estimates = [full_scan_assess(raster, fp) for fp in footprints]
        assert parse_footprints_one_by_one(read("assessed.geojson")) == (
            footprints, assessed_properties(estimates))

        assert main(["match", str(s / "truth.csv"), str(s / "footprints.geojson"),
                     "--radius-m", radius, "--out", str(d / "matched.csv")]) == 0
        matched, unmatched = parse_matches_csv_by_row(read("matched.csv"))
        assert (matched, unmatched) == brute_force_match(truth, footprints, float(radius))

        code = main(["validate", str(d / "assessed.geojson"), str(d / "matched.csv"),
                     str(s / "truth.csv"), "--scheme", scheme,
                     "--report", str(d / "report.json"), "--curve", str(d / "curve.csv")])
        samples = join_samples_by_row(matched, estimates, truth, parse_scheme(scheme))
        labels = [sample.label for sample in samples]
        if 1 not in labels:  # no positive sample, or none at all
            assert code == 6
            return
        assert code == 0
        curve = _oracles.pr_curve(samples)
        assert json.loads(read("report.json")) == {
            "n_samples": len(samples), "n_positive": sum(labels), "scheme": scheme,
            "precision0": curve[-1].precision, "recall0": curve[-1].recall,
            "average_precision": brute_average_precision(
                [sample.damage_pct for sample in samples], labels)}
        assert parse_curve_csv_by_row(read("curve.csv")) == curve

        assert main(["pr-plot", str(d / "curve.csv"), "--out", str(d / "curve.svg")]) == 0
        polyline = ElementTree.fromstring(read("curve.svg")).find(f"{SVG}polyline")
        assert polyline.get("points") == polyline_by_point(curve)
