"""End-to-end tests for the command-line interface.

Most tests drive cli.main() in process so capsys can see the streams; one
subprocess test confirms that `python -m damagekit` starts the CLI as a
program and that pyproject.toml declares the `damagekit` console script.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from damagekit.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

RASTER_2X2 = (
    "ncols 2\nnrows 2\nxllcorner -0.001\nyllcorner -0.001\n"
    "cellsize 0.001\nnodata_value -1\n2 0\n1 1\n"
)
FOOTPRINT_B1 = (
    '{"type":"FeatureCollection","features":[{"type":"Feature","id":"b1",'
    '"geometry":{"type":"Polygon","coordinates":[[[-0.001,-0.001],'
    '[0.001,-0.001],[0.001,0.001],[-0.001,0.001],[-0.001,-0.001]]]},'
    '"properties":{}}]}\n'
)
TRUTH_HEADER = "point_id,lon,lat,category\n"
MATCH_HEADER = "point_id,footprint_id,distance_m\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_full_pipeline_happy_path(tmp_path, capsys):
    spec = write(tmp_path / "scene.json",
                 '{"seed": 5, "grid_cols": 8, "grid_rows": 8}')
    out = tmp_path / "scene"
    assert main(["synth", spec, str(out)]) == 0
    assert "64 footprints" in capsys.readouterr().err
    for name in ("footprints.geojson", "raster.asc", "truth.csv",
                 "oracle.csv"):
        assert (out / name).exists()

    assessed = tmp_path / "assessed.geojson"
    assert main(["assess", str(out / "footprints.geojson"),
                 str(out / "raster.asc"), "--out", str(assessed)]) == 0

    matched = tmp_path / "matched.csv"
    assert main(["match", str(out / "truth.csv"),
                 str(out / "footprints.geojson"),
                 "--out", str(matched)]) == 0
    assert "matched 64 of 64 points (0 unmatched)" in capsys.readouterr().err

    report = tmp_path / "report.json"
    curve = tmp_path / "curve.csv"
    assert main(["validate", str(assessed), str(matched),
                 str(out / "truth.csv"), "--report", str(report),
                 "--curve", str(curve)]) == 0
    doc = json.loads(report.read_text())
    assert doc["scheme"] == "major_plus"
    assert doc["n_samples"] == 64
    # A noiseless scene validates perfectly.
    assert doc["precision0"] == 1.0
    assert doc["recall0"] == 1.0
    assert doc["average_precision"] == 1.0

    svg = tmp_path / "curve.svg"
    assert main(["pr-plot", str(curve), "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg ")


def test_assess_writes_to_stdout_by_default(tmp_path, capsys):
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1)
    raster = write(tmp_path / "r.asc", RASTER_2X2)
    assert main(["assess", fps, raster]) == 0
    doc = json.loads(capsys.readouterr().out)
    props = doc["features"][0]["properties"]
    assert props["damage_pct"] == 25.0
    assert props["n_inside"] == 4
    assert props["n_damaged"] == 1


def test_match_respects_radius_flag(tmp_path, capsys):
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1)
    # ~167 m north of the footprint edge.
    truth = write(tmp_path / "t.csv", TRUTH_HEADER + "p1,0.0,0.0025,affected\n")
    out = tmp_path / "m.csv"
    assert main(["match", truth, fps, "--out", str(out)]) == 0
    assert "matched 0 of 1 points (1 unmatched)" in capsys.readouterr().err
    assert out.read_text().splitlines()[1] == "p1,,"
    assert main(["match", truth, fps, "--radius-m", "200",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].startswith("p1,b1,")


def assert_fails(argv, code, capsys, needle=None):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("damagekit: error: ")
    if needle is not None:
        assert needle in err


def test_bad_spec_json_exits_2(tmp_path, capsys):
    spec = write(tmp_path / "scene.json", "{nope")
    assert_fails(["synth", spec, str(tmp_path / "o")], 2, capsys, ":1:")


def test_unknown_spec_key_exits_2(tmp_path, capsys):
    spec = write(tmp_path / "scene.json", '{"sneed": 1}')
    assert_fails(["synth", spec, str(tmp_path / "o")], 2, capsys,
                 "unknown scene spec keys")


def test_invalid_spec_value_exits_2(tmp_path, capsys):
    spec = write(tmp_path / "scene.json", '{"grid_cols": -5}')
    assert_fails(["synth", spec, str(tmp_path / "o")], 2, capsys,
                 "bad scene spec")


@pytest.mark.parametrize("spec", ['{"grid_cols": 2.5}', '{"seed": "x"}',
                                  '{"grid_rows": true}'])
def test_non_integer_spec_field_exits_2(tmp_path, capsys, spec):
    path = write(tmp_path / "scene.json", spec)
    assert_fails(["synth", path, str(tmp_path / "o")], 2, capsys,
                 "must be an integer")


def test_missing_input_file_exits_2(tmp_path, capsys):
    assert_fails(["assess", str(tmp_path / "none.geojson"),
                  str(tmp_path / "none.asc")], 2, capsys)


def test_invalid_raster_code_exits_2(tmp_path, capsys):
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1)
    raster = write(tmp_path / "r.asc", RASTER_2X2.replace("2 0", "7 0"))
    assert_fails(["assess", fps, raster], 2, capsys)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key", ["xllcorner", "yllcorner"])
def test_non_finite_raster_corner_exits_2(tmp_path, capsys, key, value):
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1)
    raster = write(tmp_path / "r.asc",
                   RASTER_2X2.replace(f"{key} -0.001", f"{key} {value}"))
    assert_fails(["assess", fps, raster], 2, capsys, "r.asc:")


@pytest.mark.parametrize("nodata", ["4294967295", "9223372036854775808"])
def test_raster_nodata_outside_int32_exits_2(tmp_path, capsys, nodata):
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1)
    raster = write(tmp_path / "r.asc",
                   RASTER_2X2.replace("-1\n2 0", f"{nodata}\n{nodata} 0"))
    assert_fails(["assess", fps, raster], 2, capsys, "r.asc:6: nodata_value")


@pytest.mark.parametrize("ncols", ["100000", "1" * 400],
                         ids=["1e5x1e5", "400-digit-ncols"])
def test_raster_declaring_huge_size_exits_2(tmp_path, capsys, ncols):
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1)
    raster = write(tmp_path / "r.asc", RASTER_2X2.replace(
        "ncols 2\nnrows 2", f"ncols {ncols}\nnrows 100000"))
    assert_fails(["assess", fps, raster], 2, capsys, "r.asc:8: expected")


@pytest.mark.parametrize("command, edit", [
    ("assess", lambda doc: doc["features"][0].update(properties=[1])),
    ("validate", lambda doc: doc.update(features=5)),
    ("validate", lambda doc: doc.pop("features")),
], ids=["assess-properties-list", "validate-features-number",
        "validate-features-missing"])
def test_malformed_feature_collection_exits_2(tmp_path, capsys, command, edit):
    doc = json.loads(FOOTPRINT_B1)
    edit(doc)
    fps = write(tmp_path / "fp.geojson", json.dumps(doc))
    if command == "assess":
        argv = ["assess", fps, write(tmp_path / "r.asc", RASTER_2X2)]
    else:
        argv = ["validate", fps,
                write(tmp_path / "m.csv", MATCH_HEADER + "p1,b1,0.0\n"),
                write(tmp_path / "t.csv",
                      TRUTH_HEADER + "p1,0.0,0.0,destroyed\n")]
    assert_fails(argv, 2, capsys, "fp.geojson: ")


@pytest.mark.parametrize("command", ["assess", "match"])
def test_footprint_id_outside_the_charset_exits_2(tmp_path, capsys, command):
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1.replace('"b1"', '"a,b"'))
    if command == "assess":
        argv = ["assess", fps, write(tmp_path / "r.asc", RASTER_2X2)]
    else:
        argv = ["match", write(tmp_path / "t.csv",
                               TRUTH_HEADER + "p1,0.0,0.0,destroyed\n"), fps]
    assert_fails(argv, 2, capsys, "fp.geojson: id 'a,b'")


def test_point_id_outside_the_charset_exits_2(tmp_path, capsys):
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1)
    truth = write(tmp_path / "t.csv", TRUTH_HEADER + "p:1,0.0,0.0,destroyed\n")
    assert_fails(["match", truth, fps], 2, capsys, "t.csv:2: id 'p:1'")


def test_duplicate_footprint_id_exits_3(tmp_path, capsys):
    doc = json.loads(FOOTPRINT_B1)
    doc["features"].append(doc["features"][0])
    fps = write(tmp_path / "fp.geojson", json.dumps(doc))
    raster = write(tmp_path / "r.asc", RASTER_2X2)
    assert_fails(["assess", fps, raster], 3, capsys)


def test_duplicate_point_id_exits_3(tmp_path, capsys):
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1)
    truth = write(tmp_path / "t.csv", TRUTH_HEADER
                  + "p1,0.0,0.0,destroyed\np1,0.0,0.0,affected\n")
    assert_fails(["match", truth, fps], 3, capsys)


def test_unknown_category_exits_4(tmp_path, capsys):
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1)
    truth = write(tmp_path / "t.csv", TRUTH_HEADER + "p1,0.0,0.0,vaporized\n")
    assert_fails(["match", truth, fps], 4, capsys)


def test_missing_estimate_exits_5(tmp_path, capsys):
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1)
    raster = write(tmp_path / "r.asc", RASTER_2X2)
    assessed = tmp_path / "a.geojson"
    assert main(["assess", fps, raster, "--out", str(assessed)]) == 0
    matched = write(tmp_path / "m.csv", MATCH_HEADER + "p1,b2,0.0\n")
    truth = write(tmp_path / "t.csv", TRUTH_HEADER + "p1,0.0,0.0,destroyed\n")
    assert_fails(["validate", str(assessed), matched, truth], 5, capsys)


def test_no_positive_samples_exits_6(tmp_path, capsys):
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1)
    raster = write(tmp_path / "r.asc", RASTER_2X2)
    assessed = tmp_path / "a.geojson"
    assert main(["assess", fps, raster, "--out", str(assessed)]) == 0
    matched = write(tmp_path / "m.csv", MATCH_HEADER + "p1,b1,0.0\n")
    truth = write(tmp_path / "t.csv",
                  TRUTH_HEADER + "p1,0.0,0.0,minor_damage\n")
    assert_fails(["validate", str(assessed), matched, truth,
                  "--scheme", "destroyed_only"], 6, capsys)


def test_empty_sample_set_exits_6(tmp_path, capsys):
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1)
    raster = write(tmp_path / "r.asc", RASTER_2X2)
    assessed = tmp_path / "a.geojson"
    assert main(["assess", fps, raster, "--out", str(assessed)]) == 0
    matched = write(tmp_path / "m.csv", MATCH_HEADER + "p1,,\n")
    truth = write(tmp_path / "t.csv", TRUTH_HEADER + "p1,0.0,0.0,destroyed\n")
    assert_fails(["validate", str(assessed), matched, truth], 6, capsys)


def test_swath_outside_scene_exits_7(tmp_path, capsys):
    spec = write(tmp_path / "scene.json", json.dumps({
        "seed": 1, "grid_cols": 4, "grid_rows": 4,
        "swath_start": [10.0, 10.0], "swath_end": [11.0, 10.0],
    }))
    assert_fails(["synth", spec, str(tmp_path / "o")], 7, capsys)


def test_empty_curve_exits_2(tmp_path, capsys):
    curve = write(tmp_path / "c.csv", "theta,precision,recall\n")
    assert_fails(["pr-plot", curve], 2, capsys, "no data rows")


def test_console_script_entry_point(tmp_path, cli_env):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["damagekit"] == "damagekit.cli:main"

    spec = write(tmp_path / "scene.json",
                 '{"seed": 3, "grid_cols": 4, "grid_rows": 4}')
    proc = subprocess.run(
        [sys.executable, "-m", "damagekit", "synth", str(spec),
         str(tmp_path / "o")],
        capture_output=True, text=True, env=cli_env)
    assert proc.returncode == 0, proc.stderr
    assert "16 footprints" in proc.stderr
    assert (tmp_path / "o" / "raster.asc").exists()
