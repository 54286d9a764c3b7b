"""End-to-end tests for the command-line interface.

Most tests drive cli.main() in process so capsys can see the streams; one
subprocess test confirms that `python -m damagekit` starts the CLI as a
program and that pyproject.toml declares the `damagekit` console script.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import damagekit.metrics
from damagekit import cli, errors, formats, geom, plot, truth, zonal
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


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
@pytest.mark.parametrize("raster", [RASTER_2X2, RASTER_2X2.replace("1 1", "1 x")],
                         ids=["good", "bad"])
def test_assess_reads_a_raster_from_a_pipe_as_from_a_file(tmp_path, cli_env, raster):
    """A pipe has no size to read it by: it is read whole, as before."""
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1)
    path = write(tmp_path / "r.asc", raster)

    def assess(raster_arg, stdin):
        proc = subprocess.run([sys.executable, "-m", "damagekit", "assess", fps, raster_arg],
                              input=stdin, capture_output=True, text=True, env=cli_env,
                              timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    from_file = assess(path, "")
    assert assess("/dev/stdin", raster) == (
        from_file[0], from_file[1], from_file[2].replace(path, "/dev/stdin"))
    assert from_file[0] == (0 if raster == RASTER_2X2 else 2)


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


@pytest.mark.parametrize("text", ["[1, 2]", "7", "null", '"scene"'])
def test_spec_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    spec = write(tmp_path / "scene.json", text)
    assert_fails(["synth", spec, str(tmp_path / "o")], 2, capsys,
                 f"{spec}: scene spec must be a JSON object")


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


@pytest.mark.parametrize("field, value", [
    ("point_jitter_sigma_m", "NaN"), ("cellsize_m", "NaN"),
    ("swath_width_m", "Infinity"), ("building_size_m", "true")])
def test_non_finite_spec_float_exits_2(tmp_path, capsys, field, value):
    path = write(tmp_path / "scene.json", f'{{"{field}": {value}}}')
    assert_fails(["synth", path, str(tmp_path / "o")], 2, capsys,
                 f"bad scene spec: {field} must be a ")


@pytest.mark.parametrize("key, value", [
    ("origin", ["-90.88", True]), ("origin", [-90.88, True]), ("origin", [-90.88]),
    ("swath_start", [-90.88, 32.9, 0.0]), ("swath_end", "-90.88,32.9"),
    ("swath_end", {"lon": -90.88, "lat": 32.9}), ("origin", [None, 32.9])])
def test_spec_coordinates_must_be_two_json_numbers(tmp_path, capsys, key, value):
    path = write(tmp_path / "scene.json",
                 json.dumps({"grid_cols": 4, "grid_rows": 4, key: value}))
    assert_fails(["synth", path, str(tmp_path / "o")], 2, capsys,
                 f"scene.json: bad scene spec: {key} must be a list of two numbers")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value, needle", [
    ("[1e400, 32.9]", "origin: longitude out of range: inf"),
    pytest.param("[-90.88, " + "9" * 400 + "]", "origin: int too large to convert to float",
                 id="400-digit-latitude"),
    ("[-90.88, 91]", "origin: latitude out of range: 91.0")])
def test_spec_coordinates_out_of_range_name_their_key(tmp_path, capsys, value, needle):
    path = write(tmp_path / "scene.json", f'{{"origin": {value}}}')
    assert_fails(["synth", path, str(tmp_path / "o")], 2, capsys,
                 f"bad scene spec: {needle}")


@pytest.mark.parametrize("end", ["swath_start", "swath_end"])
def test_spec_with_one_swath_end_exits_2(tmp_path, capsys, end):
    path = write(tmp_path / "scene.json", json.dumps({end: [10, 10]}))
    assert_fails(["synth", path, str(tmp_path / "o")], 2, capsys,
                 "scene.json: bad scene spec: swath_start and swath_end must be given together")
    assert not (tmp_path / "o").exists()


def test_null_swath_ends_mean_the_default_swath(tmp_path):
    """As a null swath_width_m does."""
    spec = {"grid_cols": 4, "grid_rows": 3, "pixel_noise_rate": 0.05}
    for name, doc in [("default", spec), ("null", dict(spec, swath_start=None, swath_end=None))]:
        assert main(["synth", write(tmp_path / f"{name}.json", json.dumps(doc)),
                     str(tmp_path / name)]) == 0
    for name in ("footprints.geojson", "raster.asc", "truth.csv", "oracle.csv"):
        assert (tmp_path / "null" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()


@pytest.mark.parametrize("end", ["swath_start", "swath_end"])
def test_spec_with_one_null_swath_end_exits_2(tmp_path, capsys, end):
    path = write(tmp_path / "scene.json", json.dumps({
        "swath_start": [-90.88, 32.9], "swath_end": [-90.87, 32.9], end: None}))
    assert_fails(["synth", path, str(tmp_path / "o")], 2, capsys,
                 "scene.json: bad scene spec: swath_start and swath_end must be given together")
    assert not (tmp_path / "o").exists()


def test_spec_coordinates_accept_integers(tmp_path, capsys):
    path = write(tmp_path / "scene.json",
                 '{"grid_cols": 3, "grid_rows": 3, "origin": [-90, 33]}')
    assert main(["synth", path, str(tmp_path / "o")]) == 0
    assert "9 truth points" in capsys.readouterr().err


@pytest.mark.parametrize("cellsize, needle", [
    ("4e-7", "cellsize_m 4e-07 gives a 122683068x108853976 raster, too large to allocate"),
    ("1e-12", "cellsize_m 1e-12 gives raster ncols 49073225336696.0, not in (0, 2**31)"),
    ("1e-300", "cellsize_m 1e-300 gives raster ncols "),
    ("5e-324", "cellsize_m 5e-324 gives raster cellsize 0.0, not positive and finite")])
def test_tiny_cellsize_exits_2(tmp_path, capsys, monkeypatch, cellsize, needle):
    """generate's own frame rules, which stay behind the spec's cell cap:
    the cap is lifted to reach them."""
    monkeypatch.setattr("damagekit.synth._MAX_CELLS", float("inf"))
    path = write(tmp_path / "scene.json",
                 f'{{"grid_cols": 2, "grid_rows": 2, "cellsize_m": {cellsize}}}')
    assert_fails(["synth", path, str(tmp_path / "o")], 2, capsys, needle)
    assert list((tmp_path / "o").iterdir()) == []


def test_a_frame_rule_is_reached_under_the_default_caps(tmp_path, capsys):
    """A subnormal building and cell size pass the spec's caps, and only
    generate's frame rule stops the raster cellsize that rounds to 0.0."""
    path = write(tmp_path / "scene.json", json.dumps({
        "grid_cols": 1, "grid_rows": 1, "origin": [0, 0], "building_size_m": 1e-316,
        "spacing_m": 1e-316, "cellsize_m": 1e-319, "swath_start": [0, 0],
        "swath_end": [1, 0], "swath_width_m": 1.0}))
    assert_fails(["synth", path, str(tmp_path / "o")], 2, capsys,
                 "cellsize_m 1e-319 gives raster cellsize 0.0, not positive and finite")
    assert list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize("spec, needle", [
    ('"grid_cols": 2, "grid_rows": 2, "cellsize_m": 4e-7',
     "cellsize_m 4e-07 gives a raster of up to 2.68e+16 cells on this grid, "
     "above the cap of 67,108,864"),
    ('"grid_cols": 2, "grid_rows": 2, "cellsize_m": 5e-324',
     "cellsize_m 5e-324 gives a raster of up to inf cells"),
    ('"grid_cols": 1000, "grid_rows": 1000, "cellsize_m": 100',
     "grid_cols x grid_rows gives 1,000,000 buildings, above the cap of 262,144")])
def test_scene_over_the_size_caps_exits_2_before_generating(tmp_path, capsys, monkeypatch,
                                                            spec, needle):
    def generate(spec):
        raise AssertionError("the spec must be refused before generate")

    monkeypatch.setattr("damagekit.cli.generate", generate)
    path = write(tmp_path / "scene.json", f"{{{spec}}}")
    assert_fails(["synth", path, str(tmp_path / "o")], 2, capsys,
                 f"scene.json: bad scene spec: {needle}")
    assert not (tmp_path / "o").exists()


def test_point_jittered_off_the_globe_exits_2(tmp_path, capsys):
    path = write(tmp_path / "scene.json",
                 '{"grid_cols": 2, "grid_rows": 2, "point_jitter_sigma_m": 1e9}')
    assert_fails(["synth", path, str(tmp_path / "o")], 2, capsys,
                 "point_jitter_sigma_m 1000000000.0 puts point p000000 at (lon, lat) "
                 "(2844.73393766613, ")
    assert list((tmp_path / "o").iterdir()) == []


def test_missing_input_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "none.geojson"
    assert main(["assess", str(missing), str(tmp_path / "none.asc")]) == 2
    assert capsys.readouterr().err == (
        f"damagekit: error: {missing}: No such file or directory\n")


def test_output_in_a_missing_directory_exits_2(tmp_path, capsys):
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1)
    raster = write(tmp_path / "r.asc", RASTER_2X2)
    out = tmp_path / "missing-dir" / "a.geojson"
    assert_fails(["assess", fps, raster, "--out", str(out)], 2, capsys,
                 f"{out}: No such file or directory")


def test_synth_into_an_existing_file_exits_2(tmp_path, capsys):
    spec = write(tmp_path / "scene.json",
                 '{"seed": 5, "grid_cols": 4, "grid_rows": 4}')
    assert_fails(["synth", spec, spec], 2, capsys,
                 f"{spec}: exists and is not a directory")


def test_synth_under_a_regular_file_exits_2(tmp_path, capsys):
    spec = write(tmp_path / "scene.json", '{"seed": 5, "grid_cols": 4, "grid_rows": 4}')
    out = tmp_path / "scene.json" / "o"  # makedirs: NotADirectoryError, not FileExistsError
    assert_fails(["synth", spec, str(out)], 2, capsys, f"{out}: Not a directory")


def test_synth_checks_the_output_directory_before_generating(
        tmp_path, capsys, monkeypatch):
    def generate(spec):
        raise AssertionError("generate ran before the output check")

    monkeypatch.setattr("damagekit.cli.generate", generate)
    spec = write(tmp_path / "scene.json", '{"seed": 5}')
    assert_fails(["synth", spec, spec], 2, capsys,
                 f"{spec}: exists and is not a directory")


def test_coordinate_too_large_for_a_float_exits_2(tmp_path, capsys):
    huge = "1" + "0" * 400  # a JSON integer that float() cannot hold
    fps = write(tmp_path / "fp.geojson",
                FOOTPRINT_B1.replace("[0.001,-0.001]", f"[{huge},0]"))
    truth = write(tmp_path / "t.csv", TRUTH_HEADER + "p1,0.0,0.0,affected\n")
    assert_fails(["match", truth, fps], 2, capsys,
                 "feature 'b1': int too large to convert to float")


@pytest.mark.parametrize("coordinate", ['"0.001"', "true"])
def test_coordinate_that_is_not_a_number_exits_2(tmp_path, capsys, coordinate):
    fps = write(tmp_path / "fp.geojson",
                FOOTPRINT_B1.replace("[0.001,-0.001]", f"[{coordinate},-0.001]"))
    raster = write(tmp_path / "r.asc", RASTER_2X2)
    assert_fails(["assess", fps, raster], 2, capsys,
                 f"feature 'b1': coordinate {json.loads(coordinate)!r} is not a number")


def test_match_measures_an_underflowing_edge_to_its_first_end(tmp_path, capsys):
    # The edge (1e-200, 0)-(0, 0) projects to a segment whose squared
    # length underflows to 0.
    ring = [[0, 0], [0, 1e-4], [1e-4, 1e-4], [1e-4, 0], [1e-200, 0], [0, 0]]
    fps = write(tmp_path / "fp.geojson", json.dumps({
        "type": "FeatureCollection", "features": [{
            "type": "Feature", "id": "b1", "properties": {},
            "geometry": {"type": "Polygon", "coordinates": [ring]}}]}))
    truth = write(tmp_path / "t.csv", TRUTH_HEADER + "p1,-1e-05,-1e-05,affected\n")
    out = tmp_path / "m.csv"
    assert main(["match", truth, fps, "--out", str(out)]) == 0
    pid, fid, distance = out.read_text().splitlines()[1].split(",")
    assert (pid, fid) == ("p1", "b1")
    # sqrt(2) * 1e-5 degrees at the reference latitude, about 1.57 m.
    assert float(distance) == pytest.approx(1.5725, abs=1e-3)


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


@pytest.mark.parametrize("ncols, nrows, needle", [
    ("100000", "100000", "r.asc:8: expected"),
    ("1" * 400, "100000", "r.asc:1: ncols must be in (0, 2**31)"),
    ("1" * 3000, "1" * 3000, "r.asc:1: ncols must be in (0, 2**31)"),
], ids=["1e5x1e5", "400-digit-ncols", "3000-digit-ncols-nrows"])
def test_raster_declaring_huge_size_exits_2(tmp_path, capsys, ncols, nrows,
                                            needle):
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1)
    raster = write(tmp_path / "r.asc", RASTER_2X2.replace(
        "ncols 2\nnrows 2", f"ncols {ncols}\nnrows {nrows}"))
    assert_fails(["assess", fps, raster], 2, capsys, needle)


@pytest.mark.parametrize("command", ["assess", "match"])
def test_non_utf8_input_names_file_and_line(tmp_path, capsys, command):
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1)
    if command == "assess":
        bad = tmp_path / "r.asc"
        bad.write_bytes(RASTER_2X2.replace("1 1", "1 \xff").encode("latin-1"))
        argv, needle = ["assess", fps, str(bad)], "r.asc:8: byte 0xff"
    else:
        bad = tmp_path / "t.csv"
        bad.write_bytes(f"{TRUTH_HEADER}p1,0,0,destroyed\r\np\xff,0,0,"
                        "destroyed\n".encode("latin-1"))
        argv, needle = ["match", str(bad), fps], "t.csv:3: byte 0xff"
    assert_fails(argv, 2, capsys, needle)


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


@pytest.mark.parametrize("command", ["assess", "match", "validate"])
@pytest.mark.parametrize("geometry", ["[1]", '"Polygon"', "7", "true"])
def test_geometry_that_is_not_an_object_exits_2(tmp_path, capsys, command, geometry):
    doc = FOOTPRINT_B1.replace('"b1"', '"a"')
    fps = write(tmp_path / "bad.geojson", doc[:doc.index('{"type":"Polygon"')] + geometry
                + doc[doc.index(',"properties"'):])
    truth = write(tmp_path / "t.csv", TRUTH_HEADER + "p1,0.0,0.0,destroyed\n")
    argv = {"assess": ["assess", fps, write(tmp_path / "r.asc", RASTER_2X2)],
            "match": ["match", truth, fps],
            "validate": ["validate", fps, write(tmp_path / "m.csv", MATCH_HEADER + "p1,a,0.0\n"),
                         truth]}[command]
    assert_fails(argv, 2, capsys, "bad.geojson: feature 'a' geometry must be a Polygon")


@pytest.mark.parametrize("command", ["assess", "match"])
@pytest.mark.parametrize("fid, needle", [
    ('"a,b"', "fp.geojson: id 'a,b'"),
    ("true", "fp.geojson: feature 0 id True is not a string or integer"),
    ("NaN", "fp.geojson: feature 0 id nan is not a string or integer"),
], ids=["charset", "boolean", "nan"])
def test_footprint_id_outside_the_charset_exits_2(tmp_path, capsys, command, fid, needle):
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1.replace('"b1"', fid))
    if command == "assess":
        argv = ["assess", fps, write(tmp_path / "r.asc", RASTER_2X2)]
    else:
        argv = ["match", write(tmp_path / "t.csv",
                               TRUTH_HEADER + "p1,0.0,0.0,destroyed\n"), fps]
    assert_fails(argv, 2, capsys, needle)


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


def validate_inputs(tmp_path, matches="p1,b1,0.0\n",
                    truth="p1,0.0,0.0,destroyed\n"):
    """validate's three input paths: an assessment of FOOTPRINT_B1, and the
    matches and truth rows."""
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1)
    raster = write(tmp_path / "r.asc", RASTER_2X2)
    assessed = tmp_path / "a.geojson"
    assert main(["assess", fps, raster, "--out", str(assessed)]) == 0
    return [str(assessed), write(tmp_path / "m.csv", MATCH_HEADER + matches),
            write(tmp_path / "t.csv", TRUTH_HEADER + truth)]


def test_validate_duplicate_assessed_footprint_exits_3(tmp_path, capsys):
    inputs = validate_inputs(tmp_path)
    doc = json.loads(Path(inputs[0]).read_text())
    doc["features"].append(doc["features"][0])
    write(Path(inputs[0]), json.dumps(doc))
    assert_fails(["validate", *inputs], 3, capsys,
                 "duplicate footprint id 'b1'")


def test_validate_duplicate_truth_point_exits_3(tmp_path, capsys):
    inputs = validate_inputs(tmp_path, matches="p1,b1,0.0\np2,,\n",
                             truth="p1,0.0,0.0,destroyed\np2,0.0,0.0,affected\n"
                                   "p2,0.0,0.0,destroyed\n")
    assert_fails(["validate", *inputs], 3, capsys, "duplicate point id 'p2'")


def test_validate_duplicate_matched_point_exits_3(tmp_path, capsys):
    inputs = validate_inputs(tmp_path, matches="p1,b1,0.0\np1,b1,0.0\n")
    assert_fails(["validate", *inputs], 3, capsys,
                 "duplicate matched point id 'p1'")


def test_validate_matched_point_missing_from_the_points_exits_2(tmp_path, capsys):
    inputs = validate_inputs(tmp_path, matches="p1,b1,0.0\np9,b1,0.0\n")
    assert_fails(["validate", *inputs], 2, capsys,
                 "matched point 'p9' not in point list")


BAD_COUNT = ('"n_inside":4,', '"n_inside":-4,')
DUPLICATE = ('"features":[', '"features":[{"type":"Feature","id":"b1","geometry":'
             '{"type":"Polygon","coordinates":[[[0,0],[1,0],[1,1],[0,0]]]},"properties":'
             '{"n_inside":1,"n_damaged":0,"supersampled":false,"no_coverage":false}},')


@pytest.mark.parametrize("assessed, matches, truth, code, message", [
    (DUPLICATE, "p1,b1,x\n", "p1,0.0,0.0,destroyed\n", 2,
     "{m}:2: bad distance 'x', not a finite number >= 0"),
    (DUPLICATE, "p1,b1,0.0\n", "p1,0.0,0.0,destroyed\np:2,0.0,0.0,affected\n", 2,
     "{t}:3: id 'p:2' is not in [A-Za-z0-9_-]+"),
    (BAD_COUNT, "p1,b1,x\n", "p1,0.0,0.0,vaporized\n", 2,
     "{a}: feature 'b1' lacks assessment properties (integer counts "
     "0 <= n_damaged <= n_inside <= 2**53, boolean flags)"),
    (None, "p1,b1,-1\n", "p1,0.0,0.0,vaporized\n", 2,
     "{m}:2: bad distance '-1', not a finite number >= 0"),
    (None, "p1,b1,0.0\np1,b9,0.0\n", "p1,0.0,0.0,vaporized\n", 4,
     "{t}:2: unknown damage category 'vaporized'"),
    (DUPLICATE, "p1,b1,0.0\np1,b1,0.0\n", "p1,0.0,0.0,affected\np1,0.0,0.0,destroyed\n", 3,
     "duplicate footprint id 'b1'"),
    (None, "p1,b9,0.0\np1,b1,0.0\n", "p1,0.0,0.0,affected\np1,0.0,0.0,destroyed\n", 3,
     "duplicate point id 'p1'"),
    (None, "p9,b9,0.0\np9,b1,0.0\n", "p1,0.0,0.0,destroyed\n", 3,
     "duplicate matched point id 'p9'"),
    (None, "p9,b1,0.0\np1,b9,0.0\n", "p1,0.0,0.0,destroyed\n", 2,
     "matched point 'p9' not in point list"),
    (None, "p9,b9,0.0\n", "p1,0.0,0.0,destroyed\n", 5,
     "no damage estimate for matched footprint 'b9'"),
], ids=["duplicate-estimate+bad-match", "duplicate-estimate+bad-truth",
        "bad-count+bad-match+bad-category", "bad-match+bad-category",
        "bad-category+duplicate-match", "duplicate-estimate+point+match",
        "duplicate-point+match+missing-estimate", "duplicate-match+missing-both",
        "missing-point-then-estimate", "missing-both-in-one-row"])
def test_validate_reports_the_first_of_several_faults(tmp_path, capsys, assessed,
                                                      matches, truth, code, message):
    # The files are read in argument order, each whole, before the join's
    # duplicate checks (estimates, points, matches) and its missing-id pass.
    inputs = validate_inputs(tmp_path, matches=matches, truth=truth)
    if assessed is not None:
        text = Path(inputs[0]).read_text()
        assert assessed[0] in text
        write(Path(inputs[0]), text.replace(*assessed, 1))
    assert main(["validate", *inputs]) == code
    a, m, t = inputs
    assert capsys.readouterr().err == f"damagekit: error: {message.format(a=a, m=m, t=t)}\n"


def test_validate_calls_metrics_validate_through_its_module(tmp_path, monkeypatch):
    # Fault injection that patches damagekit.metrics.validate relies on this.
    inputs = validate_inputs(tmp_path)

    def injected(samples, scheme_id):
        raise RuntimeError("injected")

    monkeypatch.setattr(damagekit.metrics, "validate", injected)
    with pytest.raises(RuntimeError, match="injected"):
        main(["validate", *inputs])


def test_validate_builds_no_per_row_objects(tmp_path, capsys, monkeypatch):
    inputs = validate_inputs(tmp_path, matches="p1,b1,0.0\np2,,\n",
                             truth="p1,0.0,0.0,destroyed\np2,1.0,1.0,affected\n")
    assert main(["validate", *inputs]) == 0
    expected = capsys.readouterr().out

    def refused(*args, **kwargs):
        raise AssertionError("validate built a per-row object")

    for name in ("GeoPoint", "GroundTruthPoint", "PointMatch", "DamageEstimate"):
        monkeypatch.setattr(formats, name, refused)
    assert main(["validate", *inputs]) == 0
    assert capsys.readouterr().out == expected


def test_validate_and_pr_plot_build_no_curve_point(tmp_path, capsys, monkeypatch):
    inputs = validate_inputs(tmp_path, matches="p1,b1,0.0\np2,,\n",
                             truth="p1,0.0,0.0,destroyed\np2,1.0,1.0,affected\n")
    curve, svg = tmp_path / "c.csv", tmp_path / "c.svg"

    def refused(*args, **kwargs):
        raise AssertionError("a PRPoint was built")

    monkeypatch.setattr(damagekit.metrics.PRPoint, "__init__", refused)
    assert main(["validate", *inputs, "--curve", str(curve)]) == 0
    assert main(["pr-plot", str(curve), "--out", str(svg)]) == 0
    assert curve.read_text().startswith("theta,precision,recall\n100.0,1.0,0.0\n")
    assert "<polyline points=" in svg.read_text()


def test_synth_assess_and_match_build_no_per_feature_objects(tmp_path, capsys, monkeypatch):
    """Footprints, truth points, matches, estimates, samples and curve points
    stay columnar collections from reader to writer: the five commands
    construct no Footprint, Ring, BBox, GroundTruthPoint, PointMatch,
    DamageEstimate, MatchedSample or PRPoint, build no view, and build no
    GeoPoint but the scene spec's."""
    spec = write(tmp_path / "scene.json", json.dumps(
        {"seed": 5, "grid_cols": 6, "grid_rows": 6, "spacing_m": 10.0, "cellsize_m": 2.0,
         "pixel_noise_rate": 0.05, "point_jitter_sigma_m": 6.0}))
    out = tmp_path / "scene"
    built = []
    for owner, name in [(geom.Footprint, "__init__"), (geom.Ring, "__init__"),
                        (geom.BBox, "__init__"), (geom, "_new"), (geom.GeoPoint, "__init__"),
                        (truth.GroundTruthPoint, "__init__"), (zonal.DamageEstimate, "__init__"),
                        (damagekit.metrics.PRPoint, "__init__"), (truth.PointMatch, "__new__"),
                        (truth.MatchedSample, "__new__")]:
        def counted(*args, _name=f"{owner.__name__.rsplit('.')[-1]}.{name}",
                    _function=getattr(owner, name), **kwargs):
            built.append(_name)
            return _function(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    cli._load_scene_spec(spec)
    spec_points, built[:] = list(built), []
    assert spec_points and set(spec_points) == {"GeoPoint.__init__"}
    assessed, matched, curve = (str(tmp_path / name)
                                for name in ("assessed.geojson", "matched.csv", "curve.csv"))
    for argv in (["synth", spec, str(out)],
                 ["assess", str(out / "footprints.geojson"), str(out / "raster.asc"),
                  "--out", assessed],
                 ["match", str(out / "truth.csv"), str(out / "footprints.geojson"),
                  "--out", matched],
                 ["validate", assessed, matched, str(out / "truth.csv"),
                  "--report", str(tmp_path / "report.json"), "--curve", curve],
                 ["pr-plot", curve, "--out", str(tmp_path / "curve.svg")]):
        assert main(argv) == 0
    assert built == spec_points
    built.clear()
    # One row of each collection is counted.
    formats.load_footprints(out / "footprints.geojson")[0]
    points = formats.load_truth(out / "truth.csv")
    matches = formats.parse_matches_csv(formats.read_text(matched))[0]
    estimates = formats.parse_assessed_geojson(formats.read_text(assessed))[1]
    for collection in (points, matches, estimates, formats.parse_curve_csv(formats.read_text(curve)),
                       truth.join_samples(matches, estimates, points, truth.MAJOR_PLUS)):
        collection[-1]
    assert sorted(built) == sorted([
        "BBox.__init__", "geom._new", "geom._new", "GroundTruthPoint.__init__",
        "GeoPoint.__init__", "PointMatch.__new__", "DamageEstimate.__init__",
        "PRPoint.__init__", "MatchedSample.__new__"])


def test_main_runs_the_command_function_bound_at_call_time(tmp_path, capsys, monkeypatch):
    """The parser is built once, but each call looks its command up in the
    module, so a function patched in after a first call is the one run."""
    curve = write(tmp_path / "c.csv", "theta,precision,recall\n0.0,1.0,1.0\n")
    assert main(["pr-plot", curve]) == 0
    assert "<polyline points=" in capsys.readouterr().out
    seen = []
    monkeypatch.setattr(cli, "cmd_pr_plot", lambda args: seen.append(args.curve) or 9)
    assert main(["pr-plot", curve]) == 9
    assert seen == [curve]
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("outcome", ["success", "exit-2", "raises"])
def test_main_restores_the_cyclic_collector(tmp_path, capsys, monkeypatch,
                                            enabled, outcome):
    curve = write(tmp_path / "c.csv", "theta,precision,recall\n"
                  + ("" if outcome == "exit-2" else "0.0,1.0,1.0\n"))
    if outcome == "raises":
        def broken(points):  # a bug, which no exit code may pass off as bad input
            assert not gc.isenabled()
            raise ValueError("renderer failed")
        monkeypatch.setattr(plot, "render_pr_curve_svg", broken)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome == "raises":
            with pytest.raises(ValueError, match="renderer failed"):
                main(["pr-plot", curve])
        else:
            assert main(["pr-plot", curve]) == (0 if outcome == "success" else 2)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_a_paused_command_leaves_garbage_that_does_not_grow_with_the_scene(tmp_path):
    """The collector is off while a command runs, so this checks the premise
    that a command's data hold no reference cycles: what gc finds after each
    command of the round trip is the same for a 4x4 and a 40x40 scene."""
    def round_trip_garbage(side):
        top = tmp_path / str(side)
        out, assessed, matched = top / "scene", top / "a.geojson", top / "m.csv"
        spec = write(tmp_path / f"{side}.json", json.dumps(
            {"seed": 5, "grid_cols": side, "grid_rows": side, "cellsize_m": 1.0}))
        garbage = []
        for argv in (["synth", spec, str(out)],
                     ["assess", str(out / "footprints.geojson"), str(out / "raster.asc"),
                      "--out", str(assessed)],
                     ["match", str(out / "truth.csv"), str(out / "footprints.geojson"),
                      "--out", str(matched)],
                     ["validate", str(assessed), str(matched), str(out / "truth.csv"),
                      "--report", str(top / "r.json"), "--curve", str(top / "c.csv")],
                     ["pr-plot", str(top / "c.csv"), "--out", str(top / "c.svg")]):
            gc.collect()
            assert main(argv) == 0
            garbage.append(gc.collect())
        return garbage

    round_trip_garbage(4)  # first calls fill caches once
    small, large = round_trip_garbage(4), round_trip_garbage(40)
    assert small == large
    assert max(large) < 1000


EXIT_CODES = {"DamageKitError": 2, "ParseError": 2, "MissingHeaderKey": 2,
              "NonIntegerCell": 2, "CellCountMismatch": 2, "InvalidClassCode": 2,
              "UnwritableOutput": 2, "MissingPoint": 2, "DuplicateFootprintId": 3,
              "DuplicatePointId": 3, "UnknownCategory": 4, "MissingEstimate": 5,
              "EmptySampleSet": 6, "NoPositiveSamples": 6, "SwathOutsideScene": 7}


@pytest.mark.parametrize("error", [
    t for t in vars(errors).values()
    if isinstance(t, type) and issubclass(t, errors.DamageKitError)],
    ids=lambda t: t.__name__)
def test_each_error_type_carries_its_exit_code(error):
    assert error.exit_code == EXIT_CODES[error.__name__]


@pytest.mark.parametrize("radius", ["0", "-1", "nan"])
def test_radius_that_is_not_positive_exits_2(tmp_path, capsys, radius):
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1)
    truth = write(tmp_path / "t.csv", TRUTH_HEADER + "p1,0.0,0.0,affected\n")
    assert_fails(["match", truth, fps, "--radius-m", radius], 2, capsys,
                 "error: --radius-m: must be positive, got ")


@pytest.mark.parametrize("scheme, code", [
    ("no_visible_damage,affected,minor_damage,major_damage,destroyed", 2),
    ("destroyed,vaporized", 4)])
def test_bad_scheme_names_the_option(tmp_path, capsys, scheme, code):
    inputs = validate_inputs(tmp_path)
    assert_fails(["validate", *inputs, "--scheme", scheme], code, capsys,
                 "error: --scheme: ")


def test_scene_whose_buildings_collapse_exits_2(tmp_path, capsys):
    spec = write(tmp_path / "scene.json", json.dumps({
        "building_size_m": 1e-300, "spacing_m": 1e-300, "grid_cols": 2, "grid_rows": 2}))
    assert_fails(["synth", spec, str(tmp_path / "o")], 2, capsys,
                 "error: building_size_m and spacing_m give a bad footprint: ")


@pytest.mark.parametrize("command", ["synth", "assess", "validate"])
@pytest.mark.parametrize("fault", ["digits", "nesting"])
def test_json_past_the_parser_limits_exits_2(tmp_path, capsys, command, fault):
    """An integer past Python's 4,300-digit limit, or nesting past the
    recursion limit, in a scene spec, a footprint or an assessed GeoJSON."""
    value = "9" * 5000 if fault == "digits" else "[" * 100_000 + "]" * 100_000
    if command == "synth":
        path = write(tmp_path / "scene.json", f'{{"seed": {value}}}')
        argv = ["synth", path, str(tmp_path / "o")]
    elif command == "assess":
        path = write(tmp_path / "fp.geojson", FOOTPRINT_B1.replace(
            '"properties":{}', f'"properties":{{"big":{value}}}'))
        argv = ["assess", path, write(tmp_path / "r.asc", RASTER_2X2)]
    else:
        argv = validate_inputs(tmp_path)
        path = argv[0]
        write(Path(path), Path(path).read_text().replace(
            '"properties":{', f'"properties":{{"big":{value},'))
        argv = ["validate", *argv]
    assert_fails(argv, 2, capsys, f"error: {path}: invalid JSON: ")


def test_count_too_large_for_a_float_exits_2(tmp_path, capsys):
    inputs = validate_inputs(tmp_path)
    text = Path(inputs[0]).read_text()
    assert '"n_inside":4,' in text
    write(Path(inputs[0]), text.replace('"n_inside":4,', f'"n_inside":{10**400},'))
    assert_fails(["validate", *inputs], 2, capsys,
                 f"error: {inputs[0]}: feature 'b1' lacks assessment properties")


@pytest.mark.parametrize("counts", [
    f'"n_inside":{2**53 + 1},"n_damaged":1,', f'"n_inside":{2**53},"n_damaged":{2**53 + 1},',
    '"n_inside":-1,"n_damaged":1,', '"n_inside":true,"n_damaged":1,',
    '"n_inside":4.0,"n_damaged":1,', '"n_inside":4,"n_damaged":5,'])
def test_counts_past_the_exact_rule_exit_2(tmp_path, capsys, counts):
    # 2**53 + 1 rounds to 2**53 as a float: only an integer test rejects it.
    inputs = validate_inputs(tmp_path)
    text = Path(inputs[0]).read_text()
    assert '"n_inside":4,"n_damaged":1,' in text
    write(Path(inputs[0]), text.replace('"n_inside":4,"n_damaged":1,', counts))
    assert_fails(["validate", *inputs], 2, capsys,
                 f"error: {inputs[0]}: feature 'b1' lacks assessment properties")


def test_unknown_category_exits_4(tmp_path, capsys):
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1)
    truth = write(tmp_path / "t.csv", TRUTH_HEADER + "p1,0.0,0.0,vaporized\n")
    assert_fails(["match", truth, fps], 4, capsys,
                 f"error: {truth}:2: unknown damage category 'vaporized'")


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


def test_curve_outside_the_unit_square_exits_2(tmp_path, capsys):
    curve = write(tmp_path / "c.csv", "theta,precision,recall\n70.0,nan,7\n")
    assert_fails(["pr-plot", curve], 2, capsys, "c.csv:2: bad curve row")


def test_matched_distance_that_match_cannot_write_exits_2(tmp_path, capsys):
    assessed = tmp_path / "a.geojson"
    fps = write(tmp_path / "fp.geojson", FOOTPRINT_B1)
    assert main(["assess", fps, write(tmp_path / "r.asc", RASTER_2X2),
                 "--out", str(assessed)]) == 0
    truth = write(tmp_path / "t.csv", TRUTH_HEADER + "p1,0.0,0.0,destroyed\n")
    matched = write(tmp_path / "m.csv", MATCH_HEADER + "p1,b1,nan\n")
    assert_fails(["validate", str(assessed), matched, truth], 2, capsys,
                 "m.csv:2: bad distance 'nan'")


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
