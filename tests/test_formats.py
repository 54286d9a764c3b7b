"""Round-trip and error-path tests for the file formats.

Writers promise canonical bytes (repr floats, LF endings), so most tests
assert bit-exact round trips rather than approximate equality.
"""

import gc
import io
import json
import math
import random
import re
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _oracles import (assessed_properties, collection_text, parse_estimates_geojson,
                      parse_footprints_one_by_one, square_footprint, write_curve_csv_by_row)
from damagekit import formats, geom
from damagekit.errors import ParseError, UnknownCategory
from damagekit.formats import (parse_assessed_geojson, parse_curve_csv,
                               parse_footprints_geojson,
                               parse_footprints_with_properties,
                               parse_matches_csv, parse_oracle_csv,
                               parse_truth_csv, round_half_up,
                               write_assessed_geojson, write_curve_csv,
                               write_footprints_geojson, write_matches_csv,
                               write_oracle_csv, write_report_json,
                               write_truth_csv)
from damagekit.geom import Footprint, FootprintArray, GeoPoint, Ring, footprint_of
from damagekit.metrics import PRCurve, ValidationReport
from damagekit.synth import SplitMix64
from damagekit.truth import FemaCategory, GroundTruthPoint, PointMatch
from damagekit.zonal import DamageEstimate

UNIT_SQUARE = Footprint("b1", Ring((
    GeoPoint(0.0, 0.0), GeoPoint(1.0, 0.0), GeoPoint(1.0, 1.0),
    GeoPoint(0.0, 1.0), GeoPoint(0.0, 0.0),
)))


# --------------------------------------------------------------- GeoJSON

def test_footprints_geojson_is_compact_single_line():
    expected = (
        '{"type":"FeatureCollection","features":[{"type":"Feature",'
        '"id":"b1","geometry":{"type":"Polygon","coordinates":'
        '[[[0.0,0.0],[1.0,0.0],[1.0,1.0],[0.0,1.0],[0.0,0.0]]]},'
        '"properties":{}}]}\n'
    )
    assert write_footprints_geojson([UNIT_SQUARE]) == expected


def test_footprints_geojson_round_trip_keeps_holes_and_precision():
    fps = [
        square_footprint("b1", -90.123456789012, 32.1, 0.001),
        square_footprint("b2", 10.0, 20.0, 0.5, hole_half=0.25),
    ]
    back = parse_footprints_geojson(write_footprints_geojson(fps))
    assert back == fps
    assert len(back[1].holes) == 1


def test_footprints_round_trip_is_exact_for_random_squares():
    draws = SplitMix64(2024).unit_array(3 * 25).reshape(-1, 3).tolist()
    fps = []
    for k, (u_lon, u_lat, u_half) in enumerate(draws):
        cx = u_lon * 360.0 - 180.0
        cy = u_lat * 170.0 - 85.0
        half = u_half * 0.01 + 1e-6
        hole = half / 3.0 if k % 3 == 0 else None
        fps.append(square_footprint(f"b{k:03d}", cx, cy, half,
                                    hole_half=hole))
    assert parse_footprints_geojson(write_footprints_geojson(fps)) == fps


def test_feature_id_wins_over_properties_id():
    doc = {"type": "FeatureCollection", "features": [{
        "type": "Feature", "id": "top",
        "geometry": {"type": "Polygon",
                     "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1],
                                      [0, 0]]]},
        "properties": {"id": "inner", "height": 4},
    }]}
    fps, props = parse_footprints_with_properties(json.dumps(doc))
    assert fps[0].id == "top"
    assert props[0] == {"id": "inner", "height": 4}


def test_properties_id_used_when_feature_has_none():
    doc = {"type": "FeatureCollection", "features": [{
        "type": "Feature",
        "geometry": {"type": "Polygon",
                     "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1],
                                      [0, 0]]]},
        "properties": {"id": 7},
    }]}
    fps, _ = parse_footprints_with_properties(json.dumps(doc))
    assert fps[0].id == "7"


def test_feature_without_any_id_is_rejected():
    doc = {"type": "FeatureCollection", "features": [{
        "type": "Feature",
        "geometry": {"type": "Polygon",
                     "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1],
                                      [0, 0]]]},
        "properties": {},
    }]}
    with pytest.raises(ParseError, match="has no id"):
        parse_footprints_geojson(json.dumps(doc))


def test_multipolygon_geometry_is_rejected():
    doc = {"type": "FeatureCollection", "features": [{
        "type": "Feature", "id": "b1",
        "geometry": {"type": "MultiPolygon", "coordinates": []},
        "properties": {},
    }]}
    with pytest.raises(ParseError, match="must be a Polygon"):
        parse_footprints_geojson(json.dumps(doc))


def test_non_collection_document_is_rejected():
    with pytest.raises(ParseError, match="FeatureCollection"):
        parse_footprints_geojson('{"type": "Feature"}')


MALFORMED_COLLECTIONS = {
    "properties-not-an-object": (
        {"type": "FeatureCollection", "features": [{
            "type": "Feature", "id": "b1", "properties": [1],
            "geometry": json.loads(write_footprints_geojson([UNIT_SQUARE]))
            ["features"][0]["geometry"]}]},
        "properties must be an object"),
    "features-not-a-list": ({"type": "FeatureCollection", "features": 5},
                            "no feature list"),
    "features-missing": ({"type": "FeatureCollection"}, "no feature list"),
}


@pytest.mark.parametrize("parse", [parse_footprints_with_properties,
                                   parse_assessed_geojson,
                                   parse_estimates_geojson])
@pytest.mark.parametrize("case", sorted(MALFORMED_COLLECTIONS))
def test_malformed_collections_are_parse_errors(parse, case):
    doc, message = MALFORMED_COLLECTIONS[case]
    with pytest.raises(ParseError, match=message):
        parse(json.dumps(doc))


def test_null_properties_read_as_empty():
    doc = json.loads(write_footprints_geojson([UNIT_SQUARE]))
    doc["features"][0]["properties"] = None
    fps, properties = parse_footprints_with_properties(json.dumps(doc))
    assert fps == [UNIT_SQUARE]
    assert properties == [{}]


def test_invalid_json_reports_source_and_line():
    with pytest.raises(ParseError) as err:
        parse_footprints_geojson('{\n  "type": oops\n}',
                                 source="bad.geojson")
    assert "bad.geojson:2:" in str(err.value)


def lattice_feature(fid, x, y, w, h, hole=False):
    """A rectangle feature on a 1/64-degree lattice, with a hole if asked."""
    def ring(x0, y0, x1, y1):
        return [[x0 / 64, y0 / 64], [x1 / 64, y0 / 64], [x1 / 64, y1 / 64],
                [x0 / 64, y1 / 64], [x0 / 64, y0 / 64]]
    rings = [ring(x, y, x + w, y + h)]
    if hole and w > 2 and h > 2:
        rings.append(ring(x + 1, y + 1, x + w - 1, y + h - 1))
    return {"type": "Feature", "id": fid, "properties": {"k": fid},
            "geometry": {"type": "Polygon", "coordinates": rings}}


def set_vertex(k, value):
    def edit(feature):
        feature["geometry"]["coordinates"][0][k] = value
    return edit


def set_coordinate(k, axis, value):
    def edit(feature):
        feature["geometry"]["coordinates"][0][k][axis] = value
    return edit


def set_ring(ring):
    def edit(feature):
        feature["geometry"]["coordinates"][0] = ring
    return edit


def set_rings(rings):
    def edit(feature):
        feature["geometry"]["coordinates"] = rings
    return edit


def set_id(fid):
    def edit(feature):
        feature["id"] = fid
    return edit


def set_properties_id(fid):
    def edit(feature):
        del feature["id"]
        feature["properties"]["id"] = fid
    return edit


# Faults the batch reader must report exactly as the one-by-one reader
# does, and inputs it must read the same although its array rejects them.
FEATURE_EDITS = {
    "non-numeric": set_coordinate(1, 0, "east"),
    "numeric-string": set_coordinate(1, 0, "0.25"),
    "boolean": set_coordinate(0, 1, True),
    "null": set_coordinate(2, 1, None),
    "three-element-vertex": set_vertex(2, [0.5, 0.5, 0.0]),
    "vertex-not-a-list": set_vertex(1, 7),
    "latitude-out-of-range": set_coordinate(1, 1, 91.5),
    "longitude-not-finite": set_coordinate(1, 0, float("inf")),
    "huge-integer": set_coordinate(1, 0, 10**30),
    "unclosed": set_coordinate(4, 0, 0.75),
    "consecutive-duplicate": set_ring([[0, 0], [1, 0], [1, 0], [1, 1], [0, 0]]),
    "too-few-vertices": set_ring([[0, 0], [1, 0], [0, 0]]),
    "ring-not-a-list": set_ring(5),
    "zero-extent": set_ring([[0, 0], [1, 0], [2, 0], [0, 0]]),
    "no-rings": set_rings([]),
    "rings-not-a-list": set_rings("rings"),
    "bad-id": set_id("a,b"),
    "no-id": set_id(""),
    "true-id": set_id(True),
    "false-id": set_id(False),
    "nan-id": set_id(math.nan),
    "infinity-id": set_id(math.inf),
    "minus-infinity-id": set_id(-math.inf),
    "float-id": set_id(2.0),
    "list-id": set_id(["b2"]),
    "true-properties-id": set_properties_id(True),
    "nan-properties-id": set_properties_id(math.nan),
}


def read_both(doc):
    """(outcome of the batch reader, outcome of the one-by-one reader): the
    footprints with their bounds and the properties, or the error text."""
    text = json.dumps(doc)
    outcomes = []
    for parse in (parse_footprints_with_properties, parse_footprints_one_by_one):
        try:
            fps, properties = parse(text, source="in.geojson")
            outcomes.append((fps, [fp.bounds for fp in fps], properties))
        except ParseError as exc:
            outcomes.append(str(exc))
    return outcomes


@pytest.mark.parametrize("edit", sorted(FEATURE_EDITS))
def test_batch_reader_reports_faults_as_the_one_by_one_reader(edit):
    features = [lattice_feature("b1", 0, 0, 4, 4),
                lattice_feature("b2", 8, 0, 4, 4, hole=True)]
    FEATURE_EDITS[edit](features[1])
    batch, reference = read_both({"type": "FeatureCollection", "features": features})
    assert batch == reference


@pytest.mark.parametrize("edit, text", [
    ("true-id", "True"), ("false-id", "False"), ("nan-id", "nan"), ("infinity-id", "inf"),
    ("minus-infinity-id", "-inf"), ("float-id", "2.0"), ("list-id", "['b2']"),
    ("true-properties-id", "True"), ("nan-properties-id", "nan")])
def test_an_id_must_be_a_json_string_or_integer(edit, text):
    features = [lattice_feature("b1", 0, 0, 4, 4), lattice_feature("b2", 8, 0, 4, 4)]
    FEATURE_EDITS[edit](features[1])
    assert read_both({"type": "FeatureCollection", "features": features}) == [
        f"in.geojson: feature 1 id {text} is not a string or integer"] * 2


@pytest.mark.parametrize("edit, fid", [(set_id(-7), "-7"), (set_properties_id(7), "7")],
                         ids=["feature-id", "properties-id"])
def test_an_integer_id_reads_as_its_decimal_text(edit, fid):
    feature = lattice_feature("b1", 0, 0, 4, 4)
    edit(feature)
    batch, reference = read_both({"type": "FeatureCollection", "features": [feature]})
    assert batch == reference and batch[0].ids.tolist() == [fid]


def test_a_bad_ring_is_reported_before_a_bad_id_in_a_later_feature():
    features = [lattice_feature("b1", 0, 0, 4, 4), lattice_feature("b2", 8, 0, 4, 4)]
    FEATURE_EDITS["unclosed"](features[0])
    FEATURE_EDITS["bad-id"](features[1])
    batch, reference = read_both({"type": "FeatureCollection", "features": features})
    assert batch == reference == (
        "in.geojson: feature 'b1': ring is not closed (first vertex != last)")


@pytest.mark.parametrize("parse", [parse_footprints_with_properties,
                                   parse_footprints_one_by_one])
@pytest.mark.parametrize("ring, bad", [
    ([[0, 0], ["0.25", 0], [0.25, 1], [0, 1], [0, 0]], "'0.25'"),
    ([[0, 0], [0.25, 0], [0.25, True], [0, 1], [0, 0]], "True"),
    ([[False, False], [True, False], [True, True], [False, True], [False, False]],
     "False"),
], ids=["string", "boolean", "all-boolean"])
def test_coordinates_must_be_json_numbers(parse, ring, bad):
    doc = {"type": "FeatureCollection", "features": [
        lattice_feature("b1", 0, 0, 4, 4), lattice_feature("b2", 8, 0, 4, 4)]}
    doc["features"][1]["geometry"]["coordinates"] = [ring]
    with pytest.raises(ParseError) as err:
        parse(json.dumps(doc), source="in.geojson")
    assert str(err.value) == f"in.geojson: feature 'b2': coordinate {bad} is not a number"


@pytest.mark.parametrize("parse", [parse_footprints_with_properties,
                                   parse_footprints_one_by_one])
@pytest.mark.parametrize("vertex", [[0, 0, 5], 5, {"a": 1}, "ab", [0], []],
                         ids=["triple", "number", "object", "string", "single", "empty"])
def test_a_vertex_must_be_a_pair(parse, vertex):
    doc = {"type": "FeatureCollection", "features": [
        lattice_feature("b1", 0, 0, 4, 4), lattice_feature("b2", 8, 0, 4, 4)]}
    doc["features"][1]["geometry"]["coordinates"][0][1] = vertex
    with pytest.raises(ParseError) as err:
        parse(json.dumps(doc), source="in.geojson")
    assert str(err.value) == f"in.geojson: feature 'b2': vertex {vertex!r} is not a pair of numbers"


@st.composite
def edited_collections(draw):
    features = []
    for k in range(draw(st.integers(0, 5))):
        feature = lattice_feature(f"b{k}", draw(st.integers(-9, 9)),
                                  draw(st.integers(-9, 9)), draw(st.integers(1, 6)),
                                  draw(st.integers(1, 6)), hole=draw(st.booleans()))
        edit = draw(st.sampled_from([None] * 6 + sorted(FEATURE_EDITS)))
        if edit is not None:
            FEATURE_EDITS[edit](feature)
        features.append(feature)
    return {"type": "FeatureCollection", "features": features}


@settings(max_examples=200)
@given(doc=edited_collections())
@example(doc={"type": "FeatureCollection", "features": []})
def test_batch_reader_matches_the_one_by_one_reader(doc):
    batch, reference = read_both(doc)
    assert batch == reference


def test_parsed_footprints_share_one_coordinate_array():
    features = [lattice_feature(f"b{k}", k * 8, 0, 4, 4, hole=k % 2 == 0)
                for k in range(1000)]
    text = json.dumps({"type": "FeatureCollection", "features": features})
    gc.collect()
    before = len(gc.get_objects())
    fps = parse_footprints_geojson(text)
    gc.collect()
    # The list; per footprint itself, its BBox and its exterior; per hole,
    # the ring and the holes tuple. No GeoPoint per vertex.
    assert len(gc.get_objects()) - before <= 1 + 3 * len(fps) + 2 * 500
    assert fps[0].exterior.coords.base is fps[-2].holes[0].coords.base
    assert not fps[0].exterior.coords.flags.writeable


# ----------------------------------------------------- assessed GeoJSON

def test_round_half_up_breaks_ties_upward():
    assert round_half_up(2.675) == 2.68  # round() would give 2.67
    assert round_half_up(0.005) == 0.01
    assert round_half_up(-0.005) == -0.01
    assert round_half_up(100.0 / 3.0) == 33.33
    assert round_half_up(100.0) == 100.0


def test_assessed_geojson_displays_rounded_pct_but_keeps_counts():
    fps = [square_footprint("b1", 0.0, 0.0, 0.001),
           square_footprint("b2", 1.0, 0.0, 0.001)]
    ests = [DamageEstimate("b1", 100.0 * 1 / 3, 3, 1),
            DamageEstimate("b2", 0.0, 0, 0, no_coverage=True)]
    text = write_assessed_geojson(fps, ests,
                                  input_properties=[{"addr": "12 Elm"}, {}])
    props = json.loads(text)["features"][0]["properties"]
    assert props["damage_pct"] == 33.33
    assert props["n_inside"] == 3
    assert props["n_damaged"] == 1
    assert props["addr"] == "12 Elm"

    back_fps, back_ests = parse_assessed_geojson(text)
    assert back_fps == fps
    # The working percentage is rebuilt from counts, not the 2-dp display.
    assert back_ests[0].damage_pct == 100.0 * 1 / 3
    assert back_ests == ests
    assert back_ests[1].no_coverage is True


def test_assessed_geojson_requires_assessment_properties():
    text = write_footprints_geojson([UNIT_SQUARE])
    with pytest.raises(ParseError, match="assessment properties"):
        parse_assessed_geojson(text)


ASSESSED_B1 = write_assessed_geojson([UNIT_SQUARE],
                                     [DamageEstimate("b1", 25.0, 4, 1)])


@pytest.mark.parametrize("key, value", [
    ("n_damaged", 12), ("n_damaged", -1), ("n_inside", 3.7),
    ("n_inside", "4"), ("n_damaged", True), ("supersampled", "false"),
    ("no_coverage", 0), ("no_coverage", None), ("n_inside", 10**400),
])
def test_assessed_geojson_rejects_bad_counts_and_flags(key, value):
    doc = json.loads(ASSESSED_B1)
    doc["features"][0]["properties"][key] = value
    for parse in (parse_assessed_geojson, parse_estimates_geojson):
        with pytest.raises(ParseError, match="assessment properties") as err:
            parse(json.dumps(doc), source="a.geojson")
        assert str(err.value).startswith("a.geojson: ")


def assessed_lattice(rng, n):
    """n assessed lattice features, some with holes, with an extra property
    and random counts and flags; coordinates that are whole numbers are
    JSON integers."""
    features = []
    for k in range(n):
        scale = rng.choice([1, 64])  # 64: every coordinate a whole number
        feature = lattice_feature(f"b{k}", rng.randrange(-60, 60) * scale,
                                  rng.randrange(-60, 60) * scale, rng.randint(1, 6) * scale,
                                  rng.randint(1, 6) * scale, hole=rng.random() < 0.5)
        for ring in feature["geometry"]["coordinates"]:
            ring[:] = [[int(c) if c == int(c) else c for c in vertex] for vertex in ring]
        n_inside = rng.choice([0, rng.randrange(1, 5000)])
        feature["properties"].update(
            n_inside=n_inside, n_damaged=rng.randint(0, n_inside), damage_pct=-1.0,
            supersampled=rng.random() < 0.2, no_coverage=n_inside == 0)
        features.append(feature)
    return {"type": "FeatureCollection", "features": features}


def test_estimates_reader_matches_the_assessed_reader(monkeypatch):
    """The estimates reader builds no per-feature footprint, yet returns the
    assessed reader's estimates and, on every ring and id fault, its error text."""
    rng = random.Random(2023)
    texts = [json.dumps(assessed_lattice(rng, n)) for n in (0, 1, 5, 40)]
    assert re.search(r"\[-?\d+, -?\d+\]", texts[-1]) and "]], [[" in texts[-1]  # ints, holes
    expected = [parse_assessed_geojson(text)[1] for text in texts]

    def build(*args):
        raise AssertionError("a footprint was built")

    with monkeypatch.context() as patch:
        patch.setattr(geom, "_new", build)
        patch.setattr(formats, "footprint_of", build)
        assert [parse_estimates_geojson(text) for text in texts] == expected
    for edit in sorted(FEATURE_EDITS):
        doc = assessed_lattice(rng, 3)
        FEATURE_EDITS[edit](doc["features"][1])
        messages = []
        for parse in (parse_assessed_geojson, parse_estimates_geojson):
            with pytest.raises(ParseError) as err:
                parse(json.dumps(doc), source="a.geojson")
            messages.append(str(err.value))
        assert messages[0] == messages[1], edit


@pytest.mark.parametrize("parse", [parse_footprints_with_properties,
                                   parse_assessed_geojson, parse_estimates_geojson])
@pytest.mark.parametrize("edit", [None, "empty", "unclosed", "bad-id"])
def test_a_geojson_read_parses_once_and_checks_its_rings_at_most_once(
        monkeypatch, parse, edit):
    """A fault is named by reading the parsed features again, not the text;
    an empty collection takes the batch path; a bad id ends the batch pass
    before its ring check."""
    doc = assessed_lattice(random.Random(5), 3)
    if edit == "empty":
        doc["features"] = []
    elif edit is not None:
        FEATURE_EDITS[edit](doc["features"][1])
    calls = []
    for module, name in ((formats, "parse_json"), (geom, "_checked_rings")):
        def counted(*args, _name=name, _function=getattr(module, name)):
            calls.append(_name)
            return _function(*args)
        monkeypatch.setattr(module, name, counted)
    if edit in FEATURE_EDITS:
        with pytest.raises(ParseError):
            parse(json.dumps(doc), source="a.geojson")
    else:
        parse(json.dumps(doc), source="a.geojson")
    assert calls == ["parse_json", "_checked_rings"][:1 if edit == "bad-id" else 2]


@pytest.mark.parametrize("parse", [parse_footprints_with_properties,
                                   parse_assessed_geojson, parse_estimates_geojson])
def test_a_ring_fault_builds_each_feature_once_up_to_it(monkeypatch, parse):
    """A fault in the last feature's ring builds the features before it and
    that feature once each, not a second time to name it."""
    doc = assessed_lattice(random.Random(7), 100)
    FEATURE_EDITS["unclosed"](doc["features"][-1])
    built = []

    def counted(fid, rings):
        built.append(fid)
        return footprint_of(fid, rings)

    for module in (formats, geom):
        monkeypatch.setattr(module, "footprint_of", counted)
    with pytest.raises(ParseError, match=r"^a\.geojson: feature 'b99': ring is not closed"):
        parse(json.dumps(doc), source="a.geojson")
    assert built == [feature["id"] for feature in doc["features"]]


# ------------------------------------------------- writers' exact bytes

# Coordinates whose texts take every form: signed zeros, exponents down to
# the least subnormal, JSON integers and arbitrary floats.
COORDINATES = (st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-07, 2.5e-05, 1 / 3, 3, -7, 90])
               | st.integers(-90, 90) | st.floats(-90.0, 90.0))
IDS = st.sampled_from(["b1", "-", "_", "A-z_09"]) | st.from_regex(r"[A-Za-z0-9_-]+", fullmatch=True)
# Ids the readers refuse: JSON would escape them, a CSV row would split on them,
# or they are not strings.
BAD_IDS = ['a"b', "\\", "\n", "é", "\u2028", "</b>", "a,b", "b 1", "b.1", 7, True]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)
PROPERTIES = st.dictionaries(st.sampled_from(["damage_pct", "n_inside", "no_coverage", "addr"])
                             | st.text(max_size=3), JSON_VALUES, max_size=4)
PCTS = st.sampled_from([0.0, -0.0, 2.675, 0.005, 100.0 / 3.0, 12.5, 100.0]) | st.floats(0.0, 100.0)


@st.composite
def rectangles(draw, box=None):
    """A rectangle's ring of (lon, lat) pairs drawn from COORDINATES; with a
    box ((x0, x1), (y0, y1)), each value is moved into it, and a side that
    this leaves without extent is the box's."""
    sides = []
    for lo, hi in box or [(-math.inf, math.inf)] * 2:
        side = sorted(min(max(v, lo), hi)
                      for v in draw(st.lists(COORDINATES, min_size=2, max_size=2)))
        sides.append(side if side[0] != side[1] or box is None else [lo, hi])
    (x0, x1), (y0, y1) = sides
    assume(x0 != x1 and y0 != y1)
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]


@st.composite
def holed_rectangles(draw):
    """A footprint's rings: a rectangle, then up to two holes in its box."""
    exterior = draw(rectangles())
    box = ((exterior[0][0], exterior[1][0]), (exterior[0][1], exterior[2][1]))
    return [exterior, *draw(st.lists(rectangles(box), max_size=2))]


@st.composite
def assessed_footprints(draw):
    """(footprints built through the library, some with holes, their
    estimates, with counts the writer accepts, and input properties or None)."""
    footprints = [footprint_of(draw(IDS), draw(holed_rectangles()))
                  for _ in range(draw(st.integers(0, 4)))]
    estimates = [DamageEstimate(fp.id, draw(PCTS), inside := draw(st.integers(0, 10**6)),
                                draw(st.integers(0, inside)), draw(st.booleans()),
                                draw(st.booleans())) for fp in footprints]
    n = len(footprints)
    return footprints, estimates, draw(st.none() | st.lists(PROPERTIES, min_size=n, max_size=n))


@settings(max_examples=300)
@given(scene=assessed_footprints())
@example(scene=([square_footprint("a", 0.0, 0.0, 1e-07, 5e-08), UNIT_SQUARE,
                 footprint_of("z", [[(-0.0, 0), (1, 0), (1, 5e-324), (-0.0, 5e-324), (-0.0, 0)]])],
                [DamageEstimate("a", -0.0, 1, 0), DamageEstimate("b1", 0.0, 1, 0),
                 DamageEstimate("z", 0.0, 1, 0)], None))
# One feature per path of the properties text: an input key among the five,
# input keys none of the five, no input key.
@example(scene=([square_footprint("a", 0.0, 0.0, 0.5), UNIT_SQUARE,
                 square_footprint("c", 5.0, 5.0, 0.5)],
                [DamageEstimate("a", 2.675, 2**53, 7, True),
                 DamageEstimate("b1", -0.0, 0, 0, False, True), DamageEstimate("c", 12.5, 8, 1)],
                [{"addr": "1 Main St", "damage_pct": "x"}, {"addr": "2 Main St"}, {}]))
def test_writers_give_the_reference_writers_bytes(scene):
    """Both writers, given the collection or a list, in chunks of any size,
    write json.dumps of the whole document, dict by dict; the rounding of
    damage_pct and the coordinate texts keep -0.0; fewer estimates than
    footprints are refused."""
    footprints, estimates, inputs = scene
    reference = collection_text(footprints, assessed_properties(estimates, inputs))
    fps = FootprintArray.of(footprints)
    for given_footprints, chunk in [(footprints, formats._CHUNK), (fps, 1), (fps, 3)]:
        with mock.patch.object(formats, "_CHUNK", chunk):
            assert (write_footprints_geojson(given_footprints)
                    == collection_text(footprints, [{}] * len(footprints)))
            assert write_assessed_geojson(given_footprints, estimates, inputs) == reference
            if estimates:
                with pytest.raises(ValueError):
                    write_assessed_geojson(given_footprints, estimates[:-1], inputs)


def test_assessed_writer_refuses_estimates_that_do_not_pair_with_the_footprints():
    a, b = square_footprint("a", 0.0, 0.0, 1e-3), square_footprint("b", 0.01, 0.0, 1e-3)
    est_a, est_b = DamageEstimate("a", 25.0, 4, 1), DamageEstimate("b", 0.0, 3, 0)
    for estimates, inputs, message in [
            ([est_b], None, "ids in order"), ([est_b, est_a], None, "ids in order"),
            ([est_a, est_b, est_b], None, "ids in order"),
            ([est_a, est_b], [{}], "2 footprints, 1 dicts")]:
        with pytest.raises(ValueError, match=message):
            write_assessed_geojson(FootprintArray.of([a, b]), estimates, inputs)


@pytest.mark.parametrize("fid", BAD_IDS)
def test_writers_refuse_the_ids_their_readers_refuse(fid):
    """Every writer of ids checks them with the readers' charset and names
    the first it refuses."""
    good, bad = square_footprint("b1", 0.0, 0.0, 1e-3), square_footprint(fid, 0.0, 0.0, 1e-3)
    point = GroundTruthPoint(fid, GeoPoint(0.0, 0.0), FemaCategory.AFFECTED)
    for write in [lambda: write_footprints_geojson([good, bad]),
                  lambda: write_assessed_geojson([bad], [DamageEstimate(fid, 0.0, 1, 0)]),
                  lambda: write_truth_csv([point]),
                  lambda: write_oracle_csv({"b1": FemaCategory.AFFECTED, fid: FemaCategory.AFFECTED}),
                  lambda: write_matches_csv([fid], [], [fid]),
                  lambda: write_matches_csv(["p1"], [PointMatch("p1", fid, 1.0)], [])]:
        with pytest.raises(ValueError, match=f"^id {re.escape(repr(fid))} is not in"):
            write()


@pytest.mark.parametrize("distance", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
def test_the_matches_writer_refuses_the_distances_its_reader_refuses(distance):
    matched = [PointMatch("p1", "b1", 1.0), PointMatch("p2", "b1", distance)]
    with pytest.raises(ParseError, match="not a finite number >= 0"):
        parse_matches_csv(f"{formats.MATCH_HEADER}\np1,b1,1.0\np2,b1,{distance!r}\n")
    with pytest.raises(ValueError, match=f"^point 'p2' has distance {re.escape(repr(distance))}, "
                                         "not a finite number >= 0$"):
        write_matches_csv(["p1", "p2"], matched, [])


@pytest.mark.parametrize("n_inside, n_damaged", [
    (-1, 0), (1, 2), (0, -1), (2**53 + 1, 0), (2**60, 2**60)])
def test_the_assessed_writer_refuses_the_counts_its_reader_refuses(n_inside, n_damaged):
    footprints = [square_footprint("b1", 0.0, 0.0, 1e-3), square_footprint("b2", 1.0, 0.0, 1e-3)]
    good = [DamageEstimate("b1", 0.0, 1, 0), DamageEstimate("b2", 0.0, 1, 0)]
    doc = json.loads(write_assessed_geojson(footprints, good))
    doc["features"][1]["properties"].update(n_inside=n_inside, n_damaged=n_damaged)
    with pytest.raises(ParseError, match="^<geojson>: feature 'b2' lacks assessment properties"):
        parse_assessed_geojson(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^footprint 'b2' has n_inside {n_inside} and n_damaged "
                                         f"{n_damaged}, not 0 <= n_damaged <= n_inside <= "):
        write_assessed_geojson(footprints, [good[0], DamageEstimate("b2", 0.0, n_inside, n_damaged)])


@pytest.mark.parametrize("pct", [math.nan, math.inf, -math.inf, -0.5, 100.5])
def test_the_assessed_writer_refuses_a_damage_pct_outside_the_percent_range(pct):
    """NaN is not JSON, and round_half_up cannot round an infinity."""
    footprints = [square_footprint("b1", 0.0, 0.0, 1e-3), square_footprint("b2", 1.0, 0.0, 1e-3)]
    estimates = [DamageEstimate("b1", 100.0, 1, 1), DamageEstimate("b2", pct, 1, 0)]
    with pytest.raises(ValueError, match=f"^footprint 'b2' has damage_pct {re.escape(repr(pct))}, "
                                         r"not in \[0, 100\]$"):
        write_assessed_geojson(footprints, estimates)


@pytest.mark.parametrize("write, message", [
    (lambda: write_assessed_geojson([square_footprint("a", 0.0, 0.0, 1e-3)],
                                    [DamageEstimate("a", 0.0, 3.7, 1)]), "n_inside 3.7"),
    (lambda: write_assessed_geojson([square_footprint("a", 0.0, 0.0, 1e-3)],
                                    [DamageEstimate("a", 0.0, 1, 0, "no")]), "supersampled 'no'"),
    (lambda: write_matches_csv(["p"], [PointMatch("p", "a", "1.5")], []), "distance_m '1.5'"),
], ids=["fractional-count", "text-flag", "text-distance"])
def test_the_writers_refuse_a_value_they_would_write_as_another(write, message):
    with pytest.raises(ValueError, match=f"row 0: {re.escape(message)} does not survive"):
        write()


@pytest.mark.parametrize("code", [-1, 5])
def test_the_truth_writer_refuses_a_category_code_no_label_names(code):
    points = [GroundTruthPoint("p1", GeoPoint(0.0, 0.0), FemaCategory.DESTROYED),
              GroundTruthPoint("p2", GeoPoint(0.0, 0.0), code)]
    with pytest.raises(ValueError, match=f"^point 'p2' has category {code}, not a FEMA code$"):
        write_truth_csv(points)


@pytest.mark.parametrize("point_ids, matched, unmatched, bad", [
    (["p1"], [PointMatch("p1", "b1", 1.0), PointMatch("p1", "b2", 2.0)], [], "p1"),
    (["p1"], [PointMatch("p1", "b1", 1.0)], ["p1"], "p1"),
    (["p1"], [PointMatch("p1", "b1", 1.0), PointMatch("p2", "b1", 1.0)], [], "p2"),
    (["p1", "p2"], [], ["p2"], "p1"),
    (["p1", "p1"], [PointMatch("p1", "b1", 1.0)], [], "p1"),
    (["p1", "p1"], [PointMatch("p1", "b1", 1.0)], ["p1"], "p1"),
    (["p1"], [PointMatch("p2", "b1", 1.0)], [], "p1"),
    (["p1", "p1"], [PointMatch("p1", "b1", 1.0)], ["p2"], "p1"),
], ids=["matched-twice", "matched-and-unmatched", "not-a-point", "neither",
        "point-twice", "point-twice-listed-twice", "another-point",
        "point-twice-and-another"])
def test_matches_csv_refuses_what_does_not_partition_the_points(point_ids, matched,
                                                                unmatched, bad):
    with pytest.raises(ValueError, match=f"^point '{bad}' is not listed once"):
        write_matches_csv(point_ids, matched, unmatched)


# ------------------------------------------------------------------ CSV

def test_truth_csv_round_trip():
    points = [
        GroundTruthPoint("p1", GeoPoint(-90.88123456789, 32.901),
                         FemaCategory.DESTROYED),
        GroundTruthPoint("p2", GeoPoint(0.1, -0.2),
                         FemaCategory.NO_VISIBLE_DAMAGE),
    ]
    text = write_truth_csv(points)
    assert text.splitlines()[0] == "point_id,lon,lat,category"
    assert parse_truth_csv(text) == points


def test_truth_csv_error_paths():
    with pytest.raises(ParseError) as err:
        parse_truth_csv("wrong,header\n", source="t.csv")
    assert "t.csv:1:" in str(err.value)

    good = "point_id,lon,lat,category\n"
    with pytest.raises(ParseError) as err:
        parse_truth_csv(good + "p1,1.0,2.0\n", source="t.csv")
    assert "t.csv:2:" in str(err.value)

    with pytest.raises(UnknownCategory):
        parse_truth_csv(good + "p1,1.0,2.0,obliterated\n")


@pytest.mark.parametrize("label", ["de\u017ftroyed", "m\u0131nor_damage"])
def test_csv_category_labels_fold_case_in_ascii_only(label):
    truth = "point_id,lon,lat,category\np1,1.0,2.0,Destroyed\np2,1.0,2.0,{}\n"
    assert parse_truth_csv(truth.format("DESTROYED")).category.tolist() == [4, 4]
    with pytest.raises(UnknownCategory, match=f"^t.csv:3: unknown damage category {label!r}$"):
        parse_truth_csv(truth.format(label), source="t.csv")
    oracle = "footprint_id,category\nb1,{}\nb2,MINOR_damage\n"
    assert parse_oracle_csv(oracle.format("Affected")) == {
        "b1": FemaCategory.AFFECTED, "b2": FemaCategory.MINOR_DAMAGE}
    with pytest.raises(UnknownCategory, match=f"^o.csv:2: unknown damage category {label!r}$"):
        parse_oracle_csv(oracle.format(label), source="o.csv")


@pytest.mark.parametrize("parse, text, message", [
    (parse_truth_csv, "point_id,lon,lat,category\n\np1,1.0,2.0,a,b\n",
     "expected 4 fields, got 5"),
    (parse_matches_csv, "point_id,footprint_id,distance_m\n\np1,b1\n",
     "expected 3 fields, got 2"),
    (parse_oracle_csv, "footprint_id,category\n\nb1\n",
     "expected 2 fields, got 1"),
    (parse_curve_csv, "theta,precision,recall\n\n0.0,1.0,1.0,9\n",
     "expected 3 fields, got 4"),
], ids=["truth", "matches", "oracle", "curve"])
def test_csv_rows_must_have_one_field_per_header_column(parse, text, message):
    # The blank line 2 is skipped; the short or long row is line 3.
    with pytest.raises(ParseError, match=message) as err:
        parse(text, source="x.csv")
    assert "x.csv:3:" in str(err.value)


@pytest.mark.parametrize("parse, text, line", [
    (parse_truth_csv, "point_id,lon,lat,category\np;1,1.0,2.0,affected\n", 2),
    (parse_matches_csv, "point_id,footprint_id,distance_m\np1,,\np 2,,\n", 3),
    (parse_matches_csv, "point_id,footprint_id,distance_m\np1,b.1,0.5\n", 2),
    (parse_oracle_csv, "footprint_id,category\nb1,affected\nb\u00e91,affected\n",
     3),
], ids=["truth-point", "matches-point", "matches-footprint", "oracle"])
def test_csv_readers_enforce_the_id_charset(parse, text, line):
    with pytest.raises(ParseError, match=r"is not in \[A-Za-z0-9_-\]") as err:
        parse(text, source="x.csv")
    assert f"x.csv:{line}:" in str(err.value)


@pytest.mark.parametrize("parse", [parse_footprints_geojson,
                                   parse_assessed_geojson,
                                   parse_estimates_geojson])
@pytest.mark.parametrize("fid", ["a,b", "b 1"])
def test_geojson_readers_enforce_the_id_charset(parse, fid):
    doc = json.loads(ASSESSED_B1)
    doc["features"][0]["id"] = fid
    with pytest.raises(ParseError, match=r"is not in \[A-Za-z0-9_-\]") as err:
        parse(json.dumps(doc), source="f.geojson")
    assert str(err.value).startswith("f.geojson: ")


def test_matches_csv_round_trip_with_unmatched_rows():
    matched = [PointMatch("p1", "b9", 3.25), PointMatch("p3", "b2", 0.0)]
    text = write_matches_csv(["p1", "p2", "p3"], matched, unmatched=["p2"])
    assert text.splitlines()[2] == "p2,,"
    back_matched, back_unmatched = parse_matches_csv(text)
    assert back_matched == matched
    assert back_unmatched == ["p2"]


def test_matches_csv_rejects_unaccounted_points():
    with pytest.raises(ValueError):
        write_matches_csv(["p1"], [], [])


def test_matches_csv_bad_distance_reports_line():
    text = "point_id,footprint_id,distance_m\np1,b1,abc\n"
    with pytest.raises(ParseError) as err:
        parse_matches_csv(text, source="m.csv")
    assert "m.csv:2:" in str(err.value)


@pytest.mark.parametrize("distance", ["nan", "inf", "-inf", "-3", "-1e-300"])
def test_matches_csv_rejects_distances_match_cannot_write(distance):
    text = f"point_id,footprint_id,distance_m\np1,b1,0.0\np2,b1,{distance}\n"
    with pytest.raises(ParseError, match=f"^m.csv:3: bad distance '{distance}'"):
        parse_matches_csv(text, source="m.csv")


def test_matches_csv_accepts_zero_and_finite_distances():
    text = "point_id,footprint_id,distance_m\np1,b1,0.0\np2,b1,-0.0\np3,b1,1e308\n"
    assert [m.distance_m for m in parse_matches_csv(text)[0]] == [0.0, 0.0, 1e308]


def test_oracle_csv_round_trip_preserves_order():
    oracle = {"b2": FemaCategory.MAJOR_DAMAGE, "b1": FemaCategory.AFFECTED}
    back = parse_oracle_csv(write_oracle_csv(oracle))
    assert back == oracle
    assert list(back) == ["b2", "b1"]


def test_curve_csv_round_trip_is_exact():
    curve = PRCurve([100.0, 62.5, 0.0], [1.0, 2.0 / 3.0, 0.41000000000000003],
                    [0.0, 0.5, 1.0])
    assert parse_curve_csv(write_curve_csv(curve)) == curve


def test_curve_csv_writer_matches_the_row_writer():
    """float.__repr__ of the columns' Python floats writes what repr of
    each PRPoint's fields wrote, -0.0, subnormals and exponents included."""
    rng = random.Random(1913)
    values = [0.0, -0.0, 5e-324, 1e-05, 1e-07, 1 / 3, 0.1, 1.0, 2 / 3, 1e16, 1e22]
    values += [rng.random() for _ in range(500)] + [rng.uniform(0, 100) for _ in range(500)]
    curve = PRCurve(values, values[::-1], sorted(values))
    assert write_curve_csv(curve) == write_curve_csv_by_row(curve.points)
    assert write_curve_csv(curve).startswith("theta,precision,recall\n0.0,")
    assert "\n-0.0," in write_curve_csv(curve)


@pytest.mark.parametrize("row", [
    "70.0,nan,7.0", "50.0,0.5,nan", "nan,0.5,0.5", "inf,1.0,0.0",
    "100.5,1.0,0.0", "-1e-300,1.0,1.0", "50.0,1.5,0.5", "50.0,0.5,-0.25",
    "50.0,-inf,0.5", "50.0,0.5,inf"])
def test_curve_csv_rejects_values_a_pr_curve_cannot_hold(row):
    text = f"theta,precision,recall\n100.0,1.0,0.0\n{row}\n"
    with pytest.raises(ParseError, match="^c.csv:3: bad curve row: theta must lie"):
        parse_curve_csv(text, source="c.csv")


def test_curve_csv_accepts_the_closed_ranges():
    text = "theta,precision,recall\n100,1,0\n0.0,0.0,1.0\n-0.0,1e-300,0.5\n"
    curve = parse_curve_csv(text)
    assert [tuple(vars(p).values()) for p in curve.points] == \
        [(100.0, 1.0, 0.0), (0.0, 0.0, 1.0), (-0.0, 1e-300, 0.5)]
    assert math.copysign(1.0, curve.theta[2]) == -1.0


def test_curve_csv_without_data_rows_is_an_error():
    with pytest.raises(ParseError, match="no data rows"):
        parse_curve_csv("theta,precision,recall\n")


# --------------------------------------------------------------- report

def test_report_json_serialisation_is_canonical():
    curve = PRCurve([0.0], [0.5], [1.0])
    report = ValidationReport(n_samples=4, n_positive=2, scheme="major_plus",
                              precision0=0.5, recall0=1.0,
                              average_precision=5.0 / 6.0, curve=curve)
    expected = (
        '{\n'
        '  "n_samples": 4,\n'
        '  "n_positive": 2,\n'
        '  "scheme": "major_plus",\n'
        '  "precision0": 0.5,\n'
        '  "recall0": 1.0,\n'
        '  "average_precision": 0.8333333333333334\n'
        '}\n'
    )
    assert write_report_json(report) == expected


# ------------------------------------------------------------ text files

@pytest.fixture(scope="module")
def text_file(tmp_path_factory):
    return tmp_path_factory.mktemp("texts") / "t.txt"


@settings(max_examples=200)
@given(raw=st.lists(st.sampled_from([b"a", b"\n", b"\r", b"\r\n", "é".encode(),
                                     "€".encode(), b"\xff", b"\xe2\x82"])).map(b"".join))
@example(raw=b"a\nb\n")
@example(raw=b"a\r\nb\r\n")
@example(raw=b"a\rb\r")
@example(raw=b"a\r\n\rb\n\r\r\nc")
@example(raw=b"a\r\nb\rc\n\xffd")
@example(raw=b"a\r\r\n\xe2\x82")
def test_read_text_reads_as_a_utf8_text_handle(text_file, raw):
    """LF, CR LF, CR and mixed ends give the text open(path,
    encoding="utf-8").read() gives; a byte that is not UTF-8 gives its error,
    on the line the text before it ends on."""
    text_file.write_bytes(raw)
    try:
        with open(text_file, encoding="utf-8") as handle:
            expected = handle.read()
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        before = io.TextIOWrapper(io.BytesIO(raw[:exc.start]), encoding="utf-8").read()
        with pytest.raises(ParseError) as caught:
            formats.read_text(text_file)
        assert caught.value.line == before.count("\n") + 1
        assert str(caught.value).endswith(f"byte 0x{bad:02x} is not UTF-8 ({exc.reason})")
    else:
        assert formats.read_text(text_file) == expected


@pytest.mark.parametrize("text", [
    "",
    "a\r\nb\rc\n",
    "é€ \U0001F600\x85\r\n",
    ["ncols 1\n", b"0 1\r\n", "", b"", "é,", "€".encode(), b"\r"],
    iter([b"header\n", "body é\n"]),
], ids=["empty", "line-ends", "non-ascii", "mixed-pieces", "a-generator"])
def test_write_text_writes_what_a_utf8_text_handle_wrote(tmp_path, text):
    """A str, or pieces of str and UTF-8 bytes, with the bytes a text handle
    with newline="" wrote for the same text; bytes pieces go as they are."""
    pieces = [text] if isinstance(text, str) else list(text)
    with open(tmp_path / "expected", "w", encoding="utf-8", newline="") as handle:
        handle.writelines(p if isinstance(p, str) else p.decode() for p in pieces)
    formats.write_text(tmp_path / "got", text if isinstance(text, str) else iter(pieces))
    assert (tmp_path / "got").read_bytes() == (tmp_path / "expected").read_bytes()
