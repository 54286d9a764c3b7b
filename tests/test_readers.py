"""Property tests over every file reader: mutated input ends in a ParseError
or a result, never in another exception, and each writer's text reads back
to what was written."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import parse_estimates_geojson, parse_footprints_one_by_one, square_footprint
from damagekit import formats
from damagekit.errors import ParseError
from damagekit.formats import (parse_assessed_geojson, parse_curve_csv,
                               parse_footprints_geojson,
                               parse_footprints_with_properties, parse_matches_csv,
                               parse_oracle_csv, parse_truth_csv,
                               write_assessed_geojson, write_curve_csv,
                               write_footprints_geojson, write_matches_csv,
                               write_oracle_csv, write_truth_csv)
from damagekit.geom import Footprint, FootprintArray, GeoPoint, Ring, footprint_of
from damagekit.metrics import PRCurve
from damagekit.raster import ClassRaster, parse_ascii_grid, write_ascii_grid
from damagekit.truth import FemaCategory, GroundTruthPoint, PointMatch
from damagekit.zonal import DamageEstimate

FOOTPRINTS = [square_footprint("b1", -90.88, 32.9, 1e-4),
              square_footprint("b-2", -90.87, 32.9, 2e-4, hole_half=5e-5)]
ESTIMATES = [DamageEstimate("b1", 25.0, 4, 1),
             DamageEstimate("b-2", 0.0, 0, 0, no_coverage=True)]
POINTS = [GroundTruthPoint("p1", GeoPoint(-90.88, 32.9), FemaCategory.DESTROYED),
          GroundTruthPoint("p_2", GeoPoint(-90.87, 32.91), FemaCategory.AFFECTED)]
GRID = ClassRaster(ncols=3, nrows=2, xll=-90.881, yll=32.899, cellsize=0.001,
                   nodata=-9999, cells=np.array([[0, 1, 2], [-9999, 1, 0]]))

VALID_TEXTS = {
    parse_ascii_grid: write_ascii_grid(GRID),
    parse_footprints_with_properties: write_footprints_geojson(FOOTPRINTS),
    parse_assessed_geojson: write_assessed_geojson(FOOTPRINTS, ESTIMATES),
    parse_estimates_geojson: write_assessed_geojson(FOOTPRINTS, ESTIMATES),
    parse_truth_csv: write_truth_csv(POINTS),
    parse_matches_csv: write_matches_csv(["p1", "p_2"], [PointMatch("p1", "b1", 0.5)],
                                         ["p_2"]),
    parse_oracle_csv: write_oracle_csv({"b1": FemaCategory.MINOR_DAMAGE}),
    parse_curve_csv: write_curve_csv(PRCurve([100.0, 0.0], [1.0, 0.5], [0.0, 1.0])),
}

# Pieces that break a token, a row, a number's range or a document's shape.
PIECES = ["", "0", "1", "-", "-1", ".", ",", ",,", "\n", "\r", "\t", " ", '"', "[", "]",
          "{", "}", ":", "e999", "1e-400", "NaN", "Infinity", "true", "null", "x",
          "٢", "\xa0", "\x00", "180.5", "91", '"id"', "b1", "destroyed",
          "0" * 400, "9" * 5000]


TOKEN = re.compile(r'-?[0-9.]+(?:e-?[0-9]+)?|"[^"\n]*"|[A-Za-z_]+')


@st.composite
def mutations(draw, text):
    """text after one to four edits: a piece spliced in over zero to three
    characters, a slice of text copied to another place, or a token (number,
    string or word) replaced by a piece."""
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["splice", "copy", "token"]))
        piece = draw(st.sampled_from(PIECES))
        tokens = list(TOKEN.finditer(text))
        if kind == "token" and tokens:
            token = draw(st.sampled_from(tokens))
            text = text[:token.start()] + piece + text[token.end():]
            continue
        at = draw(st.integers(0, len(text)))
        if kind == "copy":
            start = draw(st.integers(0, len(text)))
            piece = text[start:start + draw(st.integers(1, 80))]
        text = text[:at] + piece + text[at + draw(st.integers(0, 3)):]
    return text


GEOJSON_READERS = [parse_footprints_with_properties, parse_assessed_geojson,
                   parse_estimates_geojson, parse_footprints_one_by_one]


@pytest.mark.parametrize("parse", GEOJSON_READERS, ids=lambda parse: parse.__name__)
@pytest.mark.parametrize("geometry", ["[1]", "[]", '"Polygon"', "7", "0", "true", "false",
                                      "null", "{}", '{"type":"Point"}'])
def test_a_geometry_that_is_no_polygon_object_is_a_parse_error(parse, geometry):
    text = re.sub(r'"geometry":\{[^{}]*\}', '"geometry":' + geometry,
                  VALID_TEXTS[parse_assessed_geojson], count=1)
    assert text.count('"geometry":' + geometry) == 1
    with pytest.raises(ParseError, match=r"^in: feature 'b1' geometry must be a Polygon$"):
        parse(text, source="in")


@pytest.mark.parametrize("parse", VALID_TEXTS, ids=lambda parse: parse.__name__)
@settings(max_examples=80)
@given(data=st.data())
def test_readers_raise_only_parse_errors_on_mutated_text(parse, data):
    text = data.draw(mutations(VALID_TEXTS[parse]))
    try:
        parse(text, source="in")
    except ParseError as exc:
        assert str(exc).startswith("in:")


ids = st.from_regex(r"[A-Za-z0-9_-]{1,6}", fullmatch=True)
lons, lats = st.floats(-180.0, 180.0), st.floats(-90.0, 90.0)


def rectangle(x0, y0, x1, y1):
    return Ring(tuple(GeoPoint(x, y) for x, y in [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]))


@st.composite
def rectangles(draw):
    """A Footprint with distinct corners (x0, y0)-(x1, y1) and maybe a hole,
    a rectangle with distinct corners in that box."""
    fid = draw(ids)
    (x0, y0), (x1, y1) = draw(st.lists(st.tuples(lons, lats), min_size=2, max_size=2))
    if x0 == x1 or y0 == y1:
        return square_footprint(fid, 0.0, 0.0, 1.0)
    holes = ()
    if draw(st.booleans()):
        (hx0, hx1), (hy0, hy1) = (
            draw(st.lists(st.floats(min(a, b), max(a, b)), min_size=2, max_size=2, unique=True))
            for a, b in [(x0, x1), (y0, y1)])
        holes = (rectangle(hx0, hy0, hx1, hy1),)
    return Footprint(fid, rectangle(x0, y0, x1, y1), holes)


def estimate_of(fid, n_inside, n_damaged, supersampled):
    return DamageEstimate(fid, 100.0 * n_damaged / n_inside if n_inside else 0.0,
                          n_inside, n_damaged, supersampled, n_inside == 0)


@settings(max_examples=40)
@given(footprints=st.lists(rectangles(), max_size=4, unique_by=lambda fp: fp.id),
       counts=st.lists(st.tuples(st.integers(0, 2**53), st.integers(0, 2**53),
                                 st.booleans()), min_size=4, max_size=4),
       points=st.lists(st.builds(GroundTruthPoint, ids, st.builds(GeoPoint, lons, lats),
                                 st.sampled_from(FemaCategory)),
                       max_size=5, unique_by=lambda p: p.id),
       distances=st.lists(st.one_of(st.none(), st.floats(0.0, 1e9)), min_size=5, max_size=5),
       curve=st.lists(st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 1.0),
                                st.floats(0.0, 1.0)), min_size=1, max_size=4).map(
                                    lambda rows: PRCurve(*zip(*rows))))
def test_writers_round_trip_through_their_readers(footprints, counts, points,
                                                  distances, curve):
    assert parse_footprints_geojson(write_footprints_geojson(footprints)) == footprints

    estimates = [estimate_of(fp.id, max(a, b), min(a, b), flag)
                 for fp, (a, b, flag) in zip(footprints, counts)]
    assessed = write_assessed_geojson(footprints, estimates)
    assert parse_assessed_geojson(assessed) == (footprints, estimates)
    assert parse_estimates_geojson(assessed) == estimates

    assert parse_truth_csv(write_truth_csv(points)) == points
    matched = [PointMatch(p.id, fp.id, d) for p, fp, d in
               zip(points, footprints * 2, distances) if d is not None]
    unmatched = [p.id for p in points if p.id not in {m.point_id for m in matched}]
    assert parse_matches_csv(write_matches_csv([p.id for p in points], matched,
                                               unmatched)) == (matched, unmatched)
    oracle = {fp.id: FemaCategory(k % 5) for k, fp in enumerate(footprints)}
    assert parse_oracle_csv(write_oracle_csv(oracle)) == oracle
    assert parse_curve_csv(write_curve_csv(curve)) == curve


# ------------------------------------------------ the GeoJSON template path

def read(text, templated=True):
    """parse_footprints_with_properties of text, by the template path where it
    accepts the text or by the general path alone: the collection's ids,
    coordinate bits, offsets and bounds with the properties' repr, or the
    text of its ParseError."""
    path = formats._templated if templated else (lambda text: None)
    try:
        with mock.patch.object(formats, "_templated", path):
            fps, properties = parse_footprints_with_properties(text, source="in")
    except ParseError as exc:
        return str(exc)
    return (fps.ids.tolist(), fps.coords.tobytes(), fps.ring_offsets.tolist(),
            fps.geom_offsets.tolist(), fps.bounds.tobytes(), repr(properties))


def check_template_path(text):
    """The template path declines text, or its pieces tile the text between
    header and tail one "," apart and it reads as the general path does."""
    if formats._templated(text) is None:
        return False
    body = text[len(formats._HEAD):-len(formats._TAIL)]
    assert text.startswith(formats._HEAD) and text.endswith(formats._TAIL)
    assert body == ",".join(formats._FEATURE % f'"{fid}"' + rings + formats._PROPERTIES % props
                            for fid, rings, props in formats._TEMPLATE.findall(body))
    assert read(text) == read(text, templated=False)
    return True


# Footprint "z" starts and ends at longitude 0.0, written "[0.0," only there.
TEMPLATE_FOOTPRINTS = [*FOOTPRINTS, footprint_of("z", [[(0.0, 1.0), (2.0, 1.0), (2.0, 3.0),
                                                      (0.0, 1.0)]])]
WRITTEN = write_assessed_geojson(
    TEMPLATE_FOOTPRINTS, [*ESTIMATES, DamageEstimate("z", 50.0, 2, 1)],
    [{"name": "a"}, {}, {"name": "\u00e9,:\"", "n": None}])
SPELLINGS = ["-0", "1.", ".5", "01", "+1", "1E5", "NaN", "Infinity", "1e400", "1" + "0" * 319,
             "9" * 5000]
EDGE_TEXTS = [
    *(WRITTEN.replace("[0.0,", f"[{spelling},") for spelling in SPELLINGS),
    " " + WRITTEN,
    WRITTEN.replace('},{"type":"Feature"', '}{"type":"Feature"', 1),
    WRITTEN[:-len(formats._TAIL)] + "," + formats._TAIL,
    WRITTEN.replace('"name":"a"', '"name":"}"'),
    WRITTEN.replace('"name":"a"', '"name":"},{"'),
    WRITTEN.replace("[[[0.0,1.0],[2.0,", "[[[0.0,1.0,2.0],["),  # a triple, then a single
    WRITTEN.replace("[[[0.0,1.0]", "[[[[0.0,1.0]]"),
    WRITTEN.replace("[0.0,1.0]]]", "[0.0,1.0,[2.0,3.0]]]]"),  # a triple with a nested pair
    WRITTEN.replace("]]]},", "]]]]},", 1),
    # The separators' grammar: each text below is one separator or number mutated.
    *(WRITTEN.replace(old, new, 1) for old, new in [
        ("]],[[", "]],["), ("],[", "],[["), ("]],[[", "]]],[[["), ("[[[0.0,1.0", "[[[,1.0"),
        ("],[", "],")]),
    # Two properties texts that json reads as one object: {"k": "},{", "n": 1}.
    formats._HEAD + formats._FEATURE % '"a"' + "0,0],[1,0],[1,1],[0,0"
    + formats._PROPERTIES % '{"k":"}' + "," + formats._FEATURE % '"b"' + "0,0],[1,0],[1,1],[0,0"
    + formats._PROPERTIES % '{","n":1}' + formats._TAIL,
    WRITTEN.replace("[[[0.0,1.0]", "[[[0.0,1.0]],[[0.0,1.0]", 1),  # a one-vertex ring
]


def edge_examples(test):
    for text in EDGE_TEXTS:
        test = example(text=text)(test)
    return test


@edge_examples
@settings(max_examples=300)
@given(text=mutations(WRITTEN))
def test_the_template_path_declines_or_reads_as_the_general_path(text):
    check_template_path(text)


def test_the_template_path_reads_the_edge_spellings_as_json_does():
    accepted = {spelling: check_template_path(text) for spelling, text in
                zip(SPELLINGS, EDGE_TEXTS)}
    assert {s for s, ok in accepted.items() if ok} == {"-0", "1E5", "1e400"}
    fps, _ = parse_footprints_with_properties(EDGE_TEXTS[0])
    assert fps[2].exterior.coords[[0, 3], 0].tobytes() == bytes(16)  # -0 is +0.0
    # Only the one-vertex ring is in the template; footprints_from raises its error.
    assert [check_template_path(text) for text in EDGE_TEXTS[len(SPELLINGS):]] == [
        False] * 15 + [True]
    assert read(EDGE_TEXTS[-1]) == ("in: feature 'z': ring needs at least 4 vertices "
                                    "including closure")
    assert all(isinstance(read(text), str) for text in EDGE_TEXTS[-7:-2])  # a ParseError each
    assert check_template_path(WRITTEN)
    assert not check_template_path(write_footprints_geojson([]))  # the general path reads it


def on_steps(ring, step=2.0**-15, lat0=10.0):
    """A ring of (x, y) steps from (0, lat0), closed here, as (lon, lat) pairs."""
    return [(x * step, lat0 + y * step) for x, y in ring + ring[:1]]


def template_text(features):
    """The writers' layout of (id, rings of (lon, lat) pairs) features."""
    return formats._HEAD + ",".join(
        formats._FEATURE % f'"{fid}"'
        + formats._RING_SEP.join(formats._VERTEX_SEP.join(f"{x!r},{y!r}" for x, y in ring)
                                 for ring in rings)
        + formats._PROPERTIES % "{}" for fid, rings in features) + formats._TAIL


# The first hole lies 28 steps east of the 2x2-step exterior: a point at x 29
# would be 3.34 m from it and 23.39 m from square b, yet the matcher takes a
# footprint's bounds from its exterior alone, so it would give b.
@pytest.mark.parametrize("hole, refused", [
    ([(30, 0), (32, 0), (32, 2), (30, 2)], True),
    ([(1, 1), (3, 1), (3, 2), (1, 2)], True),  # one step past the box
    ([(0, 0), (1, 0), (1, 2), (0, 2)], False),  # on three of the box's edges
    ([(0, 0), (2, 0), (2, 2), (0, 2)], False),  # the exterior itself
])
def test_a_hole_must_lie_within_its_exterior_box_on_every_path(hole, refused):
    rings = [on_steps([(0, 0), (2, 0), (2, 2), (0, 2)]), on_steps(hole)]
    text = template_text([("b", [on_steps([(20, 0), (22, 0), (22, 2), (20, 2)])]), ("a", rings)])
    assert formats._templated(text) is not None
    message = "footprint hole reaches outside its exterior's bounding box"
    if refused:
        with pytest.raises(ValueError, match=f"^{message}$"):
            footprint_of("a", rings)
        assert read(text) == read(text, templated=False) == f"in: feature 'a': {message}"
    else:
        assert footprint_of("a", rings).holes[0].coords.tolist() == [list(v) for v in rings[1]]
        assert read(text) == read(text, templated=False)
        assert read(text)[0] == ["b", "a"]


flat_texts = st.text(alphabet=st.characters(exclude_characters="{}[]"), max_size=6)
flat_properties = st.dictionaries(flat_texts, st.one_of(
    flat_texts, st.integers(), st.floats(allow_nan=False), st.booleans(), st.none()), max_size=3)


@example(footprints=[footprint_of("e", [[(-0.0, 5e-324), (1.0, 5e-324), (1.0, 1.0),
                                          (-0.0, 5e-324)]])],
         properties=[{"s": ',:"\u00e9', "i": -7, "f": -0.0, "t": True, "n": None}] * 4)
@settings(max_examples=60)
@given(footprints=st.lists(rectangles(), min_size=1, max_size=4, unique_by=lambda fp: fp.id),
       properties=st.lists(flat_properties, min_size=4, max_size=4))
def test_the_writers_output_takes_the_template_path(footprints, properties):
    """Holes, any float (-0.0 and 5e-324 too) and flat properties: a template
    that quietly declined would pass every other test and lose the gain. (An
    empty collection is left to the general path.)"""
    estimates = [estimate_of(fp.id, 3, 1, False) for fp in footprints]
    for text in (write_footprints_geojson(footprints),
                 write_assessed_geojson(footprints, estimates, properties[:len(footprints)])):
        assert check_template_path(text)
        assert read(text)[1] == FootprintArray.of(footprints).coords.tobytes()
        assert parse_footprints_geojson(text) == footprints
