"""The column readers against their row-by-row references in tests/_oracles.py:
the same result, or the same error type, text and line, on mutated valid
text; the columnar join against the row-by-row join; the CSV line ends;
exact count checks in the assessed-properties reader; and the sequence
protocol that every collection shares with its base, damagekit.columns."""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (estimates_one_by_one, join_samples_by_row,
                      parse_curve_csv_by_row, parse_estimates_geojson, parse_matches_csv_by_row,
                      parse_oracle_csv_by_row, parse_truth_csv_by_row, square_footprint)
from damagekit.errors import DamageKitError, ParseError, UnknownCategory
from damagekit.formats import (parse_assessed_geojson, parse_curve_csv, parse_matches_csv,
                               parse_oracle_csv, parse_truth_csv, write_assessed_geojson)
from damagekit.geom import GeoPoint
from damagekit.metrics import PRCurve
from damagekit.truth import (MAJOR_PLUS, FemaCategory, GroundTruthPoint, PointMatch, PointMatches,
                             join_samples)
from damagekit.zonal import DamageEstimate, DamageEstimates

from test_readers import PIECES

# Each reader's valid text has several rows, so a mutated text can hold
# faults in more than one row and column.
VALID_CSV = {
    parse_truth_csv: ("point_id,lon,lat,category\np1,-90.88,32.9,destroyed\n"
                      "p_2,-90.87,32.91,affected\np-3,0.5,-0.25,no_visible_damage\n"
                      "p4,180.0,-90.0,major_damage\n"),
    parse_matches_csv: ("point_id,footprint_id,distance_m\np1,b1,0.5\np_2,,\n"
                        "p-3,b-2,0.0\np4,b1,12.25\n"),
    parse_oracle_csv: "footprint_id,category\nb1,minor_damage\nb-2,destroyed\nb_3,affected\n",
    parse_curve_csv: "theta,precision,recall\n100.0,1.0,0.0\n50.0,0.75,0.5\n0.0,0.5,1.0\n",
}
REFERENCE = {parse_truth_csv: parse_truth_csv_by_row,
             parse_matches_csv: parse_matches_csv_by_row,
             parse_oracle_csv: parse_oracle_csv_by_row,
             parse_curve_csv: parse_curve_csv_by_row}

# Spellings that float(), the id rule or the category lookup read in a way
# a column pass could get wrong; "" is an empty id or an empty matches field.
SPELLINGS = ["1_0", "٢", " 1.0", "infinity", "0x1p3", "nan", "1e400", "Destroyed",
             "DESTROYED", "ß", "", "-0.0", "1e-400", "+1", "1 "]
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
FIELD = re.compile(r"[^,\r\n]+")


def outcome(parse, text):
    """parse's result, or its error's type, text and line."""
    try:
        return parse(text, source="in.csv")
    except ParseError as exc:
        return type(exc), str(exc), exc.line


@st.composite
def edits(draw, text):
    """text after one to four edits: a field replaced by a spelling or a
    piece, or a piece or line break spliced in over zero to two characters."""
    for _ in range(draw(st.integers(1, 4))):
        piece = draw(st.sampled_from(SPELLINGS + LINE_BREAKS + PIECES))
        fields = list(FIELD.finditer(text))
        if fields and draw(st.booleans()):
            field = draw(st.sampled_from(fields))
            text = text[:field.start()] + piece + text[field.end():]
        else:
            at = draw(st.integers(0, len(text)))
            text = text[:at] + piece + text[at + draw(st.integers(0, 2)):]
    return text


@pytest.mark.parametrize("parse", VALID_CSV, ids=lambda parse: parse.__name__)
@settings(max_examples=300)
@given(data=st.data())
def test_csv_readers_agree_with_their_references_on_mutated_text(parse, data):
    text = data.draw(edits(VALID_CSV[parse]))
    assert outcome(parse, text) == outcome(REFERENCE[parse], text)


@pytest.mark.parametrize("parse", VALID_CSV, ids=lambda parse: parse.__name__)
@pytest.mark.parametrize("spelling", SPELLINGS)
def test_every_field_of_every_row_reads_each_spelling_as_the_reference(parse, spelling):
    text = VALID_CSV[parse]
    for field in FIELD.finditer(text):
        if field.start() < text.index("\n"):
            continue  # the header
        changed = text[:field.start()] + spelling + text[field.end():]
        assert outcome(parse, changed) == outcome(REFERENCE[parse], changed), changed


def test_a_matches_row_with_one_empty_field_is_a_faulty_matched_row():
    header = "point_id,footprint_id,distance_m\np0,b1,1.0\n"
    for row, message in [("p1,,0.5", "id '' is not in"), ("p1,b1,", "bad distance ''"),
                         ("p1,,", None)]:
        text = header + row + "\n"
        assert outcome(parse_matches_csv, text) == outcome(parse_matches_csv_by_row, text)
        if message is None:
            assert parse_matches_csv(text)[1] == ["p1"]
        else:
            with pytest.raises(ParseError, match=f"^in.csv:3: {re.escape(message)}"):
                parse_matches_csv(text, source="in.csv")


def test_truth_and_match_columns_are_what_the_object_readers_hold():
    text = VALID_CSV[parse_truth_csv]
    points, rows = parse_truth_csv(text), parse_truth_csv_by_row(text)
    assert points.id.tolist() == [p.id for p in rows]
    assert points.category.tolist() == [p.category for p in rows]
    assert ((points.lon.tolist(), points.lat.tolist())
            == ([p.location.lon for p in rows], [p.location.lat for p in rows]))
    matched, unmatched = parse_matches_csv(VALID_CSV[parse_matches_csv])
    columns = zip(*(column.tolist() for column in (
        matched.point_id, matched.footprint_id, matched.distance_m)))
    assert (list(columns), unmatched) == parse_matches_csv_by_row(VALID_CSV[parse_matches_csv])
    assert unmatched == ["p_2"]


# ------------------------------------------------------------- line ends

@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_csv_lines_end_only_at_lf_crlf_and_cr(brk):
    # str.splitlines() also breaks at these; a row holding one is one row.
    good = "point_id,lon,lat,category\n"
    with pytest.raises(UnknownCategory, match=r"^t\.csv:2: unknown damage category") as err:
        parse_truth_csv(good + f"p1,1.0,2.0,affected{brk}junk\np2,1.0,2.0,affected\n",
                        source="t.csv")
    assert err.value.line == 2
    with pytest.raises(UnknownCategory, match=r"^t\.csv:2: "):
        parse_truth_csv(good + f"p1,1.0,2.0,affected{brk}\n", source="t.csv")
    with pytest.raises(ParseError, match=r"^m\.csv:3: expected 3 fields, got 5$"):
        parse_matches_csv(f"point_id,footprint_id,distance_m\np0,,\np1,b1,0.5{brk}p2,b1,0.5\n",
                          source="m.csv")
    with pytest.raises(ParseError, match=r"^c\.csv:2: bad curve row$"):
        parse_curve_csv(f"theta,precision,recall\n1.0,0.5,0.5{brk}9\n", source="c.csv")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_csv_readers_accept_each_line_end(end):
    for parse, text in VALID_CSV.items():
        assert parse(text.replace("\n", end)) == parse(text)


# ------------------------------------------------------------ estimates

def assessed(*properties):
    footprints = [square_footprint(f"b{k}", 0.01 * k, 0.0, 1e-3)
                  for k in range(len(properties))]
    doc = json.loads(write_assessed_geojson(
        footprints, [DamageEstimate(fp.id, 0.0, 0, 0) for fp in footprints]))
    for feature, props in zip(doc["features"], properties):
        feature["properties"] = props
    return json.dumps(doc)


def counts(n_inside, n_damaged, supersampled=False, no_coverage=False):
    return {"n_inside": n_inside, "n_damaged": n_damaged,
            "supersampled": supersampled, "no_coverage": no_coverage}


ESTIMATE_READERS = [parse_estimates_geojson, estimates_one_by_one,
                    lambda text, source: parse_assessed_geojson(text, source)[1]]


@pytest.mark.parametrize("n_inside, n_damaged", [
    (2**53 + 1, 0), (2**53 + 1, 2**53 + 1), (2**53, 2**53 + 1), (-1, 0), (4, -1),
    (True, 0), (4, False), (1.0, 0), (4, 1.0), (3, 4), (2**63, 0), (10**400, 1), (None, 0),
])
def test_counts_are_checked_exactly(n_inside, n_damaged):
    # 2**53 + 1 rounds to 2**53 in float64, so only an integer test rejects it.
    text = assessed(counts(4, 1), counts(n_inside, n_damaged))
    errors = set()
    for read in ESTIMATE_READERS:
        with pytest.raises(ParseError) as err:
            read(text, source="a.geojson")
        errors.add(str(err.value))
    assert errors == {"a.geojson: feature 'b1' lacks assessment properties (integer counts "
                      "0 <= n_damaged <= n_inside <= 2**53, boolean flags)"}


def test_counts_up_to_2_to_the_53_give_the_reference_percentages():
    text = assessed(counts(2**53, 2**53 - 1), counts(2**53, 1), counts(3, 1, True),
                    counts(0, 0, False, True), counts(7, 7))
    expected = estimates_one_by_one(text)
    assert parse_estimates_geojson(text) == expected
    assert parse_estimates_geojson(text).damage_pct.tolist() == [e.damage_pct for e in expected]
    assert [type(e.n_inside) for e in parse_estimates_geojson(text)] == [int] * 5


PROPERTY_VALUES = [0, 1, 4, 7, -1, 2**53, 2**53 + 1, 2**63, True, False, 1.0, 0.5, None,
                   "1", [1]]


@settings(max_examples=200)
@given(st.lists(st.dictionaries(
    st.sampled_from(["n_inside", "n_damaged", "supersampled", "no_coverage"]),
    st.sampled_from(PROPERTY_VALUES)), min_size=1, max_size=4))
@example([counts(4, 1), counts(2**53 + 1, 0), counts(-1, 0)])
def test_estimate_reader_agrees_with_its_reference(properties):
    text = assessed(*properties)
    first, *others = (outcome(read, text) for read in ESTIMATE_READERS)
    assert all(other == first for other in others)


# ---------------------------------------------------------------- joins

small_ids = st.sampled_from(["a", "b", "c", "d"])


@settings(max_examples=300)
@given(matched=st.lists(st.tuples(small_ids, small_ids, st.floats(0.0, 50.0)), max_size=5),
       estimates=st.lists(st.tuples(small_ids, st.floats(0.0, 100.0)), max_size=5),
       points=st.lists(st.tuples(small_ids, st.sampled_from(FemaCategory)), max_size=5))
def test_column_join_agrees_with_the_object_join(matched, estimates, points):
    by_row = ([PointMatch(*m) for m in matched],
              [DamageEstimate(fid, pct, 0, 0) for fid, pct in estimates],
              [GroundTruthPoint(pid, GeoPoint(0.0, 0.0), c) for pid, c in points])
    try:
        expected = join_samples_by_row(*by_row, MAJOR_PLUS)
    except DamageKitError as exc:
        with pytest.raises(type(exc)) as err:
            join_samples(*by_row, MAJOR_PLUS)
        assert str(err.value) == str(exc)
    else:
        samples = join_samples(*by_row, MAJOR_PLUS)
        assert samples == expected
        assert [type(s.label) for s in samples] == [int] * len(samples)


# ------------------------------------------------- the collection protocol

def collections():
    """One of each collection between stages, three rows long, each row
    different, built as the pipeline builds it."""
    points = parse_truth_csv(VALID_CSV[parse_truth_csv])
    matches = parse_matches_csv(VALID_CSV[parse_matches_csv])[0]
    estimates = DamageEstimates.counted(["b1", "b-2", "b_3"], [4, 0, 7], [1, 0, 7],
                                        [True, False, False], [False, True, False])
    return {"GroundTruthPoints": points[:3], "PointMatches": matches,
            "DamageEstimates": estimates,
            "MatchedSamples": join_samples(matches, estimates, points, MAJOR_PLUS),
            "PRCurve": parse_curve_csv(VALID_CSV[parse_curve_csv])}


def row_values(row):
    """A row's field values, a truth point's location as its lon and lat."""
    values = list(row) if isinstance(row, tuple) else list(vars(row).values())
    return [v for value in values
            for v in (vars(value).values() if isinstance(value, GeoPoint) else [value])]


@pytest.mark.parametrize("name", ["GroundTruthPoints", "PointMatches", "DamageEstimates",
                                  "MatchedSamples", "PRCurve"])
def test_every_collection_keeps_the_shared_protocol(name):
    c = collections()[name]
    rows = list(c)
    assert len(c) == len(rows) == 3 and len(set(map(repr, rows))) == 3
    plain = {str, float, int, bool, FemaCategory}  # never a numpy scalar
    for column in c.columns:
        array = getattr(c, column)
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]
        assert {type(array.item(i)) for i in range(3)} <= plain, column
    with pytest.raises(AttributeError, match="read-only"):
        c.columns = {}
    assert all({type(v) for v in row_values(row)} <= plain for row in rows)
    assert c[-1] == rows[2] and c[-3] == rows[0]
    for index in (3, -4):
        with pytest.raises(IndexError):
            c[index]
    for part in (slice(1, None), slice(None, None, -1), slice(0, 0)):
        assert type(c[part]) is type(c) and c[part] == rows[part] and list(c[part]) == rows[part]
    assert type(c).of(rows) == c and type(c).of(c) is c
    assert c == rows and rows == c and c == tuple(rows) and tuple(rows) == c
    assert c != rows[::-1] and rows[:2] != c and c != type(c).of(rows[1:])
    assert c != [1, 2, 3] and c != "abc" and c != PRCurve([], [], []) != PointMatches([], [], [])
