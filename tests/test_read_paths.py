"""The readers' column paths: the CSV columns cut by one split, ring counts
from separator offsets, and whole-column checks for the assessed counts and
the join. Each must read as its per-line or per-row reference does, and must
be the path that runs on well-formed input."""

import contextlib
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import columns_by_line, join_samples_by_row
from damagekit import formats, truth
from damagekit.columns import Columns
from damagekit.errors import DuplicateFootprintId, DuplicatePointId, MissingEstimate, ParseError
from damagekit.formats import (parse_assessed_geojson, parse_curve_csv,
                               parse_footprints_with_properties, parse_matches_csv,
                               parse_oracle_csv, parse_truth_csv, write_assessed_geojson,
                               write_curve_csv, write_footprints_geojson, write_matches_csv,
                               write_oracle_csv, write_truth_csv)
from damagekit.geom import GeoPoint, footprint_of
from damagekit.metrics import PRCurve
from damagekit.truth import MAJOR_PLUS, FemaCategory, GroundTruthPoint, PointMatch, join_samples
from damagekit.zonal import DamageEstimate
from test_golden import OUTPUT_DIGESTS, run_schemes
from test_readers import estimate_of, rectangles

# ------------------------------------------- CSV columns against the reference

# Per reader: its header and, per column, field texts it accepts, then ones it refuses.
CSV_FIELDS = {
    parse_truth_csv: (formats.TRUTH_HEADER, [
        (["p1", "p_2", "b-3", "P4"], ["p 5", "", "p;6", "é7"]),
        (["-90.88", "0", " 1e-3", "180", "-180.0", "-0.0"], ["180.5", "nan", "x", ""]),
        (["32.9", "-0.0", "90", "1E1\t"], ["91", "inf", "--1", ""]),
        (["destroyed", "Affected", "MINOR_DAMAGE", "no_visible_damage", "major_damage"],
         ["vaporized", "deſtroyed", "mınor_damage", "", " destroyed"])]),
    parse_matches_csv: (formats.MATCH_HEADER, [
        (["p1", "p_2", "b-3"], ["p 4", "", "p.5"]),
        (["b1", "b_2"], ["b.3", "b 4", ""]),
        (["0.0", "3.25", "1e308", "-0.0"], ["-1", "nan", "inf", "x", ""])]),
    parse_oracle_csv: (formats.ORACLE_HEADER, [
        (["b1", "b_2", "B-3"], ["b 4", "", "b:5"]),
        (["destroyed", "AFFECTED", "Minor_Damage", "no_visible_damage"],
         ["vaporized", "deſtroyed", "", "destroyed "])]),
    parse_curve_csv: (formats.CURVE_HEADER, [
        (["100.0", "0", "50.5", "-0.0", "1e1"], ["101", "x", "", "nan"]),
        (["1.0", "0.5", "0", "1e-300"], ["1.5", "-1", "inf"]),
        (["0.0", "1", "0.25"], ["1.0000001", "-inf", "0x1"])]),
}
BLANKS = ["", " ", "\t", " \t "]
ENDS = ["\n", "\r\n", "\r"]


@st.composite
def csv_texts(draw, parse):
    """A CSV text for parse: rows of accepted fields (some of them unmatched
    matches rows, both fields empty) with up to two refused ones, maybe a
    row of one field too many or too few, blank and whitespace-only lines
    anywhere, and LF, CR LF or CR line ends, with or without a final one."""
    header, columns = CSV_FIELDS[parse]
    rows = [[draw(st.sampled_from(good)) for good, _ in columns]
            for _ in range(draw(st.integers(0, 6)))]
    for row in rows:
        if parse is parse_matches_csv and draw(st.integers(0, 3)) == 0:
            row[1:] = ["", ""]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if rows else 0):
        row, k = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(columns) - 1))
        rows[row][k] = draw(st.sampled_from(columns[k][1]))
    if rows and draw(st.integers(0, 4)) == 0:
        row = draw(st.sampled_from(rows))
        row.append("1") if draw(st.booleans()) else row.pop()
    lines = [draw(st.sampled_from([header] * 8 + [header + " ", "x," + header])),
             *map(",".join, rows)]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BLANKS)))
    ends = [draw(st.sampled_from(ENDS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text[:-len(ends[-1])]


def plain(value):
    """A reader's result as plain values to compare: each column's dtype and
    values (float bits included), in order."""
    if isinstance(value, Columns):
        return type(value), [(column.dtype.str, column.tolist() if column.dtype == object
                              else column.tobytes())
                             for column in (getattr(value, name) for name in value.columns)]
    if isinstance(value, dict):
        return [(key, type(category), int(category)) for key, category in value.items()]
    if isinstance(value, tuple):
        return tuple(map(plain, value))
    return value


def outcome(parse, text):
    """plain of the result, or the ParseError's type, text and line."""
    try:
        return plain(parse(text, source="s.csv"))
    except ParseError as exc:
        return type(exc), str(exc), exc.line


def check_against_the_reference(parse, text):
    with mock.patch.object(formats, "_columns", columns_by_line):
        expected = outcome(parse, text)
    assert outcome(parse, text) == expected
    return expected


@pytest.mark.parametrize("parse", CSV_FIELDS, ids=lambda parse: parse.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_the_csv_readers_read_as_the_per_line_reference(parse, data):
    check_against_the_reference(parse, data.draw(csv_texts(parse)))


@pytest.mark.parametrize("parse", CSV_FIELDS, ids=lambda parse: parse.__name__)
@pytest.mark.parametrize("body, fields, line", [
    ("", None, None), ("\n", None, None), ("\r\n", None, None), ("\r", None, None),
    ("\n \n{row}\r\n\t\r{row}", None, None),  # blank lines, each line end, no final one
    ("\n{row}\n{row},1\n", +1, 3),
    ("\r{row}\r\r{short}\r", -1, 4),
], ids=["header-only", "header-LF", "header-CRLF", "header-CR", "blank-lines", "long-row",
        "short-row"])
def test_the_csv_readers_agree_on_the_edge_texts(parse, body, fields, line):
    header, columns = CSV_FIELDS[parse]
    row = ",".join(good[0] for good, _ in columns)
    text = header + body.format(row=row, short=row.rpartition(",")[0])
    got = check_against_the_reference(parse, text)
    if fields is not None:
        message = f"s.csv:{line}: expected {len(columns)} fields, got {len(columns) + fields}"
        assert got == (ParseError, message, line)
    elif parse is parse_curve_csv and "{row}" not in body:
        assert got == (ParseError, "s.csv:1: curve has no data rows", 1)
    else:
        assert not (got and got[0] is ParseError)


# ------------------------------------------------------ the fast paths run

@contextlib.contextmanager
def fast_paths_only():
    """Every fault path of the read path raises: the row loop of _columns,
    the per-feature loop of parse_assessed_geojson (the only caller of
    _valid_counts with scalars), join_samples' ordered checks (its only calls
    of check_unique) and the general GeoJSON path (the only caller of
    parse_json)."""
    def refused(what):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{what} ran")
        return refuse

    valid_counts = formats._valid_counts

    def arrays_only(n_inside, n_damaged):
        if not isinstance(n_inside, np.ndarray):
            raise AssertionError("the per-feature loop of parse_assessed_geojson ran")
        return valid_counts(n_inside, n_damaged)

    with mock.patch.object(formats, "_first_bad_row", refused("the row loop of _columns")), \
            mock.patch.object(formats, "_valid_counts", arrays_only), \
            mock.patch.object(truth, "check_unique", refused("join_samples' ordered checks")), \
            mock.patch.object(formats, "parse_json", refused("the general GeoJSON path")):
        yield


ids = st.from_regex(r"[A-Za-z0-9_-]{1,6}", fullmatch=True)


@settings(max_examples=40, deadline=None)
@given(footprints=st.lists(rectangles(), min_size=1, max_size=4, unique_by=lambda fp: fp.id),
       counts=st.lists(st.tuples(st.integers(0, 2**53), st.integers(0, 2**53),
                                 st.booleans()), min_size=4, max_size=4),
       points=st.lists(st.builds(GroundTruthPoint, ids,
                                 st.builds(GeoPoint, st.floats(-180, 180), st.floats(-90, 90)),
                                 st.sampled_from(FemaCategory)),
                       max_size=5, unique_by=lambda p: p.id),
       distances=st.lists(st.one_of(st.none(), st.floats(0.0, 1e9)), min_size=5, max_size=5),
       curve=st.lists(st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 1.0),
                                st.floats(0.0, 1.0)), min_size=1, max_size=4))
def test_every_writers_text_reads_back_by_the_fast_paths(footprints, counts, points,
                                                         distances, curve):
    estimates = [estimate_of(fp.id, max(a, b), min(a, b), flag)
                 for fp, (a, b, flag) in zip(footprints, counts)]
    matched = [PointMatch(p.id, fp.id, d) for p, fp, d in
               zip(points, footprints * 2, distances) if d is not None]
    unmatched = [p.id for p in points if p.id not in {m.point_id for m in matched}]
    oracle = {fp.id: FemaCategory(k % 5) for k, fp in enumerate(footprints)}
    curve = PRCurve(*zip(*curve))
    texts = [write_footprints_geojson(footprints),
             write_assessed_geojson(footprints, estimates), write_truth_csv(points),
             write_matches_csv([p.id for p in points], matched, unmatched),
             write_oracle_csv(oracle), write_curve_csv(curve)]
    with fast_paths_only():
        assert parse_footprints_with_properties(texts[0])[0] == footprints
        assert parse_assessed_geojson(texts[1]) == (footprints, estimates)
        assert parse_truth_csv(texts[2]) == points
        assert parse_matches_csv(texts[3]) == (matched, unmatched)
        assert parse_oracle_csv(texts[4]) == oracle
        assert parse_curve_csv(texts[5]) == curve
        assert join_samples(matched, estimates, points, MAJOR_PLUS) == join_samples_by_row(
            matched, estimates, points, MAJOR_PLUS)
    # The patches refuse a fault path: a fault still reaches it.
    with fast_paths_only(), pytest.raises(AssertionError, match="row loop"):
        parse_truth_csv(texts[2] + "p,1,2,vaporized\n")


def test_validate_runs_on_the_golden_inputs_by_the_fast_paths(tmp_path):
    with fast_paths_only():
        digests = run_schemes(tmp_path)
    assert {name: digests[name] for name in OUTPUT_DIGESTS} == OUTPUT_DIGESTS


# --------------------------------------------- ring counts from offsets

def square(cx, cy, half):
    """A closed counter-clockwise square ring as (lon, lat) pairs."""
    return [(cx + dx * half, cy + dy * half)
            for dx, dy in [(-1, -1), (1, -1), (1, 1), (-1, 1), (-1, -1)]]


def holed_footprints(holes):
    """One footprint per entry, a square with that many square holes inside."""
    return [footprint_of(f"f{k}", [square(k * 1e-2, 1.0, 4e-4),
                                   *(square(k * 1e-2 + c, 1.0, 5e-5)
                                     for c in (-2e-4, 0.0, 2e-4)[:n])])
            for k, n in enumerate(holes)]


def collection(text, templated):
    """parse_footprints_with_properties of text by the template path or the
    general path alone, as plain values."""
    path = formats._templated if templated else (lambda text: None)
    with mock.patch.object(formats, "_templated", path):
        fps, properties = parse_footprints_with_properties(text)
    return (fps.ids.tolist(), fps.coords.tobytes(), fps.ring_offsets.tolist(),
            fps.geom_offsets.tolist(), fps.bounds.tobytes(), properties)


@example(holes=[2])  # one feature, holed
@example(holes=[0])
@example(holes=[3, 0, 0])  # holed first
@example(holes=[0, 0, 1])  # holed last
@example(holes=[1, 0, 2, 0, 3, 3, 0])
@settings(max_examples=60, deadline=None)
@given(holes=st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_ring_counts_from_separator_offsets_match_the_general_path(holes):
    fps = holed_footprints(holes)
    estimates = [DamageEstimate(fp.id, 50.0, 2, 1) for fp in fps]
    for text in (write_footprints_geojson(fps), write_assessed_geojson(fps, estimates)):
        assert formats._templated(text)[3].tolist() == [n + 1 for n in holes]
        assert collection(text, True) == collection(text, False)
        assert [len(fp.holes) for fp in parse_footprints_with_properties(text)[0]] == holes


# ------------------------------------------------ the join's first fault

@pytest.mark.parametrize("matched, extra_estimate, extra_point, error, message", [
    # A duplicate estimate id and a missing estimate, in either row order.
    ([("p1", "b9"), ("p2", "b1")], "b1", None, DuplicateFootprintId,
     "duplicate footprint id 'b1'"),
    ([("p1", "b1"), ("p2", "b9")], "b2", None, DuplicateFootprintId,
     "duplicate footprint id 'b2'"),
    # A missing point and a duplicate matched point, in either row order.
    ([("p9", "b1"), ("p1", "b2"), ("p1", "b1")], None, None, DuplicatePointId,
     "duplicate matched point id 'p1'"),
    ([("p1", "b1"), ("p1", "b2"), ("p9", "b1")], None, None, DuplicatePointId,
     "duplicate matched point id 'p1'"),
    # A duplicate point, alone and with a missing estimate; both ids of one match missing.
    ([("p1", "b1")], None, "p2", DuplicatePointId, "duplicate point id 'p2'"),
    ([("p1", "b9")], None, "p2", DuplicatePointId, "duplicate point id 'p2'"),
    ([("p9", "b9")], None, None, MissingEstimate,
     "no damage estimate for matched footprint 'b9'"),
], ids=["dup-estimate+missing-first", "dup-estimate+missing-last", "missing-point-first",
        "missing-point-last", "dup-point", "dup-point+missing-estimate", "missing-both"])
def test_the_join_raises_the_first_fault_of_two(matched, extra_estimate, extra_point,
                                                error, message):
    estimates = [DamageEstimate("b1", 25.0, 4, 1), DamageEstimate("b2", 0.0, 3, 0)]
    points = [GroundTruthPoint("p1", GeoPoint(0.0, 0.0), FemaCategory.DESTROYED),
              GroundTruthPoint("p2", GeoPoint(0.0, 0.1), FemaCategory.AFFECTED)]
    if extra_estimate is not None:
        estimates.append(DamageEstimate(extra_estimate, 1.0, 1, 0))
    if extra_point is not None:
        points.append(GroundTruthPoint(extra_point, GeoPoint(1.0, 1.0), FemaCategory.AFFECTED))
    matched = [PointMatch(pid, fid, 0.0) for pid, fid in matched]
    for join in (join_samples, join_samples_by_row):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            join(matched, estimates, points, MAJOR_PLUS)
