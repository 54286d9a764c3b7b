"""ASCII grid parsing/writing, georeferencing, and the failure modes."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from damagekit import formats as formats_module
from damagekit import geom as geom_module
from damagekit import raster as raster_module
from damagekit.errors import (CellCountMismatch, InvalidClassCode,
                              MissingHeaderKey, NonIntegerCell, ParseError)
from damagekit.geom import Footprint, GeoPoint, Ring, _centres, contains, inside_pixels
from damagekit.formats import load_raster, read_text, write_text
from damagekit.raster import (DEFAULT_NODATA, ClassRaster, ascii_grid_blocks,
                              parse_ascii_grid, write_ascii_grid)

from _oracles import square_footprint

FIXTURE = """ncols 4
nrows 3
xllcorner 10.0
yllcorner 20.0
cellsize 0.5
nodata_value -1
0 1 2 0
1 1 2 2
0 0 -1 1
"""


def test_parse_basic_grid():
    raster = parse_ascii_grid(FIXTURE)
    assert raster.ncols == 4
    assert raster.nrows == 3
    assert raster.xll == 10.0
    assert raster.yll == 20.0
    assert raster.cellsize == 0.5
    assert raster.nodata == -1
    assert raster.cells.dtype == np.int8
    assert raster.cells.tolist() == [[0, 1, 2, 0], [1, 1, 2, 2], [0, 0, -1, 1]]


def test_parse_accepts_uppercase_keys_and_blank_lines():
    text = FIXTURE.replace("ncols", "NCOLS").replace("cellsize", "CELLSIZE")
    text = text.replace("nrows 3\n", "nrows 3\n\n")
    raster = parse_ascii_grid(text)
    assert raster.ncols == 4 and raster.nrows == 3


def test_parse_default_nodata_when_header_absent():
    text = FIXTURE.replace("nodata_value -1\n", "")
    raster = parse_ascii_grid(text)
    assert raster.nodata == DEFAULT_NODATA
    assert raster.cells[2, 2] == -1


def test_parse_rejects_misordered_header():
    text = FIXTURE.replace("ncols 4\nnrows 3", "nrows 3\nncols 4")
    with pytest.raises(MissingHeaderKey):
        parse_ascii_grid(text)


def test_parse_rejects_bad_header_values():
    with pytest.raises(MissingHeaderKey):
        parse_ascii_grid(FIXTURE.replace("ncols 4", "ncols four"))
    with pytest.raises(MissingHeaderKey):
        parse_ascii_grid(FIXTURE.replace("cellsize 0.5", "cellsize -2"))
    with pytest.raises(MissingHeaderKey):
        parse_ascii_grid(FIXTURE.replace("nrows 3", "nrows 0"))


@pytest.mark.parametrize("code", [0, 1, 2])
def test_parse_rejects_nodata_that_is_a_class_code(code):
    text = FIXTURE.replace("nodata_value -1", f"nodata_value {code}")
    with pytest.raises(MissingHeaderKey, match="class code") as err:
        parse_ascii_grid(text, source="grid.asc")
    assert "grid.asc:6:" in str(err.value)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key, line", [("xllcorner", 3), ("yllcorner", 4)])
def test_parse_rejects_non_finite_corner(key, line, value):
    lines = FIXTURE.splitlines(keepends=True)
    lines[line - 1] = f"{key} {value}\n"
    with pytest.raises(MissingHeaderKey, match="must be finite") as err:
        parse_ascii_grid("".join(lines), source="grid.asc")
    assert f"grid.asc:{line}:" in str(err.value)


@pytest.mark.parametrize("code", [2**31, 2**32 - 1, 2**63, -2**31 - 1])
def test_parse_rejects_nodata_outside_int32(code):
    text = FIXTURE.replace("-1", str(code))
    with pytest.raises(MissingHeaderKey, match="nodata_value must be in") as err:
        parse_ascii_grid(text, source="grid.asc")
    assert "grid.asc:6:" in str(err.value)


@pytest.mark.parametrize("code", [2**31 - 1, -2**31])
def test_parse_accepts_nodata_at_the_int32_limits(code):
    raster = parse_ascii_grid(FIXTURE.replace("-1", str(code)))
    assert raster.nodata == code
    assert raster.cells[2, 2] == code
    assert write_ascii_grid(raster) == FIXTURE.replace("-1", str(code))


@pytest.mark.parametrize("code, dtype", [
    (-128, np.int8), (-1, np.int8), (127, np.int8),
    (-129, np.int16), (128, np.int16), (200, np.int16), (-32768, np.int16),
    (32768, np.int32), (100000, np.int32), (-2**31, np.int32), (2**31 - 1, np.int32)])
def test_cells_take_the_narrowest_type_that_holds_nodata(code, dtype):
    # Not np.promote_types(np.int8, np.min_scalar_type(code)): that gives
    # int16 for 127 and int64 for 100000 and 2**31 - 1.
    raster = parse_ascii_grid(FIXTURE.replace("-1", str(code)))
    assert raster.cells.dtype == dtype
    assert raster.cells[2, 2] == code


@pytest.mark.parametrize("ncols, nrows", [("100000", "100000"),
                                          (str(2**31 - 1), "1")],
                         ids=["1e5x1e5", "int32-max-ncols"])
def test_parse_huge_declared_size_is_a_cell_count_mismatch(ncols, nrows):
    text = FIXTURE.replace("ncols 4", f"ncols {ncols}").replace(
        "nrows 3", f"nrows {nrows}")
    with pytest.raises(CellCountMismatch, match="expected") as err:
        parse_ascii_grid(text, source="grid.asc")
    assert "grid.asc:9:" in str(err.value)


@pytest.mark.parametrize("ncols, nrows, line", [
    ("1" * 400, "3", 1),
    ("1" * 3000, "1" * 3000, 1),
    (str(2**31), "3", 1),
    ("4", str(2**31), 2),
], ids=["400-digit-ncols", "3000-digit-ncols-nrows", "2**31-ncols",
        "2**31-nrows"])
def test_parse_rejects_declared_size_outside_int32(ncols, nrows, line):
    text = FIXTURE.replace("ncols 4", f"ncols {ncols}").replace(
        "nrows 3", f"nrows {nrows}")
    with pytest.raises(MissingHeaderKey, match=r"must be in \(0, 2\*\*31\)") as err:
        parse_ascii_grid(text, source="grid.asc")
    assert f"grid.asc:{line}:" in str(err.value)


def test_parse_rejects_non_integer_cell():
    bad = FIXTURE.replace("0 1 2 0", "0 1.5 2 0")
    with pytest.raises(NonIntegerCell) as err:
        parse_ascii_grid(bad, source="grid.asc")
    assert "grid.asc:7" in str(err.value)


def test_parse_rejects_cell_count_mismatch():
    with pytest.raises(CellCountMismatch):
        parse_ascii_grid(FIXTURE.replace("0 0 -1 1", "0 0 -1"))
    with pytest.raises(CellCountMismatch):
        parse_ascii_grid(FIXTURE.replace("0 0 -1 1", "0 0 -1 1 2"))
    with pytest.raises(CellCountMismatch):
        parse_ascii_grid(FIXTURE + "2\n")
    # Excess cells are reported at the line that first holds one.
    with pytest.raises(CellCountMismatch, match="more than 12 cells") as err:
        parse_ascii_grid(FIXTURE.replace("1 1 2 2", "1 1 2 2 0 0 0 0 0"),
                         source="grid.asc")
    assert "grid.asc:8:" in str(err.value)


def test_parse_rejects_unknown_class_code():
    with pytest.raises(InvalidClassCode):
        parse_ascii_grid(FIXTURE.replace("1 1 2 2", "1 7 2 2"))


def test_parse_error_reports_source_and_line():
    with pytest.raises(ParseError) as err:
        parse_ascii_grid("ncols x\n", source="broken.asc")
    assert "broken.asc:1" in str(err.value)


def test_class_raster_validates_shape_and_codes():
    with pytest.raises(ValueError):
        ClassRaster(ncols=3, nrows=2, xll=0, yll=0, cellsize=1, nodata=-1,
                    cells=np.zeros((2, 2), dtype=np.int32))
    with pytest.raises(ValueError):
        ClassRaster(ncols=2, nrows=2, xll=0, yll=0, cellsize=1, nodata=-1,
                    cells=np.full((2, 2), 9, dtype=np.int32))
    with pytest.raises(ValueError):
        ClassRaster(ncols=2, nrows=2, xll=0, yll=0, cellsize=1, nodata=-1,
                    cells=np.zeros((2, 2), dtype=np.float64))
    with pytest.raises(ValueError):
        ClassRaster(ncols=2, nrows=2, xll=0, yll=0, cellsize=0.0, nodata=-1,
                    cells=np.zeros((2, 2), dtype=np.int32))
    # The first bad cell is named, whatever the dtype.
    for dtype, value in [(np.int32, 3), (np.int32, -2), (np.uint8, 255),
                         (np.int64, 2**40)]:
        cells = np.array([[0, 1, 2], [2, 0, 1]], dtype=dtype)
        cells[1, 1:] = value
        with pytest.raises(ValueError, match=rf"cell \(1, 1\) holds invalid "
                                             rf"class code {value}$"):
            ClassRaster(ncols=3, nrows=2, xll=0, yll=0, cellsize=1, nodata=-1,
                        cells=cells)


@pytest.mark.parametrize("code", [0, 1, 2])
def test_class_raster_rejects_nodata_that_is_a_class_code(code):
    with pytest.raises(ValueError, match="class code"):
        ClassRaster(ncols=2, nrows=2, xll=0, yll=0, cellsize=1, nodata=code,
                    cells=np.full((2, 2), 2, dtype=np.int32))


@pytest.mark.parametrize("field, value", [
    ("xll", float("inf")), ("xll", float("nan")), ("yll", float("-inf")),
    ("nodata", 2**32 - 1), ("nodata", -2**31 - 1), ("ncols", 2**31),
    ("nrows", 0),
])
def test_class_raster_applies_the_header_rules(field, value):
    kwargs = dict(ncols=2, nrows=2, xll=0, yll=0, cellsize=1, nodata=-1,
                  cells=np.zeros((2, 2), dtype=np.int32))
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be"):
        ClassRaster(**kwargs)


# ---------------------------------------------------------- georeferencing

def test_pixel_center_positions():
    raster = parse_ascii_grid(FIXTURE)
    # Row 0 is the northernmost row.
    lon, lat = _centres(raster.frame, 0, 0)
    assert lon == pytest.approx(10.25, abs=1e-12)
    assert lat == pytest.approx(21.25, abs=1e-12)
    lon, lat = _centres(raster.frame, 3, 2)
    assert lon == pytest.approx(11.75, abs=1e-12)
    assert lat == pytest.approx(20.25, abs=1e-12)


def test_pixel_center_neighbors_are_one_cell_apart():
    raster = parse_ascii_grid(FIXTURE)
    lons, _ = _centres(raster.frame, np.arange(raster.ncols), 1)
    assert np.diff(lons) == pytest.approx([raster.cellsize] * 3, rel=1e-12)
    _, lats = _centres(raster.frame, 1, np.arange(raster.nrows))
    assert -np.diff(lats) == pytest.approx([raster.cellsize] * 2, rel=1e-12)


def test_inside_pixels_give_the_pixel_centres_inside():
    raster = parse_ascii_grid(FIXTURE)
    # A 0.2-wide square around the centre of pixel (col 1, row 1).
    fp = square_footprint("b", 10.75, 20.75, 0.1)
    [chunk] = inside_pixels(raster.frame, [fp])
    assert [a.tolist() for a in chunk] == [[0], [0], [1 * 4 + 1]]
    assert all(a.dtype == np.int64 for a in chunk)
    assert contains(fp, GeoPoint(*_centres(raster.frame, 1, 1)))


def test_inside_pixels_skip_footprints_off_the_raster():
    raster = parse_ascii_grid(FIXTURE)
    far = square_footprint("far", 50.0, 50.0, 0.1)
    near = square_footprint("near", 10.75, 20.75, 0.1)
    [chunk] = inside_pixels(raster.frame, [far, near, far])
    assert [a.tolist() for a in chunk] == [[1], [0], [1 * 4 + 1]]
    assert list(inside_pixels(raster.frame, [far])) == []
    assert list(inside_pixels(raster.frame, [])) == []


# (xll, yll, cellsize) of the fuzzed frames: plain, metre-sized and
# few-ulp cells at the scene origin, and cells so small that the cross
# products underflow.
FRAMES = [(10.0, 20.0, 0.25), (-90.88, 32.9, 1e-5), (-90.88, 32.9, 3e-14),
          (0.0, 0.0, 1e-300)]


# A vertex sits on a pixel centre, on a pixel corner or between them.
OFFSETS = st.sampled_from([0, 0, 0.5, 0.25])


@st.composite
def rings(draw, frame, east, box=None):
    """A ring of 3 to 6 vertices near the raster, or east columns east of
    it, each moved into box ((min_lon, min_lat), (max_lon, max_lat)) if
    given; None if two in a row repeat."""
    ncols, nrows = frame[:2]
    verts = []
    for _ in range(draw(st.integers(3, 6))):
        col = east + draw(st.integers(-3, ncols + 2)) - draw(OFFSETS)
        row = draw(st.integers(-3, nrows + 2)) - draw(OFFSETS)
        lon, lat = np.clip(_centres(frame, col, row), *box) if box else _centres(frame, col, row)
        verts.append(GeoPoint(float(lon), float(lat)))
    verts.append(verts[0])
    if any(a == b for a, b in zip(verts, verts[1:])):
        return None
    return Ring(tuple(verts))


@st.composite
def window_scenes(draw):
    """A raster frame and footprints with holes in their exteriors' boxes,
    some of them overlapping, on, partly on or off the raster."""
    xll, yll, cs = draw(st.sampled_from(FRAMES))
    frame = (draw(st.integers(1, 7)), draw(st.integers(1, 7)), xll, yll, cs)
    footprints = []
    for k in range(draw(st.integers(1, 5))):
        east = draw(st.sampled_from([0, 0, 0, 0, frame[0] + 4]))
        exterior = draw(rings(frame, east))
        if exterior is None:
            continue
        box = exterior.coords.min(axis=0), exterior.coords.max(axis=0)
        holes = [draw(rings(frame, east, box))
                 for _ in range(draw(st.sampled_from([0, 0, 1, 2])))]
        if None in holes:
            continue
        lons, lats = map(set, exterior.coords.T.tolist())
        if len(lons) > 1 and len(lats) > 1:
            footprints.append(Footprint(f"f{k}", exterior, tuple(holes)))
    return frame, footprints


def reference_pixels(frame, footprints):
    """(footprint, row * ncols + col) of every pixel centre inside a
    footprint, from the per-footprint reference windows, in footprint order,
    then row-major."""
    pairs = []
    for i, fp in enumerate(footprints):
        hit = _oracles.pixel_window(frame, fp)
        if hit is not None:
            (rows, cols), inside = hit
            for row, col in zip(*np.nonzero(inside)):
                pairs.append((i, (rows.start + int(row)) * frame[0] + cols.start + int(col)))
    return pairs


def chunked_pixels(frame, footprints):
    """inside_pixels' chunks as (footprint, cell) pairs, checking that their
    arrays are int64 and that part rises and never repeats."""
    pairs, last = [], -1
    for chunk in inside_pixels(frame, footprints):
        assert all(a.dtype == np.int64 for a in chunk)
        part, owner, cell = chunk
        assert part.size and part[0] > last and (np.diff(part) > 0).all()
        assert len(owner) == len(cell)
        last = part[-1]
        pairs += zip(part[owner].tolist(), cell.tolist())
    return pairs


def edge_scenes(frame):
    """Footprints on frame (ncols, nrows at least 2) that its edges clip:
    one past each of the four edges, and one wider than the raster."""
    ncols, nrows, xll, yll, cs = frame
    x0, y0, x1, y1 = xll, yll, xll + ncols * cs, yll + nrows * cs
    boxes = {"west": (x0 - 2.3 * cs, y0 + 0.4 * cs, x0 + 1.3 * cs, y1 - 0.4 * cs),
             "east": (x1 - 1.3 * cs, y0 + 0.4 * cs, x1 + 2.3 * cs, y1 - 0.4 * cs),
             "south": (x0 + 0.4 * cs, y0 - 2.3 * cs, x1 - 0.4 * cs, y0 + 1.3 * cs),
             "north": (x0 + 0.4 * cs, y1 - 1.3 * cs, x1 - 0.4 * cs, y1 + 2.3 * cs),
             "wide": (x0 - 3.1 * cs, y0 + 0.6 * cs, x1 + 3.1 * cs, y1 - 0.6 * cs)}
    return [_oracles.rect_footprint(fid, *box) for fid, box in boxes.items()]


EDGE_FRAME = (5, 4, 10.0, 20.0, 0.25)


@settings(max_examples=300)
@given(scene=window_scenes())
@example(scene=(EDGE_FRAME, edge_scenes(EDGE_FRAME)))
def test_inside_pixels_match_the_per_footprint_reference(scene):
    frame, footprints = scene
    reference = reference_pixels(frame, footprints)
    assert chunked_pixels(frame, footprints) == reference
    with mock.patch.object(geom_module, "_SPAN_PIXELS", 1):
        assert chunked_pixels(frame, footprints) == reference


# ------------------------------------------------------------ round-trips

def test_write_then_parse_round_trip():
    raster = parse_ascii_grid(FIXTURE)
    text = write_ascii_grid(raster)
    again = parse_ascii_grid(text)
    assert again.ncols == raster.ncols
    assert again.nrows == raster.nrows
    assert again.xll == raster.xll
    assert again.yll == raster.yll
    assert again.cellsize == raster.cellsize
    assert again.nodata == raster.nodata
    assert np.array_equal(again.cells, raster.cells)


def test_write_emits_canonical_bytes():
    raster = parse_ascii_grid(FIXTURE)
    text = write_ascii_grid(raster)
    assert text == FIXTURE
    # Writing a reparsed raster is a fixed point.
    assert write_ascii_grid(parse_ascii_grid(text)) == text


def test_write_preserves_awkward_float_headers():
    cells = np.array([[0, 1], [2, 0]], dtype=np.int32)
    raster = ClassRaster(ncols=2, nrows=2, xll=-90.123456789012,
                         yll=0.000001, cellsize=1.0 / 3.0, nodata=-9999,
                         cells=cells)
    again = parse_ascii_grid(write_ascii_grid(raster))
    assert again.xll == raster.xll
    assert again.yll == raster.yll
    assert again.cellsize == raster.cellsize
    assert again.nodata == -9999


# ------------------------------------------- block parser and row writer

# With nodata 3 or 7, a digit scan that let a minus stand anywhere would
# read "-" as 3 and "1-" as 7.
NODATA_CODES = [-1, -9999, -2**31, 2**31 - 1, 3, 7]

# Pieces inserted into or over a valid body: spellings int() reads that a
# plain -?[0-9]+ scan does not, bad tokens and codes, blanks, the other line
# breaks of str.splitlines() and the writer's nodata placeholder "n". An
# inserted code is one cell too many.
MUTATIONS = ["+1", "01", "0", "-0", "-", "1-", "1_0", "\u0662", "\xa0",
             "\t", "\n", "\n  \t\n", "\r", "\x0b", "\x1c", "\x1f", "1-2", "3",
             "-2", "00000000002", "99999999999", "x", " 0", "1 ", "n"]


def outcome(parse, text):
    """A parse's cells and header, or its error's type and message."""
    try:
        raster = parse(text, source="g.asc")
    except ParseError as exc:
        return type(exc), str(exc)
    return raster.frame, raster.nodata, raster.cells.tolist()


def narrowest_holding(nodata):
    """The first of int8, int16 and int32 whose range holds nodata."""
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32)
                if np.iinfo(t).min <= nodata <= np.iinfo(t).max)


@st.composite
def grid_texts(draw):
    ncols, nrows = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    nodata = draw(st.sampled_from([None] + NODATA_CODES))
    codes = ["0", "1", "2", str(DEFAULT_NODATA if nodata is None else nodata)]
    cells = draw(st.lists(st.sampled_from(codes), min_size=ncols * nrows,
                          max_size=ncols * nrows))
    sep = draw(st.sampled_from([" ", "\t", "  "]))
    body = "".join(sep.join(cells[r * ncols:(r + 1) * ncols]) + "\n"
                   for r in range(nrows))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(body)))
        cut = draw(st.integers(0, 2))
        piece = draw(st.sampled_from(MUTATIONS + codes))
        if draw(st.booleans()):
            piece = f" {piece} "  # a token of its own
        body = body[:at] + piece + body[at + cut:]
    head = (f"ncols {ncols}\nnrows {nrows}\nxllcorner 0.0\nyllcorner 0.0\n"
            f"cellsize 1.0\n")
    if nodata is not None:
        head += f"nodata_value {nodata}\n"
    return (head + body).replace("\n", draw(st.sampled_from(["\n", "\r\n", "\r"])))


def one_row(cells, nodata, ncols=None):
    return (f"ncols {ncols or len(cells.split())}\nnrows 1\nxllcorner 0\nyllcorner 0\n"
            f"cellsize 1\nnodata_value {nodata}\n{cells}\n")


# Bytes between cells that the block reader's table sends to its sentinel.
# The line loop reads \x0b, \x0c and \x1c as line breaks, and \x00 and DEL
# as bytes of a bad token. A blank-free mask of bytes above 32 sees only DEL.
SENTINEL_BYTES = ["\x00", "\x0b", "\x0c", "\x1c", "\x7f"]


@settings(max_examples=600)
@given(text=grid_texts(), block_chars=st.integers(1, 40))
@example(text=one_row("0 - 1", 3), block_chars=40)
@example(text=one_row("0 1- 1", 7), block_chars=40)
@example(text=one_row("2 -0 01 -00000000001 00000000002", -1), block_chars=40)
@example(text=one_row("0 +1 -0 2", -1), block_chars=40)
@example(text=one_row("0 n 1", -1), block_chars=40)  # the writer's placeholder
# Four cells would be read if the sentinel byte were a cell of its own.
@example(text=one_row("0\x001 2", -1, ncols=4), block_chars=40)
@example(text=one_row("0\x0b1 2", -1, ncols=4), block_chars=40)
@example(text=one_row("0 1\x0c2", -1, ncols=4), block_chars=40)
@example(text=one_row("0\x1c1 2", -1, ncols=4), block_chars=40)
@example(text=one_row("0 1 \x7f 2", -1, ncols=4), block_chars=40)
@example(text=one_row("1 " + "0" * 22 + "1", -1), block_chars=40)
@example(text="", block_chars=40)
@example(text="ncols 4\nnrows 3\n\n", block_chars=40)  # ends before xllcorner
@example(text=one_row("0 1 2", -1).replace("ncols 3", "ncols 4")[:-1], block_chars=40)
def test_block_parser_agrees_with_the_reference(text, block_chars):
    with mock.patch.object(raster_module, "_BLOCK_CHARS", block_chars):
        got = outcome(parse_ascii_grid, text)
        assert got == outcome(_oracles.parse_ascii_grid, text)
    if isinstance(got[0], tuple):  # a raster's frame, not an error's type
        assert parse_ascii_grid(text).cells.dtype == narrowest_holding(got[1])


@pytest.mark.parametrize("byte", SENTINEL_BYTES, ids=ascii)
def test_a_sentinel_byte_sends_its_block_to_the_line_loop(byte):
    assert raster_module._block_cells(f"0 {byte} 1 2\n1 0 2\n", b"-1") is None
    assert raster_module._block_cells("0 1 2\n1 0 2\n", b"-1")[1] == 2


@given(text=st.text(alphabet="ab \n\r\x0b\x0c\x1c\x1e\x85\u2028\u2029", max_size=40),
       sizes=st.lists(st.integers(1, 8), min_size=1, max_size=8))
@example(text="ab\rb\r\rab\r", sizes=[1])  # CR ends only
@example(text="ab\r\nb\r\n", sizes=[3])  # a piece ends inside a CR LF pair
@example(text="a\r", sizes=[2])  # the text ends in a CR
def test_the_reader_cuts_its_pieces_into_blocks_after_line_breaks(text, sizes):
    pieces, at = [], 0
    for size in (sizes * len(text))[:len(text)]:
        pieces.append(text[at:at + size])
        at += size
    blocks = list(raster_module._blocks(pieces))
    assert "".join(blocks) == text
    assert all(blocks)
    for block, after in zip(blocks, blocks[1:]):
        assert block[-1] in "\n\r"
        assert not (block[-1] == "\r" and after[0] == "\n")


@pytest.mark.parametrize("line", [7, 9, 12], ids=["first", "middle", "last"])
def test_overflow_names_the_declared_count_in_any_block(line):
    body = ["0 1 2 0"] * 6
    body[line - 7] += " 1" * (25 - 4 * (line - 6))  # cell 25 is on this line
    text = FIXTURE.replace("nrows 3", "nrows 6").split("0 1 2 0")[0]
    text += "\n".join(body) + "\n"
    with mock.patch.object(raster_module, "_BLOCK_CHARS", 16):
        with pytest.raises(CellCountMismatch) as err:
            parse_ascii_grid(text, source="g.asc")
    assert str(err.value) == f"g.asc:{line}: more than 24 cells in body"
    assert outcome(_oracles.parse_ascii_grid, text)[1] == str(err.value)


LINE_ENDS = pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])


@LINE_ENDS
@pytest.mark.parametrize("nodata", NODATA_CODES)
def test_the_writers_bytes_never_reach_the_line_loop(nodata, line_end):
    cells = np.random.default_rng(7).choice([0, 1, 2, nodata], size=(6, 7))
    cells[0, 0] = cells[-1, -1] = nodata
    raster = ClassRaster(ncols=7, nrows=6, xll=0.0, yll=0.0, cellsize=1.0,
                         nodata=nodata, cells=cells)
    for block_chars in range(1, 41):
        with mock.patch.object(raster_module, "_BLOCK_CHARS", block_chars), \
                mock.patch.object(raster_module, "_line_cells",
                                  side_effect=AssertionError("line loop ran")):
            again = parse_ascii_grid(write_ascii_grid(raster).replace("\n", line_end))
        assert np.array_equal(again.cells, cells)


# ------------------------------------------------------------ file reader

def read_outcome(read, path):
    """A read's raster, as frame, nodata, cells and cell type, or its error,
    as type, text and line."""
    try:
        raster = read(path)
    except ParseError as exc:
        return type(exc), str(exc), exc.line
    return raster.frame, raster.nodata, raster.cells.tolist(), raster.cells.dtype


def whole_read(path):
    return parse_ascii_grid(read_text(path), path)


@pytest.fixture(scope="module")
def grid_file(tmp_path_factory):
    return tmp_path_factory.mktemp("grids") / "g.asc"


BAD_CELL = one_row("0 x 1", -1)
BAD_CELL_CRLF = BAD_CELL.replace("\n", "\r\n")
BAD_LINE_8 = FIXTURE.replace("1 1 2 2", "1 x 2 2").replace("\n", "\r")
# Past the text layer's 8 KiB decode chunk: the bad cell is read before the bad byte.
BAD_FIRST_ROW = (FIXTURE.replace("nrows 3", "nrows 3000").split("0 1 2 0")[0]
                 + "0 x 2 0\n" + "0 1 2 0\n" * 2999)
HUGE = "ncols 2147483647\nnrows 2147483647\nxllcorner 0\nyllcorner 0\ncellsize 1\n0 1\n"


@settings(max_examples=300)
@given(text=grid_texts(), read_chars=st.integers(1, 40), stray=st.none() | st.integers(0, 400))
@example(text=BAD_CELL, read_chars=40, stray=BAD_CELL.index("x"))
@example(text=BAD_CELL_CRLF, read_chars=3, stray=BAD_CELL_CRLF.index("x") + 1)
@example(text=BAD_LINE_8, read_chars=7, stray=len(BAD_LINE_8) - 2)  # 0xff on line 9
@example(text=BAD_FIRST_ROW, read_chars=40, stray=len(BAD_FIRST_ROW) - 2)
@example(text=HUGE.replace("\n", "\r\n"), read_chars=5, stray=None)
def test_the_file_reader_reads_as_the_whole_text_reader(grid_file, text, read_chars, stray):
    """Grid texts with LF, CR LF or CR ends, perhaps with one byte that is
    not UTF-8 (0xff): the same raster or the same error, and a raster read
    in pieces, not whole."""
    raw = text.encode("utf-8")
    if stray is not None:
        at = min(stray, len(raw))
        raw = raw[:at] + b"\xff" + raw[at:]
    grid_file.write_bytes(raw)
    path = str(grid_file)
    with mock.patch.object(formats_module, "_READ_CHARS", read_chars), \
            mock.patch.object(formats_module, "read_text", wraps=read_text) as whole:
        got = read_outcome(load_raster, path)
    assert got == read_outcome(whole_read, path)
    if isinstance(got[0], tuple):  # a raster's frame, not an error's type
        assert whole.call_count == 0


def test_an_io_error_in_the_streamed_read_falls_back_to_the_whole_text_read(tmp_path):
    path = tmp_path / "g.asc"
    path.write_text(FIXTURE)
    fault = mock.Mock(side_effect=OSError(5, "Input/output error"))
    with mock.patch.object(formats_module, "ascii_grid_from", fault), \
            mock.patch.object(formats_module, "read_text", wraps=read_text) as whole:
        got = read_outcome(load_raster, str(path))
    assert fault.call_count == whole.call_count == 1
    assert got == read_outcome(whole_read, str(path))
    assert isinstance(got[0], tuple)  # a raster's frame, not an error's type


@pytest.mark.parametrize("name", ["", "missing.asc"], ids=["directory", "missing"])
def test_the_file_reader_fails_on_a_path_as_the_whole_text_reader(tmp_path, name):
    path = str(tmp_path / name)
    got = read_outcome(load_raster, path)
    assert got == read_outcome(whole_read, path)
    assert got[0] is ParseError


@st.composite
def rasters(draw):
    ncols, nrows = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    # At nodata 127 and -128, block + ord("0") wraps in int8 before the
    # writer overwrites nodata with "n".
    nodata = draw(st.sampled_from(NODATA_CODES + [200, 127, -128]))
    narrow = [t for t in (np.int8, np.int16)
              if np.iinfo(t).min <= nodata <= np.iinfo(t).max]
    dtype = draw(st.sampled_from(
        [np.int32, np.int64] + narrow + ([np.uint8] if 0 < nodata < 256 else [])))
    cells = draw(st.lists(st.sampled_from([0, 1, 2, nodata]),
                          min_size=ncols * nrows, max_size=ncols * nrows))
    return ClassRaster(ncols=ncols, nrows=nrows, xll=-90.5, yll=32.25,
                       cellsize=0.1, nodata=nodata,
                       cells=np.array(cells, dtype=dtype).reshape(nrows, ncols))


@settings(max_examples=200)
@given(raster=rasters(), block_chars=st.integers(1, 40))
def test_row_writer_matches_the_reference_byte_for_byte(raster, block_chars):
    with mock.patch.object(raster_module, "_BLOCK_CHARS", block_chars):
        text = write_ascii_grid(raster)
    assert text == _oracles.write_ascii_grid(raster)
    assert np.array_equal(parse_ascii_grid(text).cells, raster.cells)


# ------------------------------------------------------------------ memory

def class_cells(nrows):
    """An nrows x 1,000 raster of class codes and no nodata, like synth's."""
    cells = np.random.default_rng(5).choice(np.array([0, 1, 2], dtype=np.int8),
                                            size=(nrows, 1000), p=[0.8, 0.1, 0.1])
    return ClassRaster(ncols=1000, nrows=nrows, xll=0.0, yll=0.0, cellsize=1.0,
                       nodata=-1, cells=cells)


def reader_peak(raster, line_end):
    """parse_ascii_grid()'s traced peak beyond its text: the raster's grid
    text with line_end for every line feed."""
    text = write_ascii_grid(raster).replace("\n", line_end)
    tracemalloc.start()  # traces what is allocated from here on: not the text
    try:
        again = parse_ascii_grid(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(again.cells, raster.cells)
    return peak


@LINE_ENDS
def test_the_reader_holds_little_per_cell_beyond_its_text(line_end):
    # In all, and per cell as the peak grows with the raster: the cells take
    # one byte, and the block temporaries, about 0.5 MB at 64 KiB blocks, do
    # not grow. A list of every line would add 2 B/cell.
    small, large = class_cells(1000), class_cells(2000)
    peak = reader_peak(small, line_end)
    assert peak <= 1.75 * small.cells.size
    growth = reader_peak(large, line_end) - peak
    assert growth <= 1.5 * (large.cells.size - small.cells.size)


def test_the_file_reader_holds_little_per_cell(tmp_path):
    raster = class_cells(1000)
    path = tmp_path / "raster.asc"
    write_text(path, ascii_grid_blocks(raster))
    tracemalloc.start()
    try:
        again = load_raster(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(again.cells, raster.cells)
    # The file's bytes and its decoded text, held whole, would take 4 B/cell.
    assert peak <= 2 * raster.cells.size


@pytest.mark.parametrize("nodata", [-1, -9999, 127, -128, -2**31, 2**31 - 1])
def test_the_file_writer_writes_the_reference_bytes(tmp_path, nodata):
    """ascii_grid_blocks' bytes through write_text, with nodata cells in the
    first and last of many blocks."""
    cells = np.random.default_rng(7).choice(np.array([0, 1, 2, nodata]), size=(40, 30))
    cells[0, 0] = cells[-1, -1] = nodata
    raster = ClassRaster(ncols=30, nrows=40, xll=-90.5, yll=32.25, cellsize=0.1,
                         nodata=nodata, cells=cells)
    with mock.patch.object(raster_module, "_BLOCK_CHARS", 120):  # two rows a block
        blocks = list(ascii_grid_blocks(raster))
    assert len(blocks) == 21 and all(type(block) is bytes for block in blocks)
    assert blocks[1].startswith(str(nodata).encode()) and blocks[-1].endswith(b" %d\n" % nodata)
    write_text(tmp_path / "raster.asc", iter(blocks))
    assert (tmp_path / "raster.asc").read_bytes() == _oracles.write_ascii_grid(raster).encode()


def test_the_streamed_writer_holds_little_beyond_the_cells(tmp_path):
    raster = class_cells(1000)
    path = tmp_path / "raster.asc"
    tracemalloc.start()
    try:
        write_text(path, ascii_grid_blocks(raster))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_text(encoding="utf-8") == write_ascii_grid(raster)
    assert peak <= 0.5 * raster.cells.size
