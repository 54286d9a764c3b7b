"""ASCII grid parsing/writing, georeferencing, and the failure modes."""

import numpy as np
import pytest

from damagekit.errors import (CellCountMismatch, InvalidClassCode,
                              MissingHeaderKey, NonIntegerCell, ParseError)
from damagekit.geom import GeoPoint, contains
from damagekit.raster import (DEFAULT_NODATA, ClassRaster, _centres,
                              parse_ascii_grid, pixel_window, write_ascii_grid)

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
    assert raster.cells.dtype == np.int32
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


def test_pixel_window_pads_the_bounds_and_masks_pixel_centres():
    raster = parse_ascii_grid(FIXTURE)
    # A 0.2-wide square around the centre of pixel (col 1, row 1).
    fp = square_footprint("b", 10.75, 20.75, 0.1)
    window, inside = pixel_window(raster.frame, fp)
    assert window == (slice(0, 3), slice(0, 3))
    assert inside.tolist() == [[False, False, False],
                               [False, True, False],
                               [False, False, False]]
    assert contains(fp, GeoPoint(*_centres(raster.frame, 1, 1)))


def test_pixel_window_is_none_off_the_raster():
    raster = parse_ascii_grid(FIXTURE)
    far = square_footprint("far", 50.0, 50.0, 0.1)
    assert pixel_window(raster.frame, far) is None


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
