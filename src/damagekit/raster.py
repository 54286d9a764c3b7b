"""Esri ASCII grid reader/writer for per-pixel damage classification rasters.

Cell codes: 0 background, 1 intact building, 2 damaged building. Any cell may
also hold the nodata code (default -1), a 32-bit integer other than those
three. Row 0 is the northernmost row.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields

import numpy as np

from .errors import (CellCountMismatch, InvalidClassCode, MissingHeaderKey,
                     NonIntegerCell)
from .geom import Footprint, contains_many

CLASS_BACKGROUND = 0
CLASS_BUILDING = 1
CLASS_DAMAGED = 2
VALID_CLASSES = (CLASS_BACKGROUND, CLASS_BUILDING, CLASS_DAMAGED)

DEFAULT_NODATA = -1

# Header keys in canonical order, each with its type, its rule and the rule
# in words; every key but the last, nodata_value, is required. ClassRaster's
# first six fields follow the same order and obey the same rules. Cells are
# int32, so the nodata code must fit one.
_HEADER_RULES = {
    "ncols": (int, lambda v: v > 0, "positive"),
    "nrows": (int, lambda v: v > 0, "positive"),
    "xllcorner": (float, math.isfinite, "finite"),
    "yllcorner": (float, math.isfinite, "finite"),
    "cellsize": (float, lambda v: 0 < v < math.inf, "positive and finite"),
    "nodata_value": (int, lambda v: -2**31 <= v < 2**31 and v not in VALID_CLASSES,
                     "in [-2**31, 2**31) and not a class code (0, 1 or 2)"),
}


@dataclass
class ClassRaster:
    """A classification raster with its georeferencing header.

    cells is a (nrows, ncols) integer array in row-major order with row 0
    at the northern edge. Treat instances as immutable once built.
    """

    ncols: int
    nrows: int
    xll: float
    yll: float
    cellsize: float
    nodata: int
    cells: np.ndarray

    def __post_init__(self):
        for f, (kind, rule, wanted) in zip(fields(self), _HEADER_RULES.values()):
            value = kind(getattr(self, f.name))
            if not rule(value):
                raise ValueError(f"{f.name} must be {wanted}, got {value!r}")
            setattr(self, f.name, value)
        cells = np.asarray(self.cells)
        if not np.issubdtype(cells.dtype, np.integer):
            raise ValueError("cells must be an integer array")
        if cells.shape != (self.nrows, self.ncols):
            raise ValueError(
                f"cells shape {cells.shape} does not match "
                f"(nrows, ncols)=({self.nrows}, {self.ncols})")
        bad = ~(np.isin(cells, VALID_CLASSES) | (cells == self.nodata))
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise ValueError(
                f"cell ({row}, {col}) holds invalid class code {cells[row, col]}")
        self.cells = cells

    @property
    def frame(self) -> tuple[int, int, float, float, float]:
        """The georeferencing frame (ncols, nrows, xll, yll, cellsize)."""
        return self.ncols, self.nrows, self.xll, self.yll, self.cellsize


def _centres(frame, cols, rows):
    """(lon, lat) of the pixel centres at the given column and row indices."""
    _, nrows, xll, yll, cs = frame
    return xll + (cols + 0.5) * cs, yll + (nrows - rows - 0.5) * cs


def pixel_window(frame, fp: Footprint):
    """(window, inside) for a footprint on a raster frame, or None off it.

    frame is (ncols, nrows, xll, yll, cellsize). window is the (row slice,
    column slice) of the footprint's bounding box padded by one cell, which
    holds every pixel whose centre or subcells it can cover; inside is the
    contains_many mask of the window's pixel centres.
    """
    ncols, nrows, xll, yll, cs = frame
    b = fp.bounds
    col_lo = max(int(math.floor((b.min_lon - xll) / cs)) - 1, 0)
    col_hi = min(int(math.floor((b.max_lon - xll) / cs)) + 1, ncols - 1)
    row_lo = max(int(math.floor(nrows - (b.max_lat - yll) / cs)) - 1, 0)
    row_hi = min(int(math.floor(nrows - (b.min_lat - yll) / cs)) + 1, nrows - 1)
    if col_lo > col_hi or row_lo > row_hi:
        return None
    cols = np.arange(col_lo, col_hi + 1, dtype=np.float64)
    rows = np.arange(row_lo, row_hi + 1, dtype=np.float64)
    lons, lats = _centres(frame, cols, rows)
    inside = contains_many(fp, lons[np.newaxis, :], lats[:, np.newaxis])
    return (slice(row_lo, row_hi + 1), slice(col_lo, col_hi + 1)), inside


def _header_value(key, text, line_no, source):
    """The value of one header line; MissingHeaderKey at that line if bad."""
    kind, rule, wanted = _HEADER_RULES[key]
    try:
        value = kind(text)
    except ValueError:
        wanted = "an integer" if kind is int else "a number"
        value = None
    if value is None or not rule(value):
        raise MissingHeaderKey(f"{key} must be {wanted}, got {text!r}",
                               source=source, line=line_no)
    return value


def parse_ascii_grid(text: str, source: str = "<ascii-grid>") -> ClassRaster:
    """Parse Esri ASCII grid text into a ClassRaster.

    Header keys must appear in canonical order (case-insensitive):
    ncols, nrows, xllcorner, yllcorner, cellsize, then an optional
    nodata_value, a 32-bit integer outside {0, 1, 2}. The body must hold
    exactly ncols*nrows integer cells, each in {0, 1, 2} or equal to the
    nodata code.
    """
    lines = text.splitlines()
    header = {"nodata_value": DEFAULT_NODATA}
    line_idx = 0
    for key in _HEADER_RULES:
        # Skip blank lines between header entries.
        while line_idx < len(lines) and not lines[line_idx].split():
            line_idx += 1
        tokens = lines[line_idx].split() if line_idx < len(lines) else [""]
        if key == "nodata_value" and tokens[0].lower() != key:
            break  # the optional key is absent
        if line_idx >= len(lines):
            raise MissingHeaderKey(f"missing header key {key}",
                                   source=source, line=len(lines) or 1)
        if tokens[0].lower() != key or len(tokens) != 2:
            raise MissingHeaderKey(
                f"expected header line '{key} <value>', got {lines[line_idx]!r}",
                source=source, line=line_idx + 1)
        header[key] = _header_value(key, tokens[1], line_idx + 1, source)
        line_idx += 1

    nodata = header["nodata_value"]
    expected = header["ncols"] * header["nrows"]
    # Grown from the body, not allocated from the header: every cell that
    # passes the class check fits the int32 ('i') typecode.
    values = array("i")
    for body_idx in range(line_idx, len(lines)):
        for token in lines[body_idx].split():
            try:
                value = int(token)
            except ValueError:
                raise NonIntegerCell(f"cell value {token!r} is not an integer",
                                     source=source, line=body_idx + 1) from None
            if value != nodata and value not in VALID_CLASSES:
                raise InvalidClassCode(
                    f"cell value {value} not in {{0, 1, 2}} or nodata ({nodata})",
                    source=source, line=body_idx + 1)
            values.append(value)
        if len(values) > expected:
            raise CellCountMismatch(f"more than {expected} cells in body",
                                    source=source, line=body_idx + 1)
    if len(values) != expected:
        raise CellCountMismatch(
            f"expected {expected} cells, found {len(values)}",
            source=source, line=len(lines) or 1)

    cells = np.frombuffer(values, dtype=np.int32).reshape(-1, header["ncols"])
    return ClassRaster(*(header[key] for key in _HEADER_RULES), cells=cells)


def write_ascii_grid(raster: ClassRaster) -> str:
    """Serialise a raster to canonical Esri ASCII grid text.

    Lowercase header keys in canonical order, one raster row per line,
    LF line endings. parse_ascii_grid() round-trips the result exactly.
    """
    out = [
        f"ncols {raster.ncols}",
        f"nrows {raster.nrows}",
        f"xllcorner {raster.xll!r}",
        f"yllcorner {raster.yll!r}",
        f"cellsize {raster.cellsize!r}",
        f"nodata_value {raster.nodata}",
    ]
    for row in raster.cells:
        out.append(" ".join(str(v) for v in row.tolist()))
    return "\n".join(out) + "\n"
