"""Esri ASCII grid reader/writer for per-pixel damage classification rasters.

Cell codes: 0 background, 1 intact building, 2 damaged building. Any cell may
also hold the nodata code (default -1), any other 32-bit integer; the reader
stores cells as the first of int8, int16 and int32 that holds it. Row 0 is the
northernmost row. geom.inside_pixels, not this module, finds footprints' pixels.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from itertools import chain, islice

import numpy as np

from .errors import (CellCountMismatch, InvalidClassCode, MissingHeaderKey,
                     NonIntegerCell)

CLASS_BACKGROUND = 0
CLASS_BUILDING = 1
CLASS_DAMAGED = 2
VALID_CLASSES = (CLASS_BACKGROUND, CLASS_BUILDING, CLASS_DAMAGED)

DEFAULT_NODATA = -1

# Raster text is read and written in blocks of about this many characters:
# a row of ncols cells takes about 2 * ncols.
_BLOCK_CHARS = 2**16

# Byte kinds of the block reader: the writer's one-byte cells, "n" standing
# for nodata, and its separators. A byte of kind 0 sends its block to the
# line loop.
_CELL, _SEPARATOR = 1, 2
_BYTE_KIND = np.zeros(256, dtype=np.uint8)
_BYTE_KIND[[ord("0"), ord("1"), ord("2"), ord("n")]] = _CELL
_BYTE_KIND[[ord(" "), ord("\t"), ord("\n")]] = _SEPARATOR
_ZERO = ord("0")

# Header keys in canonical order, each with its type, its rule and the rule
# in words; every key but the last, nodata_value, is required. ClassRaster's
# first six fields follow the same order and obey the same rules. The widest
# cell type is int32, so the nodata code must fit one.
_HEADER_RULES = {
    "ncols": (int, lambda v: 0 < v < 2**31, "in (0, 2**31)"),
    "nrows": (int, lambda v: 0 < v < 2**31, "in (0, 2**31)"),
    "xllcorner": (float, math.isfinite, "finite"),
    "yllcorner": (float, math.isfinite, "finite"),
    "cellsize": (float, lambda v: 0 < v < math.inf, "positive and finite"),
    "nodata_value": (int, lambda v: -2**31 <= v < 2**31 and v not in VALID_CLASSES,
                     "in [-2**31, 2**31) and not a class code (0, 1 or 2)"),
}


@dataclass
class ClassRaster:
    """A classification raster with its georeferencing header.

    cells is a (nrows, ncols) array of any integer type in row-major order
    with row 0 at the northern edge. Treat instances as immutable once built.
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
        if cells.min() < CLASS_BACKGROUND or cells.max() > CLASS_DAMAGED:  # masks only then
            bad = (((cells < CLASS_BACKGROUND) | (cells > CLASS_DAMAGED))
                   & (cells != self.nodata))
            if bad.any():
                row, col = np.argwhere(bad)[0]
                raise ValueError(
                    f"cell ({row}, {col}) holds invalid class code {cells[row, col]}")
        self.cells = cells

    @property
    def frame(self) -> tuple[int, int, float, float, float]:
        """The georeferencing frame (ncols, nrows, xll, yll, cellsize)."""
        return self.ncols, self.nrows, self.xll, self.yll, self.cellsize


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
    nodata code, in any spelling int() accepts.

    Blocks of body lines in write_ascii_grid()'s spelling are converted with
    numpy; any other block is read by a line loop with int(), which raises
    the error at its line.
    """
    lines = _lines(text)
    header = {"nodata_value": DEFAULT_NODATA}
    line_no, line = 0, ""  # the last line read, "" once used, None past the end
    for key in _HEADER_RULES:
        # Skip blank lines between header entries.
        while line is not None and not line.split():
            line = next(lines, None)
            line_no += line is not None
        tokens = line.split() if line is not None else [""]
        if key == "nodata_value" and tokens[0].lower() != key:
            break  # the optional key is absent
        if line is None:
            raise MissingHeaderKey(f"missing header key {key}",
                                   source=source, line=line_no or 1)
        if tokens[0].lower() != key or len(tokens) != 2:
            raise MissingHeaderKey(
                f"expected header line '{key} <value>', got {line!r}",
                source=source, line=line_no)
        header[key] = _header_value(key, tokens[1], line_no, source)
        line = ""
    if line:  # the line after the header starts the body
        lines = chain([line], lines)
        line_no -= 1

    nodata = header["nodata_value"]
    expected = header["ncols"] * header["nrows"]
    # n cells take at least 2n - 1 characters, so the text bounds the output
    # where a huge declared size would not. Cells take the first of int8, int16
    # and int32 that holds nodata, as ~nodata = -nodata - 1 needs the same one.
    cells = np.empty(min(expected, (len(text) + 1) // 2),
                     dtype=np.min_scalar_type(min(nodata, ~nodata)))
    count = 0
    rows = _rows_per_block(header["ncols"])
    while block := list(islice(lines, rows)):
        values = _block_cells(block, nodata)
        if values is None or count + len(values) > expected:
            values = _line_cells(block, line_no, count, expected, nodata, source)
        cells[count:count + len(values)] = values
        count += len(values)
        line_no += len(block)
    if count != expected:
        raise CellCountMismatch(
            f"expected {expected} cells, found {count}",
            source=source, line=line_no or 1)

    return ClassRaster(*(header[key] for key in _HEADER_RULES),
                       cells=cells.reshape(-1, header["ncols"]))


def _lines(text):
    """text.splitlines(), split in pieces of about _BLOCK_CHARS characters
    that each end just after a line break, a CR LF pair kept whole."""
    start, breaks = 0, re.compile("\r\n?|[\n\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
    while start < len(text):
        brk = breaks.search(text, start + _BLOCK_CHARS)
        end = brk.end() if brk else len(text)
        yield from text[start:end].splitlines()
        start = end


def _rows_per_block(ncols):
    """Raster rows per block of about _BLOCK_CHARS characters."""
    return max(1, _BLOCK_CHARS // (2 * ncols))


def _block_cells(lines, nodata):
    """The cells of some body lines as an int64 array, or None when the line
    loop must parse them: anything but the writer's spelling, one-byte class
    codes and str(nodata) between blanks and tabs, one cell per token."""
    block = "\n".join(lines)
    if "n" in block:
        return None
    try:
        raw = block.replace(str(nodata), "n").encode("ascii")
    except UnicodeEncodeError:
        return None
    codes = np.frombuffer(raw, dtype=np.uint8)
    kind = _BYTE_KIND.take(codes)  # take and compress: faster than indexing
    cell = kind == _CELL
    if not kind.all() or (cell[:-1] & cell[1:]).any():
        return None
    codes = codes.compress(cell).astype(np.int64)
    return np.where(codes == ord("n"), nodata, codes - _ZERO)


def _line_cells(lines, first, count, expected, nodata, source):
    """The cells of some body lines, from line index first on, read token by
    token with int() after count cells; raises at the line of the first bad
    token or of the first cell past the expected total."""
    values = []
    for body_idx, line in enumerate(lines, first):
        for token in line.split():
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
        if count + len(values) > expected:
            raise CellCountMismatch(f"more than {expected} cells in body",
                                    source=source, line=body_idx + 1)
    return values


def write_ascii_grid(raster: ClassRaster) -> str:
    """Serialise a raster to canonical Esri ASCII grid text.

    Lowercase header keys in canonical order, one raster row per line,
    LF line endings. parse_ascii_grid() round-trips the result exactly.
    """
    return "".join(ascii_grid_blocks(raster))


def ascii_grid_blocks(raster: ClassRaster):
    """write_ascii_grid()'s text in pieces: the header, then blocks of rows."""
    # ClassRaster holds each header value as a Python int or float.
    yield "".join(f"{key} {value!r}\n"
                  for key, value in zip(_HEADER_RULES, (*raster.frame, raster.nodata)))
    # Every cell is a one-digit class code or nodata, so a block of rows is
    # one byte array of code and blank pairs; nodata is written as "n" there
    # and then spelled out.
    nodata = str(raster.nodata)
    rows = _rows_per_block(raster.ncols)
    for start in range(0, raster.nrows, rows):
        block = raster.cells[start:start + rows]
        chars = np.empty((len(block), 2 * raster.ncols), dtype=np.uint8)
        np.add(block, _ZERO, out=chars[:, 0::2], casting="unsafe")
        chars[:, 0::2][block == raster.nodata] = ord("n")
        chars[:, 1::2] = ord(" ")
        chars[:, -1] = ord("\n")
        yield chars.tobytes().decode("ascii").replace("n", nodata)
