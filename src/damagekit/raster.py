"""Esri ASCII grid reader/writer for per-pixel damage classification rasters.

Cell codes: 0 background, 1 intact building, 2 damaged building. Any cell may
also hold the nodata code (default -1), any other 32-bit integer; the reader
stores cells as the first of int8, int16 and int32 that holds it. Row 0 is the
northernmost row. geom.inside_pixels, not this module, finds footprints' pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import chain

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

# The block reader's table: a cell byte of the writer's, 0, 1, 2 or "n"
# standing for nodata, to its index in b"012n", its code; every other byte
# to the sentinel 255 (-1 % 256), which sends its block to the line loop.
# The reader deletes blanks, tabs and line breaks in the same pass.
_ZERO, _NODATA = ord("0"), 3
_CELL_CODE = bytes(b"012n".find(byte) % 256 for byte in range(256))

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
    nodata code, in any spelling int() accepts. ascii_grid_from() reads
    the text in slices of _BLOCK_CHARS characters.
    """
    slices = (text[at:at + _BLOCK_CHARS] for at in range(0, len(text), _BLOCK_CHARS))
    return ascii_grid_from(slices, len(text), source)


def ascii_grid_from(pieces, size: int, source: str = "<ascii-grid>") -> ClassRaster:
    """parse_ascii_grid() of the concatenation of pieces, str cut anywhere,
    whose length is at most size characters. The text is never held whole.

    Blocks of whole body lines in write_ascii_grid()'s spelling are read by
    bytes.translate; any other block is read by a line loop with int(),
    which raises the error at its line.
    """
    blocks, held = _blocks(pieces), []  # held: the current block's unread lines
    lines = _lines(blocks, held)
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
                f"expected header line '{key} <value>', got {line.splitlines()[0]!r}",
                source=source, line=line_no)
        header[key] = _header_value(key, tokens[1], line_no, source)
        line = ""
    if line:  # the line after the header starts the body
        held.append(line)
        line_no -= 1

    nodata = header["nodata_value"]
    expected = header["ncols"] * header["nrows"]
    # n cells take at least 2n - 1 characters, so size bounds the output
    # where a huge declared size would not. Cells take the first of int8, int16
    # and int32 that holds nodata, as ~nodata = -nodata - 1 needs the same one.
    cells = np.empty(min(expected, (size + 1) // 2),
                     dtype=np.min_scalar_type(min(nodata, ~nodata)))
    count, spelling = 0, str(nodata).encode()
    for block in chain(["".join(reversed(held))] if held else [], blocks):
        fast = _block_cells(block, spelling)
        if fast is None or count + len(fast[0]) > expected:
            split = block.splitlines()
            fast = _line_cells(split, line_no, count, expected, nodata, source), len(split)
        values, read = fast
        put = cells[count:count + len(values)]
        put[:] = values
        if _NODATA in put:  # the block reader's code for nodata
            put[put == _NODATA] = nodata
        count, line_no = count + len(values), line_no + read
    if count != expected:
        raise CellCountMismatch(
            f"expected {expected} cells, found {count}",
            source=source, line=line_no or 1)

    return ClassRaster(*(header[key] for key in _HEADER_RULES),
                       cells=cells.reshape(-1, header["ncols"]))


def _blocks(pieces):
    """The text of pieces in blocks that each end just after a line feed or
    a carriage return, never between a CR LF pair; the last block ends
    where the text does."""
    held = []
    for piece in pieces:
        cut = max(piece.rfind("\n"), piece.rfind("\r", 0, len(piece) - 1)) + 1
        if cut:
            yield "".join([*held, piece[:cut]])
            held = []
        if cut < len(piece):
            held.append(piece[cut:])
    if held:
        yield "".join(held)


def _lines(blocks, held):
    """The lines of blocks with their breaks; held holds the unread lines
    of the current block, last first."""
    for block in blocks:
        held.extend(reversed(block.splitlines(True)))
        while held:
            yield held.pop()


def _rows_per_block(ncols):
    """Raster rows per block of about _BLOCK_CHARS characters."""
    return max(1, _BLOCK_CHARS // (2 * ncols))


def _block_cells(block, spelling):
    """A block's cells as a uint8 array of codes 0, 1, 2 and _NODATA, and
    its line count; None when the line loop must read it: anything but the
    writer's spelling, one-byte class codes and the nodata spelling between
    blanks, tabs and line breaks, one cell per token."""
    if not block.isascii() or "n" in block:
        return None
    raw = block.encode("ascii")
    if spelling[:1] in raw:  # a memchr, much faster than a search for spelling
        raw = raw.replace(spelling, b"n")
    codes = raw.translate(_CELL_CODE, delete=b" \t\r\n")
    byte = np.frombuffer(raw, dtype=np.uint8)
    token = byte > 32  # past the sentinel check, a cell's byte; any other separates
    if b"\xff" in codes or (token[:-1] & token[1:]).any():
        return None
    lines = np.count_nonzero(byte == 10) + (raw[-1] not in b"\r\n")  # LFs, and an unended line
    if b"\r" in raw:  # a CR ends a line too, but for the CR of a CR LF pair
        lines += raw.count(b"\r") - raw.count(b"\r\n")
    return np.frombuffer(codes, np.uint8), int(lines)


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
    return b"".join(ascii_grid_blocks(raster)).decode("ascii")


def ascii_grid_blocks(raster: ClassRaster):
    """write_ascii_grid()'s text in ASCII bytes: the header, then blocks of rows."""
    # ClassRaster holds each header value as a Python int or float.
    yield "".join(f"{key} {value!r}\n"
                  for key, value in zip(_HEADER_RULES, (*raster.frame, raster.nodata))).encode()
    # Every cell is a one-digit class code or nodata, so a block of rows is
    # one byte array of code and blank pairs; nodata is written as "n" there
    # and then spelled out.
    nodata = str(raster.nodata).encode()
    rows = _rows_per_block(raster.ncols)
    for start in range(0, raster.nrows, rows):
        block = raster.cells[start:start + rows]
        chars = np.empty((len(block), 2 * raster.ncols), dtype=np.uint8)
        np.add(block, _ZERO, out=chars[:, 0::2], casting="unsafe")
        chars[:, 0::2][block == raster.nodata] = ord("n")
        chars[:, 1::2] = ord(" ")
        chars[:, -1] = ord("\n")
        yield chars.tobytes().replace(b"n", nodata)
