"""Esri ASCII grid reader/writer for per-pixel damage classification rasters.

Cell codes: 0 background, 1 intact building, 2 damaged building. Any cell may
also hold the nodata code (default -1), a 32-bit integer other than those
three. Row 0 is the northernmost row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (CellCountMismatch, InvalidClassCode, MissingHeaderKey,
                     NonIntegerCell)
from .geom import FootprintArray, _chunks, _crossing, _edges, _hole_rule, _on_edge, _runs

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

# inside_pixels rasterises footprints in chunks of about this many window
# pixels, counting a footprint's window once per ring.
_SPAN_PIXELS = 2**16

# Header keys in canonical order, each with its type, its rule and the rule
# in words; every key but the last, nodata_value, is required. ClassRaster's
# first six fields follow the same order and obey the same rules. Cells are
# int32, so the nodata code must fit one.
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


def _centres(frame, cols, rows):
    """(lon, lat) of the pixel centres at the given column and row indices."""
    _, nrows, xll, yll, cs = frame
    return xll + (cols + 0.5) * cs, yll + (nrows - rows - 0.5) * cs


def inside_pixels(frame, footprints):
    """(part, owner, row, col) int64 arrays per chunk of footprints (a
    FootprintArray or a sequence of Footprints) on a raster frame (ncols,
    nrows, xll, yll, cellsize). part holds the chunk's footprint indices;
    each pixel whose centre lies inside footprint part[owner] under geom's
    containment rule, bit for bit, gives one owner, row and col, in
    footprint order, then row-major.

    The scanline rule, batched over footprints in chunks of about
    _SPAN_PIXELS pixels per ring of their windows, each the bounding box
    padded by one cell: each edge meets every window row whose centre
    latitude it spans at geom's _crossing, and searchsorted on the exact
    centre longitudes turns the crossings into each ring's even-odd parity.
    geom's exact _on_edge runs only on the centres that can lie on an edge,
    and geom's _hole_rule combines the rings.
    """
    ncols, nrows, xll, yll, cs = frame
    fps = FootprintArray.of(footprints)
    b = fps.bounds[:, [3, 1, 0, 2]]  # (max_lat, min_lat, min_lon, max_lon)
    with np.errstate(over="ignore"):  # an infinite bound is clipped too
        edges = np.floor(np.concatenate([nrows - (b[:, :2] - yll) / cs,
                                         (b[:, 2:] - xll) / cs], axis=1))
    # (row_lo, row_hi, col_lo, col_hi), clipped in float so that a bound far
    # off the raster cannot overflow int64.
    win = np.clip(edges + [-1, 1, -1, 1], [0, -1, 0, -1],
                  [nrows, nrows - 1, ncols, ncols - 1]).astype(np.int64)
    covered = np.flatnonzero((win[:, 0] <= win[:, 1]) & (win[:, 2] <= win[:, 3]))
    cost = ((win[covered, 1] - win[covered, 0] + 1)
            * (win[covered, 3] - win[covered, 2] + 1)
            * np.diff(fps.geom_offsets)[covered])
    centres = _centres(frame, np.arange(ncols, dtype=np.float64),
                       np.arange(nrows, dtype=np.float64))
    for part in _chunks(covered, cost, _SPAN_PIXELS):
        yield part, *_chunk_pixels(*centres, fps, part, win[part])


def _chunk_pixels(lons, lats, fps, part, win):
    """inside_pixels' (owner, row, col) of the footprints part of a collection
    and their windows, from the centre longitudes of every column and
    latitudes of every row."""
    row_lo, row_hi, col_lo, col_hi = win.T
    width = col_hi - col_lo + 1
    size = (row_hi - row_lo + 1) * width
    # Every exterior, in footprint order, then every hole; ring j's window
    # pixels start at offset[j], an exterior's where its footprint's do.
    n_fp = len(part)
    hole_fp, hole_rings = _runs(fps.geom_offsets[part] + 1, fps.geom_offsets[part + 1])
    ring_fp = np.concatenate([np.arange(n_fp), hole_fp])
    ring_size = size[ring_fp]
    offset = np.cumsum(ring_size) - ring_size
    x1, y1, x2, y2, edge_ring = _edges(fps, np.concatenate([fps.geom_offsets[part], hole_rings]))
    edge_fp = ring_fp[edge_ring]

    # (edge, row) pairs: the window rows whose centre latitude lies in the
    # edge's closed latitude range; -lats rises with the row.
    south = -lats
    first = np.searchsorted(south, -np.maximum(y1, y2), "left")
    stop = np.searchsorted(south, -np.minimum(y1, y2), "right")
    pair, row = _runs(np.maximum(first, row_lo[edge_fp]),
                      np.minimum(stop, row_hi[edge_fp] + 1))
    f = edge_fp[pair]
    px1, py1, px2, py2, y = x1[pair], y1[pair], x2[pair], y2[pair], lats[row]
    row_start = (row - row_lo[f]) * width[f]  # within the window

    # Parity: a straddling edge flips the centres west of its crossing, so
    # each gets a mark at the start of its ring's row and one at the first
    # centre not west of it; a running count of marks is odd where the
    # parity is.
    slanted = np.flatnonzero(py1 != py2)
    straddles, x_cross = _crossing(px1[slanted], py1[slanted], px2[slanted],
                                   py2[slanted], y[slanted])
    flip = slanted[straddles]
    west = np.searchsorted(lons, x_cross[straddles], "left") - col_lo[f[flip]]
    mark = offset[edge_ring[pair[flip]]] + row_start[flip]
    marks = np.bincount(np.concatenate([mark, mark + np.clip(west, 0, width[f[flip]])]),
                        minlength=ring_size.sum() + 1)
    parity = (np.cumsum(marks[:-1]) & 1).astype(bool)

    # On-edge candidates. A horizontal edge holds the centres of its row in
    # its longitude range. A centre on another edge makes the two products
    # of _on_edge's cross product round to the same value; with u = 2**-53
    # that puts it within about 4u|x2 - x1| + u|x1| of x_cross, plus at most
    # 4 * 2**-1075 * (1 + 1 / |y2 - y1|) where the products underflow. slack
    # covers that and the rounding of x_cross -/+ slack with room to spare.
    lo_x, hi_x = np.minimum(px1, px2), np.maximum(px1, px2)
    slack = (2.0**-50 * (np.abs(px2[slanted] - px1[slanted]) + np.abs(px1[slanted]))
             + 2.0**-1072 / np.abs(py2[slanted] - py1[slanted]) + 2.0**-1072)
    lo_x[slanted], hi_x[slanted] = x_cross - slack, x_cross + slack
    cand, col = _runs(np.maximum(np.searchsorted(lons, lo_x, "left"), col_lo[f]),
                      np.minimum(np.searchsorted(lons, hi_x, "right"), col_hi[f] + 1))
    e = pair[cand]
    on = _on_edge(x1[e], y1[e], x2[e], y2[e], lons[col], y[cand])
    pix = (offset[f[cand]] + row_start[cand] + col - col_lo[f[cand]])[on]
    on_hole_edge = (edge_ring[e] >= n_fp)[on]

    # Inside a hole means inside any hole, not an odd number of them.
    n_pix = int(size.sum())
    on_ext, on_hole, in_hole = np.zeros((3, n_pix), dtype=bool)
    on_ext[pix[~on_hole_edge]] = True
    on_hole[pix[on_hole_edge]] = True
    holes = np.arange(n_fp, len(ring_fp))
    to_fp = np.repeat(offset[ring_fp[holes]] - offset[holes], ring_size[holes])
    in_hole[(np.arange(n_pix, len(parity)) + to_fp)[parity[n_pix:]]] = True
    inside = _hole_rule(on_ext, parity[:n_pix], on_hole, in_hole)
    # The window pixels run window row by window row, in footprint order.
    line_fp, line_row = _runs(row_lo, row_hi + 1)
    line, col = _runs(col_lo[line_fp], col_hi[line_fp] + 1)
    line = line[inside]
    return line_fp[line], line_row[line], col[inside]


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
    # n cells take at least 2n - 1 characters, so the text bounds the output
    # where a huge declared size would not. Every cell that passes the class
    # check fits int32.
    cells = np.empty(min(expected, (len(text) + 1) // 2), dtype=np.int32)
    count = 0
    rows = _rows_per_block(header["ncols"])
    for first in range(line_idx, len(lines), rows):
        block = lines[first:first + rows]
        values = _block_cells(block, nodata)
        if values is None or count + len(values) > expected:
            values = _line_cells(block, first, count, expected, nodata, source)
        cells[count:count + len(values)] = values
        count += len(values)
    if count != expected:
        raise CellCountMismatch(
            f"expected {expected} cells, found {count}",
            source=source, line=len(lines) or 1)
    del lines  # as large as the text, and ClassRaster's check needs room

    return ClassRaster(*(header[key] for key in _HEADER_RULES),
                       cells=cells.reshape(-1, header["ncols"]))


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
    # ClassRaster holds each header value as a Python int or float.
    out = [f"{key} {value!r}"
           for key, value in zip(_HEADER_RULES, (*raster.frame, raster.nodata))]
    # Every cell is a one-digit class code or nodata, so a block of rows is
    # one byte array of code and blank pairs; nodata is written as "n" there
    # and then spelled out.
    nodata = str(raster.nodata)
    rows = _rows_per_block(raster.ncols)
    body = []
    for start in range(0, raster.nrows, rows):
        block = raster.cells[start:start + rows]
        chars = np.empty((len(block), 2 * raster.ncols), dtype=np.uint8)
        np.add(block, _ZERO, out=chars[:, 0::2], casting="unsafe")
        chars[:, 0::2][block == raster.nodata] = ord("n")
        chars[:, 1::2] = ord(" ")
        chars[:, -1] = ord("\n")
        body.append(chars.tobytes().decode("ascii").replace("n", nodata))
    return "".join(["\n".join(out) + "\n", *body])
