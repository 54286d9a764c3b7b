"""Geographic geometry primitives for building-footprint analytics.

Coordinates are WGS84 longitude/latitude in degrees. Metric distances use a
local equirectangular projection at a caller-supplied reference latitude,
which is accurate to well under a centimetre at the neighbourhood-to-city
scales this toolkit targets.

Containment convention, owned here for scattered points and pixel centres
alike: even-odd ray casting with a horizontal ray toward increasing longitude,
and points exactly on any boundary edge (exterior or hole) count as inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .columns import Columns

EARTH_RADIUS_M = 6_371_008.8  # IUGG mean Earth radius
_DEG_TO_RAD = math.pi / 180.0

# inside_pixels' chunk size in window pixels, a footprint's counted once per ring.
_SPAN_PIXELS = 2**16

@dataclass(frozen=True)
class GeoPoint:
    """A longitude/latitude position in degrees."""

    lon: float
    lat: float

    def __post_init__(self):
        if not (math.isfinite(self.lon) and -180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude out of range: {self.lon!r}")
        if not (math.isfinite(self.lat) and -90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude out of range: {self.lat!r}")


@dataclass(frozen=True)
class BBox:
    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float


@dataclass(frozen=True, eq=False, init=False)
class Ring:
    """A closed polygon ring: first vertex equals the last. coords is a
    read-only (n, 2) float64 array of (lon, lat); rings compare by value."""

    coords: np.ndarray

    def __init__(self, vertices: tuple[GeoPoint, ...]):
        verts = tuple(vertices)
        if len(verts) < 4:
            raise ValueError("ring needs at least 4 vertices including closure")
        first, last = verts[0], verts[-1]
        if first.lon != last.lon or first.lat != last.lat:
            raise ValueError("ring is not closed (first vertex != last)")
        for a, b in zip(verts, verts[1:]):
            if a.lon == b.lon and a.lat == b.lat:
                raise ValueError("ring has two identical consecutive vertices")
        coords = np.array([x for v in verts for x in (v.lon, v.lat)]).reshape(-1, 2)
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other):
        return isinstance(other, Ring) and np.array_equal(self.coords, other.coords)

    def __hash__(self):
        return hash(tuple(self.coords.ravel().tolist()))


@dataclass(frozen=True)
class Footprint:
    """A building outline: exterior ring plus optional holes, each within its box."""

    id: str
    exterior: Ring
    holes: tuple[Ring, ...] = ()
    bounds: BBox = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.id:
            raise ValueError("footprint id must be a non-empty string")
        object.__setattr__(self, "holes", tuple(self.holes))
        lons, lats = self.exterior.coords.T.tolist()
        b = BBox(min(lons), min(lats), max(lons), max(lats))
        if b.min_lon == b.max_lon or b.min_lat == b.max_lat:
            raise ValueError("footprint exterior has zero bounding-box extent")
        lo, hi = (b.min_lon, b.min_lat), (b.max_lon, b.max_lat)
        if any(((hole.coords < lo) | (hole.coords > hi)).any() for hole in self.holes):
            raise ValueError("footprint hole reaches outside its exterior's bounding box")
        object.__setattr__(self, "bounds", b)


class FootprintArray(Columns):
    """Footprints in GeoArrow's polygon layout: ring i is the rows
    ring_offsets[i] to ring_offsets[i + 1] of the (n, 2) float64 (lon, lat)
    buffer coords, and footprint j the rings geom_offsets[j] to
    geom_offsets[j + 1], exterior first, with bounds[j] (min_lon, min_lat,
    max_lon, max_lat) and ids[j]. An index or iteration builds Footprint views.
    footprints_from and FootprintArray.of build one; the constructor takes
    arrays already checked, in the order of columns."""

    row = Footprint
    columns = {"ids": object, "bounds": np.float64, "geom_offsets": np.int64,
               "ring_offsets": np.int64, "coords": np.float64}

    @classmethod
    def of(cls, footprints) -> FootprintArray:
        """footprints if it is a FootprintArray, else the collection of its Footprints."""
        if isinstance(footprints, cls):
            return footprints
        rings = [r.coords for fp in footprints for r in (fp.exterior, *fp.holes)]
        bounds = [(b.min_lon, b.min_lat, b.max_lon, b.max_lat)
                  for b in (fp.bounds for fp in footprints)]
        return cls([fp.id for fp in footprints], np.array(bounds).reshape(-1, 4),
                   _offsets([1 + len(fp.holes) for fp in footprints]),
                   _offsets(list(map(len, rings))), np.concatenate(rings or [np.empty((0, 2))]),
                   copy=False)

    def _row(self, j):
        ends = self.ring_offsets[self.geom_offsets[j]:self.geom_offsets[j + 1] + 1].tolist()
        rings = [_new(Ring, coords=self.coords[a:b]) for a, b in zip(ends, ends[1:])]
        return _new(Footprint, id=self.ids[j], exterior=rings[0], holes=tuple(rings[1:]),
                    bounds=BBox(*self.bounds[j].tolist()))

    def take(self, which) -> FootprintArray:
        """The footprints which[0], which[1], ... (an int array) as a FootprintArray."""
        _, rings = _runs(self.geom_offsets[which], self.geom_offsets[which + 1])
        _, rows = _runs(self.ring_offsets[rings], self.ring_offsets[rings + 1])
        return FootprintArray(self.ids[which], self.bounds[which],
                              _offsets(np.diff(self.geom_offsets)[which]),
                              _offsets(np.diff(self.ring_offsets)[rings]), self.coords[rows],
                              copy=False)


def _on_edge(x1, y1, x2, y2, x, y):
    """Whether points lie exactly on the edge (x1, y1)-(x2, y2): a zero
    cross product within the edge's closed bounding box. Floats or numpy
    arrays that broadcast together."""
    cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
    return ((cross == 0.0)
            & ((x1 <= x) | (x2 <= x)) & ((x <= x1) | (x <= x2))
            & ((y1 <= y) | (y2 <= y)) & ((y <= y1) | (y <= y2)))


def _crossing(x1, y1, x2, y2, y):
    """(straddles, x_cross) of a non-horizontal edge at latitude y: whether
    it crosses the ray from latitude y (one end above y, the other not), and
    the longitude of its line there."""
    return (y1 > y) != (y2 > y), x1 + (y - y1) * (x2 - x1) / (y2 - y1)


def _hole_rule(on_ext, odd_ext, on_hole, odd_hole):
    """Containment from boolean arrays of points' states against footprints'
    rings: on the exterior, or inside it and in no hole unless on a hole edge."""
    return on_ext | (odd_ext & ~(odd_hole & ~on_hole))


def _inside_pairs(x, y, pair, x1, y1, x2, y2, ring):
    """Containment of scattered points, one per (point, footprint) pair, that
    lie in their footprint's bounding box (the caller's test): pair k's point
    is (x[k], y[k]), and edge row i, (x1, y1)-(x2, y2), belongs to pair pair[i]
    and ring ring[i], rows grouped by pair, then ring, exterior first. An
    exact on-edge test, then even-odd parity over a ray toward +lon."""
    px, py = x[pair], y[pair]
    with np.errstate(divide="ignore", invalid="ignore"):
        straddles, x_cross = _crossing(x1, y1, x2, y2, py)
    ring_at = np.flatnonzero((np.diff(pair, prepend=-1) != 0)
                             | (np.diff(ring, prepend=-1) != 0))
    on = np.logical_or.reduceat(_on_edge(x1, y1, x2, y2, px, py), ring_at)
    odd = np.logical_xor.reduceat(straddles & (px < x_cross), ring_at)
    hole = np.diff(pair[ring_at], prepend=-1) == 0  # not a pair's first ring
    exterior = np.flatnonzero(~hole)
    return _hole_rule(on[exterior], odd[exterior],
                      np.logical_or.reduceat(on & hole, exterior),
                      np.logical_or.reduceat(odd & hole, exterior))


def contains(fp: Footprint, p: GeoPoint) -> bool:
    """True iff the point is inside the footprint.

    Boundary points (on the exterior or on a hole edge) count as inside;
    points strictly inside a hole do not.
    """
    b = fp.bounds
    if p.lon < b.min_lon or p.lon > b.max_lon or p.lat < b.min_lat or p.lat > b.max_lat:
        return False
    rings = [fp.exterior.coords, *(hole.coords for hole in fp.holes)]
    ring = np.repeat(np.arange(len(rings)), [len(c) - 1 for c in rings])
    v1, v2 = np.concatenate([c[:-1] for c in rings]).T, np.concatenate([c[1:] for c in rings]).T
    return bool(_inside_pairs(np.array([p.lon]), np.array([p.lat]),
                              np.zeros(len(ring), dtype=np.int64), *v1, *v2, ring)[0])


def _distances(x, y, box, owner, x1, y1, x2, y2, ring, kx, ky):
    """Distance in metres from points (x, y) to footprints with bounding
    boxes box, from the edges (x1, y1)-(x2, y2) of each point's footprint:
    owner[i] is edge i's point, and ring[i] its ring, in ring order."""
    # 0 inside, as contains decides it, else to the nearest edge; one whose
    # squared length underflows to 0 measures to its start.
    inside = ((box[:, 0] <= x) & (x <= box[:, 2]) & (box[:, 1] <= y) & (y <= box[:, 3])
              & _inside_pairs(x, y, owner, x1, y1, x2, y2, ring))
    qx, qy, ax, ay = x[owner] * kx, y[owner] * ky, x1 * kx, y1 * ky
    dx, dy = x2 * kx - ax, y2 * ky - ay
    den = dx * dx + dy * dy
    t = np.clip(np.divide((qx - ax) * dx + (qy - ay) * dy, den,
                          out=np.zeros_like(den), where=den > 0.0), 0.0, 1.0)
    ex, ey = qx - (ax + t * dx), qy - (ay + t * dy)
    d_sq = np.minimum.reduceat(ex * ex + ey * ey,
                               np.flatnonzero(np.diff(owner, prepend=-1) != 0))
    return np.where(inside, 0.0, np.sqrt(d_sq))


def _centres(frame, cols, rows):
    """(lon, lat) of the pixel centres at the given column and row indices."""
    _, nrows, xll, yll, cs = frame
    return xll + (cols + 0.5) * cs, yll + (nrows - rows - 0.5) * cs


def inside_pixels(frame, footprints):
    """(part, owner, cell) int64 arrays per chunk of footprints (a
    FootprintArray or a sequence of Footprints) on a raster frame (ncols, nrows,
    xll, yll, cellsize). part holds the chunk's footprint indices; each pixel
    whose centre lies inside footprint part[owner], as contains decides it,
    gives one owner and cell, row * ncols + col, in footprint order, then row-major.

    The scanline rule, batched over footprints in chunks of about _SPAN_PIXELS
    pixels per ring of their windows, each the bounding box padded by one cell:
    each edge meets every window row whose centre latitude it spans at
    _crossing, and searchsorted on the exact centre longitudes turns the
    crossings into each ring's even-odd parity. The exact _on_edge runs only on
    the centres that can lie on an edge, and _hole_rule combines the rings.
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
    centres = _centres(frame, np.arange(ncols), np.arange(nrows))
    for part in _chunks(covered, cost, _SPAN_PIXELS):
        yield part, *_chunk_pixels(*centres, fps, part, win[part])


def _chunk_pixels(lons, lats, fps, part, win):
    """inside_pixels' (owner, cell) of the footprints part of a collection
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
    first = np.searchsorted(-lats, -np.maximum(y1, y2), "left")
    stop = np.searchsorted(-lats, -np.minimum(y1, y2), "right")
    pair, row = _runs(np.maximum(first, row_lo[edge_fp]),
                      np.minimum(stop, row_hi[edge_fp] + 1))
    f, y = edge_fp[pair], lats[row]
    row_start = (row - row_lo[f]) * width[f]  # within the window
    slanted, level = np.flatnonzero(y1[pair] != y2[pair]), np.flatnonzero(y1[pair] == y2[pair])
    e = pair[slanted]

    # Parity: a straddling edge flips the centres west of its crossing, so each
    # gets a mark at the start of its ring's row and one at the first centre not
    # west of it; a running count of marks is odd where the parity is.
    straddles, x_cross = _crossing(x1[e], y1[e], x2[e], y2[e], y[slanted])
    flip = slanted[straddles]
    west = np.searchsorted(lons, x_cross[straddles], "left") - col_lo[f[flip]]
    mark = offset[edge_ring[pair[flip]]] + row_start[flip]
    marks = np.bincount(np.concatenate([mark, mark + np.clip(west, 0, width[f[flip]])]),
                        minlength=ring_size.sum() + 1)
    parity = (np.cumsum(marks[:-1]) & 1).astype(bool)

    # On-edge candidates. A horizontal edge holds the centres of its row in its longitude
    # range. A centre on another edge makes the two products of _on_edge's cross product
    # round to the same value; with u = 2**-53 that puts it within about 4u|x2 - x1| + u|x1|
    # of x_cross, plus at most 4 * 2**-1075 * (1 + 1 / |y2 - y1|) where the products
    # underflow. slack covers that and the rounding of x_cross -/+ slack with room to spare.
    slack = (2.0**-50 * (np.abs(x2 - x1) + np.abs(x1))[e]
             + 2.0**-1072 / np.abs(y2 - y1)[e] + 2.0**-1072)
    near = np.concatenate([slanted, level])
    lo_x = np.concatenate([x_cross - slack, np.minimum(x1, x2)[pair[level]]])
    hi_x = np.concatenate([x_cross + slack, np.maximum(x1, x2)[pair[level]]])
    cand, col = _runs(np.maximum(np.searchsorted(lons, lo_x, "left"), col_lo[f[near]]),
                      np.minimum(np.searchsorted(lons, hi_x, "right"), col_hi[f[near]] + 1))
    c, e = near[cand], pair[near[cand]]
    on = _on_edge(x1[e], y1[e], x2[e], y2[e], lons[col], y[c])
    pix = (offset[f[c]] + row_start[c] + col - col_lo[f[c]])[on]  # in the footprint's window
    on_hole_edge = (edge_ring[e] >= n_fp)[on]

    # Inside a hole means inside any hole, not an odd number of them.
    n_pix = int(size.sum())
    on_ext, on_hole, in_hole = np.zeros((3, n_pix), dtype=bool)
    on_ext[pix[~on_hole_edge]] = True
    on_hole[pix[on_hole_edge]] = True
    to_fp = np.repeat(offset[hole_fp] - offset[n_fp:], ring_size[n_fp:])
    in_hole[(np.arange(n_pix, len(parity)) + to_fp)[parity[n_pix:]]] = True
    inside = _hole_rule(on_ext, parity[:n_pix], on_hole, in_hole)
    # The window pixels run window row by window row, in footprint order;
    # window row l's pixel p is cell p + shift[l].
    line_fp, line_row = _runs(row_lo, row_hi + 1)
    line_start = np.cumsum(width[line_fp]) - width[line_fp]
    shift = line_row * len(lons) + col_lo[line_fp] - line_start
    count = np.add.reduceat(inside, line_start, dtype=np.int64)
    return np.repeat(line_fp, count), np.flatnonzero(inside) + np.repeat(shift, count)


def metres_per_degree(ref_lat: float) -> tuple[float, float]:
    """(kx, ky): metres per degree of longitude and of latitude at ref_lat."""
    kx = EARTH_RADIUS_M * math.cos(ref_lat * _DEG_TO_RAD) * _DEG_TO_RAD
    ky = EARTH_RADIUS_M * _DEG_TO_RAD
    return kx, ky


def footprint_of(fid: str, rings) -> Footprint:
    """A Footprint from rings of (lon, lat) pairs of ints or floats, exterior
    first, checked one vertex, ring and footprint at a time: the first fault
    raises its error."""
    built = [Ring(tuple(GeoPoint(*_pair(vertex)) for vertex in ring)) for ring in rings]
    return Footprint(fid, built[0], tuple(built[1:]))


def _pair(vertex) -> tuple[float, float]:
    """vertex as two floats if it is a list or tuple of two ints or floats."""
    if not (isinstance(vertex, (list, tuple)) and len(vertex) == 2):
        raise TypeError(f"vertex {vertex!r} is not a pair of numbers")
    for value in vertex:
        if type(value) not in (int, float):
            raise TypeError(f"coordinate {value!r} is not a number")
    return float(vertex[0]), float(vertex[1])


def footprints_from(ids, coords, sizes, counts, build=footprint_of) -> FootprintArray:
    """The footprints of n (lon, lat) rows, copied from an (n, 2) array or flattened:
    ring i is the next sizes[i] rows, footprint j the next counts[j] rings (exterior
    first) with id ids[j]. One vectorised pass, _checked_rings, makes every check of
    GeoPoint, Ring and Footprint; only on a fault are the footprints built, each by
    build(id, rings of float pairs), up to the first fault, which raises."""
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 2)
    checked = _checked_rings(coords, sizes, counts) if all(ids) else None
    if checked is None:
        rings = iter(r.tolist() for r in np.split(coords, np.cumsum(sizes)[:-1]))
        for fid, n in zip(ids, counts):
            build(fid, [next(rings) for _ in range(n)])
        raise AssertionError("_checked_rings rejected rows that footprint_of accepts")
    return FootprintArray(ids, *checked, coords)


def _checked_rings(coords, sizes, counts):
    """Every check of GeoPoint, Ring and Footprint on the (n, 2) float64 rows of
    footprints_from's layout in one pass: FootprintArray's bounds, geom_offsets
    and ring_offsets, or None on a fault."""
    sizes = np.asarray(sizes, dtype=np.int64)
    if len(sizes) and sizes.min() < 4:
        return None
    ring_offsets, geom_offsets = _offsets(sizes), _offsets(counts)
    starts, ends, first = ring_offsets[:-1], ring_offsets[1:], geom_offsets[:-1]
    # In range, closed, no vertex twice in a row, a non-zero extent, holes in the box.
    step = (coords[1:] != coords[:-1]).any(axis=1)
    step[ends[:-1] - 1] = True  # the step from one ring into the next
    ring_lo, ring_hi = np.minimum.reduceat(coords, starts), np.maximum.reduceat(coords, starts)
    lo, hi, ext = ring_lo[first], ring_hi[first], np.repeat(first, counts)  # ext: ring's exterior
    ok = ((np.abs(coords) <= [180.0, 90.0]).all() and step.all()
          and (coords[starts] == coords[ends - 1]).all() and (lo < hi).all()
          and (ring_lo >= ring_lo[ext]).all() and (ring_hi <= ring_hi[ext]).all())
    return (np.concatenate([lo, hi], axis=1), geom_offsets, ring_offsets) if ok else None


def _offsets(sizes):
    """[0, s0, s0 + s1, ...]: where each run of the given sizes starts, and the end."""
    return np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])


def _new(cls, **fields):
    """An instance of a frozen dataclass from fields already checked."""
    obj = object.__new__(cls)
    for field_value in fields.items():
        object.__setattr__(obj, *field_value)
    return obj


def _runs(start, stop):
    """(owner, value) of each value of the ranges start[i] <= value < stop[i],
    concatenated; an empty range has none."""
    count = np.maximum(stop - start, 0).astype(np.int64)
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(count.sum()) + (start - np.cumsum(count) + count)[owner]


def _chunks(items, cost, budget):
    """items in order, in runs of about budget total cost; cost[i] is items[i]'s."""
    chunk = (np.cumsum(cost) - cost) // budget
    return np.split(items, np.flatnonzero(np.diff(chunk)) + 1) if len(items) else []


def _edges(fps, rings):
    """(x1, y1, x2, y2, ring) of every edge of the collection's rings rings[k],
    in that order, ring holding each edge's k."""
    ring, row = _runs(fps.ring_offsets[rings], fps.ring_offsets[rings + 1] - 1)
    (x1, y1), (x2, y2) = fps.coords[row].T, fps.coords[row + 1].T
    return x1, y1, x2, y2, ring
