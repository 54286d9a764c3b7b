"""Geographic geometry primitives for building-footprint analytics.

Coordinates are WGS84 longitude/latitude in degrees. Metric distances use a
local equirectangular projection at a caller-supplied reference latitude,
which is accurate to well under a centimetre at the neighbourhood-to-city
scales this toolkit targets.

Containment convention: even-odd ray casting with a horizontal ray toward
increasing longitude, and points that lie exactly on any boundary edge
(exterior or hole) count as inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .columns import Columns

EARTH_RADIUS_M = 6_371_008.8  # IUGG mean Earth radius
_DEG_TO_RAD = math.pi / 180.0

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
    """A building outline: exterior ring plus optional interior holes."""

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
                   _offsets(list(map(len, rings))), np.concatenate(rings or [np.empty((0, 2))]))

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
                              _offsets(np.diff(self.ring_offsets)[rings]), self.coords[rows])


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
    *edges, ring = _edges(FootprintArray.of([fp]), np.arange(1 + len(fp.holes)))
    return bool(_inside_pairs(np.array([p.lon]), np.array([p.lat]),
                              np.zeros(len(ring), dtype=np.int64), *edges, ring)[0])


def metres_per_degree(ref_lat: float) -> tuple[float, float]:
    """(kx, ky): metres per degree of longitude and of latitude at ref_lat."""
    kx = EARTH_RADIUS_M * math.cos(ref_lat * _DEG_TO_RAD) * _DEG_TO_RAD
    ky = EARTH_RADIUS_M * _DEG_TO_RAD
    return kx, ky


def footprint_of(fid: str, rings) -> Footprint:
    """A Footprint from rings of (lon, lat) pairs of ints or floats, exterior
    first, checked one vertex, ring and footprint at a time: the first fault
    raises its error."""
    built = [Ring(tuple(GeoPoint(_number(lon), _number(lat)) for lon, lat in ring))
             for ring in rings]
    return Footprint(fid, built[0], tuple(built[1:]))


def _number(value) -> float:
    """value as a float if it is an int or a float, not a bool or a string."""
    if type(value) not in (int, float):
        raise TypeError(f"coordinate {value!r} is not a number")
    return float(value)


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
    # In range, closed, no vertex twice in a row, a non-zero extent.
    step = (coords[1:] != coords[:-1]).any(axis=1)
    step[ends[:-1] - 1] = True  # the step from one ring into the next
    lo = np.minimum.reduceat(coords, starts)[first]
    hi = np.maximum.reduceat(coords, starts)[first]
    ok = ((np.abs(coords) <= [180.0, 90.0]).all() and step.all()
          and (coords[starts] == coords[ends - 1]).all() and (lo < hi).all())
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
