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


@dataclass(frozen=True)
class Ring:
    """A closed polygon ring: first vertex equals the last."""

    vertices: tuple[GeoPoint, ...]

    def __post_init__(self):
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 4:
            raise ValueError("ring needs at least 4 vertices including closure")
        first, last = verts[0], verts[-1]
        if first.lon != last.lon or first.lat != last.lat:
            raise ValueError("ring is not closed (first vertex != last)")
        for a, b in zip(verts, verts[1:]):
            if a.lon == b.lon and a.lat == b.lat:
                raise ValueError("ring has two identical consecutive vertices")


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
        lons = [v.lon for v in self.exterior.vertices]
        lats = [v.lat for v in self.exterior.vertices]
        b = BBox(min(lons), min(lats), max(lons), max(lats))
        if b.min_lon == b.max_lon or b.min_lat == b.max_lat:
            raise ValueError("footprint exterior has zero bounding-box extent")
        object.__setattr__(self, "bounds", b)


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


def _ring_hits(ring: Ring, x, y):
    """(on_edge, parity) of a point, or of arrays of points, against a ring.

    x and y are floats or numpy arrays that broadcast together; the results
    are bools or boolean arrays to match. Even-odd parity over a horizontal
    ray toward +lon. The on-edge test is exact; parity alone decides points
    that are not exactly on an edge. A horizontal edge never straddles the
    ray, so it takes no part in the parity.
    """
    on_edge = parity = False
    verts = ring.vertices
    for i in range(len(verts) - 1):
        x1, y1 = verts[i].lon, verts[i].lat
        x2, y2 = verts[i + 1].lon, verts[i + 1].lat
        on_edge |= _on_edge(x1, y1, x2, y2, x, y)
        if y1 != y2:
            straddles, x_cross = _crossing(x1, y1, x2, y2, y)
            parity ^= straddles & (x < x_cross)
    return on_edge, parity


def _inside(fp: Footprint, x, y):
    """Containment of a point, or of arrays of points, in a footprint.

    A point on the exterior is inside; a point inside the exterior is
    inside unless it lies strictly inside a hole and on no hole edge.
    """
    # "^ True" negates bools and boolean arrays alike; ~True is -2.
    on_ext, par_ext = _ring_hits(fp.exterior, x, y)
    on_hole = in_hole = False
    for hole in fp.holes:
        on_h, par_h = _ring_hits(hole, x, y)
        on_hole |= on_h
        in_hole |= par_h
    knocked_out = in_hole & (on_hole ^ True)
    return on_ext | (par_ext & (knocked_out ^ True))


def contains(fp: Footprint, p: GeoPoint) -> bool:
    """True iff the point is inside the footprint.

    Boundary points (on the exterior or on a hole edge) count as inside;
    points strictly inside a hole do not.
    """
    b = fp.bounds
    if p.lon < b.min_lon or p.lon > b.max_lon or p.lat < b.min_lat or p.lat > b.max_lat:
        return False
    return bool(_inside(fp, p.lon, p.lat))


def contains_many(fp: Footprint, lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
    """contains() over arrays of coordinates (broadcast together).

    Agrees exactly with contains() for every element.
    """
    return _inside(fp, np.asarray(lons), np.asarray(lats))


def metres_per_degree(ref_lat: float) -> tuple[float, float]:
    """(kx, ky): metres per degree of longitude and of latitude at ref_lat."""
    kx = EARTH_RADIUS_M * math.cos(ref_lat * _DEG_TO_RAD) * _DEG_TO_RAD
    ky = EARTH_RADIUS_M * _DEG_TO_RAD
    return kx, ky


def _segment_dist_sq(px, py, x1, y1, x2, y2):
    dx = x2 - x1
    dy = y2 - y1
    t = ((px - x1) * dx + (py - y1) * dy) / (dx * dx + dy * dy)
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    ex = px - (x1 + t * dx)
    ey = py - (y1 + t * dy)
    return ex * ex + ey * ey


def point_to_footprint_distance_m(p: GeoPoint, fp: Footprint, ref_lat: float) -> float:
    """Distance from a point to a footprint in metres.

    Zero when the point is inside (boundary included), otherwise the minimum
    distance to any boundary segment, measured in the equirectangular plane
    at ref_lat.
    """
    if contains(fp, p):
        return 0.0
    kx, ky = metres_per_degree(ref_lat)
    px = p.lon * kx
    py = p.lat * ky
    best_sq = math.inf
    for ring in (fp.exterior, *fp.holes):
        verts = ring.vertices
        for i in range(len(verts) - 1):
            d_sq = _segment_dist_sq(px, py,
                                    verts[i].lon * kx, verts[i].lat * ky,
                                    verts[i + 1].lon * kx, verts[i + 1].lat * ky)
            if d_sq < best_sq:
                best_sq = d_sq
    return math.sqrt(best_sq)
