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

# Internal ring-test states.
_OUTSIDE = 0
_INSIDE = 1
_ON_EDGE = 2


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


def _ring_state(ring: Ring, lon: float, lat: float) -> int:
    """Classify a point against one ring: outside, inside, or on an edge.

    Even-odd parity over a horizontal ray toward +lon. The on-edge test is
    exact (zero cross product within the segment's bounding box); parity
    alone decides points that are not exactly on an edge.
    """
    on_edge = False
    parity = False
    verts = ring.vertices
    for i in range(len(verts) - 1):
        x1, y1 = verts[i].lon, verts[i].lat
        x2, y2 = verts[i + 1].lon, verts[i + 1].lat
        cross = (x2 - x1) * (lat - y1) - (y2 - y1) * (lon - x1)
        if (cross == 0.0
                and min(x1, x2) <= lon <= max(x1, x2)
                and min(y1, y2) <= lat <= max(y1, y2)):
            on_edge = True
        if (y1 > lat) != (y2 > lat):
            x_cross = x1 + (lat - y1) * (x2 - x1) / (y2 - y1)
            if lon < x_cross:
                parity = not parity
    if on_edge:
        return _ON_EDGE
    return _INSIDE if parity else _OUTSIDE


def contains(fp: Footprint, p: GeoPoint) -> bool:
    """True iff the point is inside the footprint.

    Boundary points (on the exterior or on a hole edge) count as inside;
    points strictly inside a hole do not.
    """
    b = fp.bounds
    if p.lon < b.min_lon or p.lon > b.max_lon or p.lat < b.min_lat or p.lat > b.max_lat:
        return False
    state = _ring_state(fp.exterior, p.lon, p.lat)
    if state == _OUTSIDE:
        return False
    if state == _ON_EDGE:
        return True
    on_hole = False
    in_hole = False
    for hole in fp.holes:
        hole_state = _ring_state(hole, p.lon, p.lat)
        if hole_state == _ON_EDGE:
            on_hole = True
        elif hole_state == _INSIDE:
            in_hole = True
    if on_hole:
        return True
    return not in_hole


def _ring_hits(ring: Ring, lons: np.ndarray, lats: np.ndarray):
    """Vectorised ring test. Returns (on_edge, parity) boolean arrays.

    Mirrors the _ring_state arithmetic expression for expression so the two
    give bit-identical answers on the same inputs.
    """
    x, y = np.broadcast_arrays(lons, lats)
    on_edge = np.zeros(x.shape, dtype=bool)
    parity = np.zeros(x.shape, dtype=bool)
    verts = ring.vertices
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(len(verts) - 1):
            x1, y1 = verts[i].lon, verts[i].lat
            x2, y2 = verts[i + 1].lon, verts[i + 1].lat
            cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
            on_edge |= ((cross == 0.0)
                        & (min(x1, x2) <= x) & (x <= max(x1, x2))
                        & (min(y1, y2) <= y) & (y <= max(y1, y2)))
            straddles = (y1 > y) != (y2 > y)
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            parity ^= straddles & (x < x_cross)
    return on_edge, parity


def contains_many(fp: Footprint, lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
    """Vectorised contains() over arrays of coordinates (broadcast together).

    Agrees exactly with contains() for every element.
    """
    on_ext, par_ext = _ring_hits(fp.exterior, lons, lats)
    result = on_ext | par_ext
    if fp.holes:
        shape = result.shape
        on_hole = np.zeros(shape, dtype=bool)
        in_hole = np.zeros(shape, dtype=bool)
        for hole in fp.holes:
            on_h, par_h = _ring_hits(hole, lons, lats)
            on_hole |= on_h
            in_hole |= par_h & ~on_h
        knocked_out = in_hole & ~on_hole
        result &= on_ext | ~knocked_out
    return result


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
