"""Brute-force reference implementations used to cross-check the library.

Everything here trades speed for obviousness: full raster scans instead of
index windows, no spatial hashing, and plain counting loops instead of
vectorised code. Tests compare the fast implementations against these.
"""

from __future__ import annotations

import math

import numpy as np

from damagekit.geom import (EARTH_RADIUS_M, Footprint, GeoPoint, Ring,
                            point_to_footprint_distance_m)
from damagekit.raster import CLASS_DAMAGED, ClassRaster
from damagekit.truth import matching_reference_latitude
from damagekit.zonal import DamageEstimate


OUTSIDE, INSIDE, ON_EDGE = 0, 1, 2


def ring_state(ring: Ring, lon: float, lat: float) -> int:
    """Classify a point against one ring: OUTSIDE, INSIDE or ON_EDGE.

    Even-odd parity over a horizontal ray toward +lon, one edge at a time
    in plain floats. The on-edge test is exact (zero cross product within
    the segment's bounding box); parity alone decides points that are not
    exactly on an edge.
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
        return ON_EDGE
    return INSIDE if parity else OUTSIDE


def scalar_contains(fp: Footprint, p: GeoPoint) -> bool:
    """Reference containment, decided ring by ring with ring_state.

    Boundary points (on the exterior or on a hole edge) count as inside;
    points strictly inside a hole do not.
    """
    b = fp.bounds
    if p.lon < b.min_lon or p.lon > b.max_lon or p.lat < b.min_lat or p.lat > b.max_lat:
        return False
    state = ring_state(fp.exterior, p.lon, p.lat)
    if state == OUTSIDE:
        return False
    if state == ON_EDGE:
        return True
    on_hole = False
    in_hole = False
    for hole in fp.holes:
        hole_state = ring_state(hole, p.lon, p.lat)
        if hole_state == ON_EDGE:
            on_hole = True
        elif hole_state == INSIDE:
            in_hole = True
    if on_hole:
        return True
    return not in_hole


def square_ring(cx: float, cy: float, half: float) -> Ring:
    """Counter-clockwise square ring centred on (cx, cy), in degrees."""
    return Ring((
        GeoPoint(cx - half, cy - half),
        GeoPoint(cx + half, cy - half),
        GeoPoint(cx + half, cy + half),
        GeoPoint(cx - half, cy + half),
        GeoPoint(cx - half, cy - half),
    ))


def square_footprint(fid: str, cx: float, cy: float, half: float,
                     hole_half: float | None = None) -> Footprint:
    holes = () if hole_half is None else (square_ring(cx, cy, hole_half),)
    return Footprint(fid, square_ring(cx, cy, half), holes)


def rect_footprint(fid: str, min_lon: float, min_lat: float,
                   max_lon: float, max_lat: float) -> Footprint:
    ring = Ring((
        GeoPoint(min_lon, min_lat),
        GeoPoint(max_lon, min_lat),
        GeoPoint(max_lon, max_lat),
        GeoPoint(min_lon, max_lat),
        GeoPoint(min_lon, min_lat),
    ))
    return Footprint(fid, ring)


def octagon_footprint(fid: str, cx: float, cy: float, radius: float) -> Footprint:
    points = []
    for k in range(8):
        angle = 2.0 * math.pi * k / 8.0
        points.append(GeoPoint(cx + radius * math.cos(angle),
                               cy + radius * math.sin(angle)))
    points.append(points[0])
    return Footprint(fid, Ring(tuple(points)))


def build_raster(cells, cellsize=0.001, xll=0.0, yll=0.0, nodata=-1) -> ClassRaster:
    cells = np.asarray(cells, dtype=np.int32)
    nrows, ncols = cells.shape
    return ClassRaster(ncols=ncols, nrows=nrows, xll=xll, yll=yll,
                       cellsize=cellsize, nodata=nodata, cells=cells)


def full_scan_assess(raster: ClassRaster, fp: Footprint) -> DamageEstimate:
    """Assess a footprint by scanning every pixel (no index window).

    Uses the same pixel-centre and subcell-centre coordinate arithmetic as
    the library, so a correct windowed implementation must agree exactly.
    """
    n_inside = n_damaged = 0
    for row in range(raster.nrows):
        for col in range(raster.ncols):
            value = int(raster.cells[row, col])
            if value == raster.nodata:
                continue
            lon = raster.xll + (col + 0.5) * raster.cellsize
            lat = raster.yll + (raster.nrows - row - 0.5) * raster.cellsize
            if scalar_contains(fp, GeoPoint(lon, lat)):
                n_inside += 1
                if value == CLASS_DAMAGED:
                    n_damaged += 1
    if n_inside > 0:
        return DamageEstimate(fp.id, 100.0 * n_damaged / n_inside,
                              n_inside, n_damaged)

    offsets = [(k + 0.5) / 4.0 for k in range(4)]
    for row in range(raster.nrows):
        for col in range(raster.ncols):
            value = int(raster.cells[row, col])
            if value == raster.nodata:
                continue
            for frac_y in offsets:
                for frac_x in offsets:
                    lon = raster.xll + (col + frac_x) * raster.cellsize
                    lat = raster.yll + (raster.nrows - (row + frac_y)) * raster.cellsize
                    if scalar_contains(fp, GeoPoint(lon, lat)):
                        n_inside += 1
                        if value == CLASS_DAMAGED:
                            n_damaged += 1
    if n_inside > 0:
        return DamageEstimate(fp.id, 100.0 * n_damaged / n_inside,
                              n_inside, n_damaged, supersampled=True)
    return DamageEstimate(fp.id, 0.0, 0, 0, no_coverage=True)


def brute_force_match(points, footprints, radius_m):
    """Nearest footprint per point by checking every footprint.

    Distance ties break toward the lexicographically smaller footprint id.
    Returns (matched (point_id, footprint_id, distance) triples, unmatched ids).
    """
    ref_lat = matching_reference_latitude(points, footprints)
    matched = []
    unmatched = []
    for p in points:
        best = None
        for fp in footprints:
            d = point_to_footprint_distance_m(p.location, fp, ref_lat)
            if best is None or (d, fp.id) < best:
                best = (d, fp.id)
        if best is not None and best[0] <= radius_m:
            matched.append((p.id, best[1], best[0]))
        else:
            unmatched.append(p.id)
    return matched, unmatched


def bbox_prefiltered_match(points, footprints, radius_m):
    """Brute-force matcher with a bounding-box lower-bound prefilter.

    Same results as brute_force_match: the planar distance from a point to
    a footprint's bounding box never exceeds the distance to the footprint
    itself, so candidates rejected by the prefilter cannot fall within the
    radius. Fast enough for large cross-check scenes.
    """
    ref_lat = matching_reference_latitude(points, footprints)
    kx = math.cos(ref_lat * math.pi / 180.0) * EARTH_RADIUS_M * math.pi / 180.0
    ky = EARTH_RADIUS_M * math.pi / 180.0
    min_x = np.array([fp.bounds.min_lon for fp in footprints]) * kx
    max_x = np.array([fp.bounds.max_lon for fp in footprints]) * kx
    min_y = np.array([fp.bounds.min_lat for fp in footprints]) * ky
    max_y = np.array([fp.bounds.max_lat for fp in footprints]) * ky

    matched = []
    unmatched = []
    cutoff = radius_m + 1e-6
    for p in points:
        px = p.location.lon * kx
        py = p.location.lat * ky
        dx = np.maximum(0.0, np.maximum(min_x - px, px - max_x))
        dy = np.maximum(0.0, np.maximum(min_y - py, py - max_y))
        candidates = np.flatnonzero(dx * dx + dy * dy <= cutoff * cutoff)
        best = None
        for idx in candidates:
            fp = footprints[idx]
            d = point_to_footprint_distance_m(p.location, fp, ref_lat)
            if best is None or (d, fp.id) < best:
                best = (d, fp.id)
        if best is not None and best[0] <= radius_m:
            matched.append((p.id, best[1], best[0]))
        else:
            unmatched.append(p.id)
    return matched, unmatched


def brute_average_precision(damage_pcts, labels):
    """Step-sum average precision recomputed from scratch.

    Thresholds are 100, every distinct estimate, and 0, swept in decreasing
    order; a sample is predicted damaged when its estimate strictly exceeds
    the threshold; empty prediction sets score precision 1.
    """
    thetas = sorted({100.0, 0.0, *damage_pcts}, reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for theta in thetas:
        tp = sum(1 for s, l in zip(damage_pcts, labels) if s > theta and l == 1)
        fp = sum(1 for s, l in zip(damage_pcts, labels) if s > theta and l == 0)
        fn = sum(1 for s, l in zip(damage_pcts, labels) if s <= theta and l == 1)
        precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
        recall = tp / (tp + fn)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def splitmix64_next(state: int) -> tuple[int, int]:
    """One scalar SplitMix64 step: returns (new_state, 64-bit output)."""
    mask = (1 << 64) - 1
    state = (state + 0x9E3779B97F4A7C15) & mask
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return state, z ^ (z >> 31)


def splitmix64_units(seed: int, n: int) -> tuple[list[float], int]:
    """n unit draws (output + 0.5) / 2**64, one scalar step at a time,
    and the state after the last step."""
    state = seed & ((1 << 64) - 1)
    units = []
    for _ in range(n):
        state, output = splitmix64_next(state)
        units.append((output + 0.5) / 2.0 ** 64)
    return units, state
