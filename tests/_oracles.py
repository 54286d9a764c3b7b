"""Brute-force reference implementations used to cross-check the library.

Everything here trades speed for obviousness: full raster scans instead of
index windows, no spatial hashing, and plain counting loops instead of
vectorised code. Tests compare the fast implementations against these.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from damagekit.errors import (CellCountMismatch, DuplicateFootprintId,
                              DuplicatePointId, EmptySampleSet,
                              InvalidClassCode, MissingEstimate, MissingHeaderKey,
                              MissingPoint, NoPositiveSamples, NonIntegerCell,
                              ParseError, check_unique)
from damagekit.formats import (parse_assessed_geojson, parse_footprints_with_properties,
                               parse_json, round_half_up)
from damagekit.geom import (EARTH_RADIUS_M, Footprint, GeoPoint, Ring, _centres,
                            _crossing, _on_edge, metres_per_degree)
from damagekit.metrics import PRCurve, PRPoint
from damagekit.plot import _x, _y
from damagekit.raster import (_HEADER_RULES, CLASS_DAMAGED, DEFAULT_NODATA,
                              VALID_CLASSES, ClassRaster, _header_value)
from damagekit.truth import FemaCategory, GroundTruthPoint, MatchedSample, PointMatch
from damagekit.zonal import DamageEstimate


OUTSIDE, INSIDE, ON_EDGE = 0, 1, 2


def vertices(ring: Ring) -> tuple[GeoPoint, ...]:
    """The ring's vertices as GeoPoints, the closing vertex included."""
    return tuple(GeoPoint(lon, lat) for lon, lat in ring.coords.tolist())


def ring_state(ring: Ring, lon: float, lat: float) -> int:
    """Classify a point against one ring: OUTSIDE, INSIDE or ON_EDGE.

    Even-odd parity over a horizontal ray toward +lon, one edge at a time
    in plain floats. The on-edge test is exact (zero cross product within
    the segment's bounding box); parity alone decides points that are not
    exactly on an edge.
    """
    on_edge = False
    parity = False
    verts = vertices(ring)
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


def ring_hits(ring: Ring, x, y):
    """(on_edge, parity) boolean arrays of arrays of points against a ring.

    x and y are numpy arrays that broadcast together. Even-odd parity over a
    horizontal ray toward +lon, one edge at a time over every point. The
    on-edge test is exact; parity alone decides points that are not exactly
    on an edge. A horizontal edge never straddles the ray, so it takes no
    part in the parity.
    """
    on_edge = parity = False
    xs, ys = ring.coords.T.tolist()
    for x1, y1, x2, y2 in zip(xs, ys, xs[1:], ys[1:]):
        on_edge |= _on_edge(x1, y1, x2, y2, x, y)
        if y1 != y2:
            straddles, x_cross = _crossing(x1, y1, x2, y2, y)
            parity ^= straddles & (x < x_cross)
    return on_edge, parity


def contains_many(fp: Footprint, lons, lats) -> np.ndarray:
    """Containment of arrays of points (broadcast together) in a footprint,
    ring by ring with ring_hits and no bounding-box test: the reference of
    geom.inside_pixels.

    A point on the exterior is inside; a point inside the exterior is
    inside unless it lies strictly inside a hole and on no hole edge.
    """
    # "^ True" negates bools and boolean arrays alike; ~True is -2.
    x, y = np.asarray(lons), np.asarray(lats)
    on_ext, par_ext = ring_hits(fp.exterior, x, y)
    on_hole = in_hole = False
    for hole in fp.holes:
        on_h, par_h = ring_hits(hole, x, y)
        on_hole |= on_h
        in_hole |= par_h
    knocked_out = in_hole & (on_hole ^ True)
    return on_ext | (par_ext & (knocked_out ^ True))


def segment_dist_sq(px, py, x1, y1, x2, y2):
    """Squared distance from (px, py) to the segment (x1, y1)-(x2, y2); a
    segment whose squared length is 0 measures to its first end."""
    dx = x2 - x1
    dy = y2 - y1
    den = dx * dx + dy * dy
    t = ((px - x1) * dx + (py - y1) * dy) / den if den > 0.0 else 0.0
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
    at ref_lat, one segment at a time.
    """
    if scalar_contains(fp, p):
        return 0.0
    kx, ky = metres_per_degree(ref_lat)
    px = p.lon * kx
    py = p.lat * ky
    best_sq = math.inf
    for ring in (fp.exterior, *fp.holes):
        verts = vertices(ring)
        for i in range(len(verts) - 1):
            d_sq = segment_dist_sq(px, py,
                                   verts[i].lon * kx, verts[i].lat * ky,
                                   verts[i + 1].lon * kx, verts[i + 1].lat * ky)
            if d_sq < best_sq:
                best_sq = d_sq
    return math.sqrt(best_sq)


def reference_latitude(points, footprints) -> float:
    """Mean latitude of the points and the ring vertices (closing vertex
    excluded), gathered one value at a time in a Python loop: the sum is
    exact, in fractions, and rounded once, as math.fsum rounds it."""
    lats = [p.location.lat for p in points]
    for fp in footprints:
        for ring in (fp.exterior, *fp.holes):
            for v in vertices(ring)[:-1]:
                lats.append(v.lat)
    return float(sum(map(Fraction, lats))) / len(lats) if lats else 0.0


def _checked_id(text: str, source, line=None) -> str:
    """text, if it is a valid id: one or more of [A-Za-z0-9_-]."""
    if not re.fullmatch(r"[A-Za-z0-9_-]+", text):
        raise ParseError(f"id {text!r} is not in [A-Za-z0-9_-]+",
                         source=source, line=line)
    return text


def _parse_feature(feature, index, source):
    """One GeoJSON Feature as (Footprint, its properties dict)."""
    if not isinstance(feature, dict) or feature.get("type") != "Feature":
        raise ParseError(f"feature {index} is not a GeoJSON Feature",
                         source=source)
    properties = feature.get("properties")
    if properties is None:
        properties = {}
    elif not isinstance(properties, dict):
        raise ParseError(f"feature {index} properties must be an object",
                         source=source)
    fid = feature.get("id", properties.get("id"))
    if fid is None or fid == "":
        raise ParseError(f"feature {index} has no id", source=source)
    if isinstance(fid, bool) or not isinstance(fid, (str, int)):
        raise ParseError(f"feature {index} id {fid!r} is not a string or integer",
                         source=source)
    fid = _checked_id(str(fid), source)
    geometry = feature.get("geometry")
    if not isinstance(geometry, dict) or geometry.get("type") != "Polygon":
        raise ParseError(f"feature {fid!r} geometry must be a Polygon",
                         source=source)
    rings = geometry.get("coordinates")
    if not isinstance(rings, list) or not rings:
        raise ParseError(f"feature {fid!r} has no polygon rings", source=source)
    built = []
    for ring in rings:
        try:
            points = []
            for vertex in ring:
                if not isinstance(vertex, (list, tuple)) or len(vertex) != 2:
                    raise TypeError(f"vertex {vertex!r} is not a pair of numbers")
                lon, lat = vertex
                bad = [v for v in (lon, lat) if type(v) not in (int, float)]
                if bad:
                    raise TypeError(f"coordinate {bad[0]!r} is not a number")
                points.append(GeoPoint(float(lon), float(lat)))
            built.append(Ring(tuple(points)))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"feature {fid!r}: {exc}", source=source) from exc
    try:
        return Footprint(fid, built[0], tuple(built[1:])), properties
    except ValueError as exc:
        raise ParseError(f"feature {fid!r}: {exc}", source=source) from exc


def parse_footprints_one_by_one(text: str, source="<geojson>"):
    """The FeatureCollection reader one feature, ring and GeoPoint at a
    time: ([Footprint], [input properties])."""
    doc = parse_json(text, source)
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ParseError("expected a GeoJSON FeatureCollection", source=source)
    features = doc.get("features")
    if not isinstance(features, list):
        raise ParseError("FeatureCollection has no feature list", source=source)
    parsed = [_parse_feature(f, i, source) for i, f in enumerate(features)]
    return [fp for fp, _ in parsed], [properties for _, properties in parsed]


def collection_text(footprints, properties) -> str:
    """The FeatureCollection writer one dict per feature and per geometry,
    through one json.dumps of the whole document: the bytes that
    formats.write_footprints_geojson and write_assessed_geojson must give."""
    doc = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "id": fp.id,
             "geometry": {"type": "Polygon", "coordinates": [
                 r.coords.tolist() for r in (fp.exterior, *fp.holes)]},
             "properties": props}
            for fp, props in zip(footprints, properties)
        ],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def assessed_properties(estimates, input_properties=None) -> list[dict]:
    """write_assessed_geojson's properties, one estimate at a time: the input
    properties, then damage_pct rounded by formats.round_half_up and the
    counts and flags."""
    properties = []
    for idx, est in enumerate(estimates):
        props = dict(input_properties[idx]) if input_properties else {}
        props.update({
            "damage_pct": round_half_up(est.damage_pct),
            "n_inside": est.n_inside,
            "n_damaged": est.n_damaged,
            "supersampled": est.supersampled,
            "no_coverage": est.no_coverage,
        })
        properties.append(props)
    return properties


def estimates_one_by_one(text: str, source="<geojson>") -> list[DamageEstimate]:
    """The assessed-properties reader one feature at a time, after the
    library's collection checks: each feature's counts must be JSON integers,
    0 <= n_damaged <= n_inside <= 2**53, and its flags JSON booleans."""
    footprints, properties = parse_footprints_with_properties(text, source)
    estimates = []
    for fid, props in zip(footprints.ids, properties):
        n_inside, n_damaged = props.get("n_inside"), props.get("n_damaged")
        supersampled = props.get("supersampled")
        no_coverage = props.get("no_coverage")
        if not (type(n_inside) is int and type(n_damaged) is int
                and 0 <= n_damaged <= n_inside <= 2**53
                and isinstance(supersampled, bool)
                and isinstance(no_coverage, bool)):
            raise ParseError(f"feature {fid!r} lacks assessment properties "
                             "(integer counts 0 <= n_damaged <= n_inside <= 2**53, "
                             "boolean flags)", source=source)
        pct = 100.0 * n_damaged / n_inside if n_inside > 0 else 0.0
        estimates.append(DamageEstimate(fid, pct, n_inside, n_damaged,
                                        supersampled, no_coverage))
    return estimates


def parse_estimates_geojson(text: str, source="<geojson>"):
    """The estimates that formats.parse_assessed_geojson reads."""
    return parse_assessed_geojson(text, source)[1]


# ------------------------------------------------------ CSV, one row at a time

def csv_rows(text: str, source, header: str):
    """(line number, fields) per data row, one field per header column.
    Lines end at LF, CR LF or CR only; blank lines are skipped."""
    lines = re.split(r"\r\n|\r|\n", text)
    if lines[0].strip() != header:
        raise ParseError(f"expected header {header!r}", source=source, line=1)
    width = header.count(",") + 1
    for number, line in enumerate(lines[1:], start=2):
        if line.strip():
            fields = line.split(",")
            if len(fields) != width:
                raise ParseError(f"expected {width} fields, got {len(fields)}",
                                 source=source, line=number)
            yield number, fields


def parse_truth_csv_by_row(text: str, source="<csv>") -> list[GroundTruthPoint]:
    points = []
    for number, (pid, lon_text, lat_text, label) in csv_rows(
            text, source, "point_id,lon,lat,category"):
        _checked_id(pid, source, number)
        try:
            location = GeoPoint(float(lon_text), float(lat_text))
        except ValueError as exc:
            raise ParseError(str(exc), source=source, line=number) from exc
        points.append(GroundTruthPoint(pid, location,
                                       FemaCategory.from_label(label, source, number)))
    return points


def parse_matches_csv_by_row(text: str, source="<csv>"):
    matched = []
    unmatched = []
    for number, (pid, fid, distance_text) in csv_rows(
            text, source, "point_id,footprint_id,distance_m"):
        _checked_id(pid, source, number)
        if fid == "" and distance_text == "":
            unmatched.append(pid)
            continue
        _checked_id(fid, source, number)
        try:
            distance = float(distance_text)
        except ValueError:
            distance = math.nan
        if not 0.0 <= distance < math.inf:
            raise ParseError(f"bad distance {distance_text!r}, not a finite number >= 0",
                             source=source, line=number)
        matched.append(PointMatch(pid, fid, distance))
    return matched, unmatched


def parse_oracle_csv_by_row(text: str, source="<csv>") -> dict[str, FemaCategory]:
    oracle = {}
    for number, (fid, label) in csv_rows(text, source, "footprint_id,category"):
        category = FemaCategory.from_label(label, source, number)
        oracle[_checked_id(fid, source, number)] = category
    return oracle


def parse_curve_csv_by_row(text: str, source="<csv>") -> PRCurve:
    rows = []
    for number, fields in csv_rows(text, source, "theta,precision,recall"):
        try:
            theta, precision, recall = map(float, fields)
        except ValueError as exc:
            raise ParseError("bad curve row", source=source,
                             line=number) from exc
        if not (0.0 <= theta <= 100.0 and 0.0 <= precision <= 1.0 and 0.0 <= recall <= 1.0):
            raise ParseError("bad curve row: theta must lie in [0, 100] and precision "
                             "and recall in [0, 1]", source=source, line=number)
        rows.append((theta, precision, recall))
    if not rows:
        raise ParseError("curve has no data rows", source=source, line=1)
    return PRCurve(*zip(*rows))


def write_curve_csv_by_row(points: list[PRPoint]) -> str:
    """The curve CSV one PRPoint at a time, each number through repr."""
    rows = (f"{p.theta!r},{p.precision!r},{p.recall!r}" for p in points)
    return "\n".join(["theta,precision,recall", *rows]) + "\n"


def polyline_by_point(points: list[PRPoint]) -> str:
    """The SVG polyline's points attribute, mapped and formatted one point
    at a time."""
    return " ".join(f"{_x(p.recall):.2f},{_y(p.precision):.2f}" for p in points)


# ------------------------------------------------------------------ joins

def binarize(category: FemaCategory, scheme) -> int:
    """1 when the category counts as damaged under the scheme, else 0."""
    return int(category in scheme.damaged)


def join_samples_by_row(matched: list[PointMatch], estimates: list[DamageEstimate],
                        points: list[GroundTruthPoint], scheme) -> list[MatchedSample]:
    """The join over object lists: dicts by id, the duplicate checks in order
    (estimates, points, matches), then one pass over the matches."""
    pct = {e.footprint_id: e.damage_pct for e in estimates}
    label = {p.id: binarize(p.category, scheme) for p in points}
    if len(pct) < len(estimates):
        check_unique((e.footprint_id for e in estimates), DuplicateFootprintId, "footprint")
    if len(label) < len(points):
        check_unique((p.id for p in points), DuplicatePointId, "point")
    if len({m.point_id for m in matched}) < len(matched):
        check_unique((m.point_id for m in matched), DuplicatePointId, "matched point")
    for pid, fid, _ in matched:
        if fid not in pct:
            raise MissingEstimate(f"no damage estimate for matched footprint {fid!r}")
        if pid not in label:
            raise MissingPoint(f"matched point {pid!r} not in point list")
    return [MatchedSample(*m, label[m.point_id], pct[m.footprint_id]) for m in matched]


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


def pixel_window(frame, fp: Footprint):
    """(window, inside) for one footprint on a raster frame, or None off it:
    the per-footprint reference of geom.inside_pixels.

    window is the (row slice, column slice) of the footprint's bounding box
    padded by one cell; inside is the contains_many mask of the window's
    pixel centres.
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


def zonal_estimate(raster: ClassRaster, fp: Footprint) -> DamageEstimate:
    """The estimate of one footprint from its pixel_window and, when no
    pixel centre is usable, the 4x4 subcell centres of every window pixel:
    the per-footprint reference of zonal.assess_all."""
    hit = pixel_window(raster.frame, fp)
    if hit is None:
        return DamageEstimate(fp.id, 0.0, 0, 0, supersampled=False, no_coverage=True)
    window, inside = hit
    cells = raster.cells[window]
    usable = inside & (cells != raster.nodata)
    supersampled = not usable.any()
    if supersampled:
        rows_slice, cols_slice = window
        cols = np.arange(cols_slice.start, cols_slice.stop, dtype=np.float64)
        rows = np.arange(rows_slice.start, rows_slice.stop, dtype=np.float64)
        sub = (np.arange(4, dtype=np.float64) + 0.5) / 4.0
        cols_f = (cols[:, np.newaxis] + sub[np.newaxis, :]).ravel()
        rows_f = (rows[:, np.newaxis] + sub[np.newaxis, :]).ravel()
        sub_lons = raster.xll + cols_f * raster.cellsize
        sub_lats = raster.yll + (raster.nrows - rows_f) * raster.cellsize
        cells = np.repeat(np.repeat(cells, 4, axis=0), 4, axis=1)
        inside = contains_many(fp, sub_lons[np.newaxis, :], sub_lats[:, np.newaxis])
        usable = inside & (cells != raster.nodata)
    n_inside = int(np.count_nonzero(usable))
    n_damaged = int(np.count_nonzero(usable & (cells == CLASS_DAMAGED)))
    if n_inside == 0:
        return DamageEstimate(fp.id, 0.0, 0, 0, supersampled=False, no_coverage=True)
    return DamageEstimate(fp.id, 100.0 * n_damaged / n_inside, n_inside,
                          n_damaged, supersampled=supersampled)


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
    ref_lat = reference_latitude(points, footprints)
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
    ref_lat = reference_latitude(points, footprints)
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


@dataclass(frozen=True)
class ConfusionAtTheta:
    theta: float
    tp: int
    fp: int
    fn: int


def confusion(samples: list[MatchedSample], theta: float) -> ConfusionAtTheta:
    """Confusion counts at one threshold (predicted damaged: pct > theta)."""
    if not samples:
        raise EmptySampleSet("confusion counts need at least one sample")
    tp = fp = fn = 0
    for s in samples:
        if s.damage_pct > theta:
            if s.label == 1:
                tp += 1
            else:
                fp += 1
        elif s.label == 1:
            fn += 1
    return ConfusionAtTheta(theta=theta, tp=tp, fp=fp, fn=fn)


def precision_recall(c: ConfusionAtTheta) -> tuple[float, float]:
    """Precision and recall for one confusion; empty predictions give P=1."""
    if c.tp + c.fn == 0:
        raise NoPositiveSamples("recall undefined without positive samples")
    precision = 1.0 if c.tp + c.fp == 0 else c.tp / (c.tp + c.fp)
    recall = c.tp / (c.tp + c.fn)
    return precision, recall


def pr_curve(samples: list[MatchedSample]) -> list[PRPoint]:
    """Precision-recall curve over decreasing thresholds, one confusion
    per threshold.

    The threshold set is {100} plus every distinct estimate plus {0},
    swept in strictly decreasing order, so the curve runs from recall 0
    at theta=100 down to the theta=0 operating point.
    """
    if not samples:
        raise EmptySampleSet("a PR curve needs at least one sample")
    if not any(s.label == 1 for s in samples):
        raise NoPositiveSamples("a PR curve needs at least one positive sample")
    thetas = {100.0, 0.0}
    thetas.update(s.damage_pct for s in samples)
    points = []
    previous_recall = -1.0
    for theta in sorted(thetas, reverse=True):
        precision, recall = precision_recall(confusion(samples, theta))
        assert recall >= previous_recall, "recall must not decrease"
        previous_recall = recall
        points.append(PRPoint(theta=theta, precision=precision, recall=recall))
    return points


def sweep_pr_curve(samples: list[MatchedSample]) -> list[PRPoint]:
    """The same curve by one sweep over the sorted thresholds, with running
    counts of the samples strictly above each; a theta is the estimate
    itself, so an int estimate gives an int theta."""
    positives = Counter(s.damage_pct for s in samples if s.label == 1)
    negatives = Counter(s.damage_pct for s in samples if s.label != 1)
    n_positive = positives.total()
    if n_positive == 0:
        raise NoPositiveSamples("a PR curve needs at least one positive sample")
    thetas = {100.0, 0.0}
    thetas.update(s.damage_pct for s in samples)
    points = []
    tp = fp = 0
    for theta in sorted(thetas, reverse=True):
        precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
        points.append(PRPoint(theta=theta, precision=precision, recall=tp / n_positive))
        tp += positives[theta]
        fp += negatives[theta]
    return points


def step_sum(points: list[PRPoint]) -> float:
    """AP as the curve's steps added one at a time, left to right."""
    ap = previous_recall = 0.0
    for p in points:
        ap += (p.recall - previous_recall) * p.precision
        previous_recall = p.recall
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


def noise_in_one_block(cells, rng, rate):
    """synth's pixel noise drawn for the whole raster in one block: flip
    decision then replacement class per cell, row-major."""
    draws = rng.unit_array(2 * cells.size)
    flip = draws[0::2] < rate
    replacement = np.floor(draws[1::2] * 3.0).astype(np.int32)
    flat = cells.ravel()
    flat[flip] = replacement[flip]
    return cells



# synth's survey, one building and one point at a time.

def swath_distance_m(spec, p: GeoPoint) -> float:
    """Metres from p to the swath centreline segment, converting both swath
    ends to metres on every call; a zero-length swath measures to its start."""
    px, py = spec._to_metric(p.lon, p.lat)
    x1, y1 = spec._to_metric(spec.swath_start.lon, spec.swath_start.lat)
    x2, y2 = spec._to_metric(spec.swath_end.lon, spec.swath_end.lat)
    dx = x2 - x1
    dy = y2 - y1
    denom = dx * dx + dy * dy
    if denom == 0.0:
        return math.hypot(px - x1, py - y1)
    t = ((px - x1) * dx + (py - y1) * dy) / denom
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(px - (x1 + t * dx), py - (y1 + t * dy))


def swath_category(spec, centroid: GeoPoint) -> FemaCategory:
    """The band rule, one centroid at a time: a distance on a band's edge
    falls in the inner band."""
    d = swath_distance_m(spec, centroid)
    w = spec.swath_width_m
    if d <= 0.5 * w:
        return FemaCategory.DESTROYED
    if d <= w:
        return FemaCategory.MAJOR_DAMAGE
    if d <= 1.5 * w:
        return FemaCategory.MINOR_DAMAGE
    if d <= 2.0 * w:
        return FemaCategory.AFFECTED
    return FemaCategory.NO_VISIBLE_DAMAGE


def survey_one_by_one(spec, centroids, categories, draws):
    """Truth points from (drop, u1, u2) draw triples, one point at a time: a
    drop decision, then one Box-Muller pair for the x/y jitter in metres."""
    sigma = spec.point_jitter_sigma_m
    truth = []
    for k, (centroid, category, (drop_draw, u1, u2)) in enumerate(
            zip(centroids, categories, draws)):
        if drop_draw < spec.point_drop_rate:
            continue
        radius = math.sqrt(-2.0 * math.log(u1))
        dx = sigma * (radius * math.cos(2.0 * math.pi * u2))
        dy = sigma * (radius * math.sin(2.0 * math.pi * u2))
        location = GeoPoint(centroid.lon + dx / spec.m_per_deg_lon,
                            centroid.lat + dy / spec.m_per_deg_lat)
        truth.append(GroundTruthPoint(f"p{k:06d}", location, category))
    return truth


def scene_survey_one_by_one(spec, noise_cells: int):
    """(truth points, oracle categories) of a scene, built from scalar draws:
    two per building for its jitter, two per cell of a noisy raster of
    noise_cells cells, then three per point."""
    n = spec.grid_rows * spec.grid_cols
    units, state = splitmix64_units(spec.seed, 2 * n)
    pitch = spec.building_size_m + spec.spacing_m
    jitter_range = spec.spacing_m / 8.0
    centroids = []
    for k in range(n):
        row, col = divmod(k, spec.grid_cols)
        x = (col + 0.5) * pitch + (units[2 * k] * 2.0 - 1.0) * jitter_range
        y = (row + 0.5) * pitch + (units[2 * k + 1] * 2.0 - 1.0) * jitter_range
        centroids.append(GeoPoint(spec.origin.lon + x / spec.m_per_deg_lon,
                                  spec.origin.lat + y / spec.m_per_deg_lat))
    categories = [swath_category(spec, c) for c in centroids]
    if spec.pixel_noise_rate > 0.0:
        state += 2 * noise_cells * 0x9E3779B97F4A7C15
    units, _ = splitmix64_units(state, 3 * n)
    draws = [units[3 * k:3 * k + 3] for k in range(n)]
    oracle = {f"b{k:06d}": category for k, category in enumerate(categories)}
    return survey_one_by_one(spec, centroids, categories, draws), oracle

# The raster reader and writer as one token and one str() at a time.

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
