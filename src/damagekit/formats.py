"""File formats: GeoJSON footprints, CSV tables, and the report JSON.

Writers emit canonical bytes (LF endings, fixed key order, repr floats) so
identical inputs always serialise identically. Readers raise ParseError with
file and line information where it is known. CSV files here are plain
comma-separated with no quoting; ids are restricted to [A-Za-z0-9_-].
"""

from __future__ import annotations

import json
import math
import re
from decimal import ROUND_HALF_UP, Decimal
from itertools import chain

import numpy as np

from .errors import ParseError, UnwritableOutput
from .geom import Footprint, GeoPoint, _built_footprints, _checked_rings, footprint_of
from .metrics import PRPoint, ValidationReport
from .truth import FemaCategory, GroundTruthPoint, PointMatch
from .zonal import DamageEstimate

TRUTH_HEADER = "point_id,lon,lat,category"
MATCH_HEADER = "point_id,footprint_id,distance_m"
CURVE_HEADER = "theta,precision,recall"
ORACLE_HEADER = "footprint_id,category"

_ID = re.compile(r"[A-Za-z0-9_-]+")


def read_text(path) -> str:
    """The file's text, read as UTF-8 with universal newlines."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(exc.strerror or str(exc), source=path) from exc
    except UnicodeDecodeError as exc:
        # read() decodes the whole file at once, so exc.object is its bytes.
        before = exc.object[:exc.start]
        line = (before.count(b"\n") + before.count(b"\r")
                - before.count(b"\r\n") + 1)
        raise ParseError(
            f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})",
            source=path, line=line) from None


def write_text(path, text: str) -> None:
    """Write text to the file as UTF-8, newlines untranslated."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise UnwritableOutput(path, exc.strerror or exc) from exc


def _checked_id(text: str, source, line=None) -> str:
    """text, if it is a valid id: one or more of [A-Za-z0-9_-]."""
    if not _ID.fullmatch(text):
        raise ParseError(f"id {text!r} is not in [A-Za-z0-9_-]+",
                         source=source, line=line)
    return text


# ---------------------------------------------------------------- GeoJSON

def parse_json(text: str, source):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", source=source,
                         line=exc.lineno) from exc
    except (ValueError, RecursionError) as exc:  # past the digit or nesting limit
        raise ParseError(f"invalid JSON: {exc}", source=source) from exc


def _feature_parts(feature, index, source):
    """(id, properties, rings) of one GeoJSON Feature, its rings unchecked."""
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
    fid = _checked_id(str(fid), source)
    geometry = feature.get("geometry") or {}
    if geometry.get("type") != "Polygon":
        raise ParseError(f"feature {fid!r} geometry must be a Polygon",
                         source=source)
    rings = geometry.get("coordinates")
    if not isinstance(rings, list) or not rings:
        raise ParseError(f"feature {fid!r} has no polygon rings", source=source)
    return fid, properties, rings


def _collection_parts(text: str, source):
    """(ids, properties, coords, counts, checked) of a FeatureCollection, with
    checked what _checked_rings returns. On any fault the features are read
    again one at a time, which raises the first fault's ParseError."""
    doc = parse_json(text, source)
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ParseError("expected a GeoJSON FeatureCollection", source=source)
    features = doc.get("features")
    if not isinstance(features, list):
        raise ParseError("FeatureCollection has no feature list", source=source)
    try:
        parts = [_feature_parts(f, i, source) for i, f in enumerate(features)]
        ids, properties, rings = ([part[k] for part in parts] for k in range(3))
        vertices = list(chain.from_iterable(chain.from_iterable(rings)))
        numbers = list(chain.from_iterable(vertices))  # JSON numbers: no bool, no string
        if set(map(len, vertices)) <= {2} and set(map(type, numbers)) <= {int, float}:
            coords = np.array(numbers, dtype=np.float64).reshape(-1, 2)
            counts = [len(rs) for rs in rings]
            checked = _checked_rings(coords, [len(r) for rs in rings for r in rs], counts)
            if checked is not None:
                return ids, properties, coords, counts, checked
    except (ParseError, TypeError, ValueError, OverflowError):
        pass
    for index, feature in enumerate(features):
        fid, _, rings = _feature_parts(feature, index, source)
        try:
            footprint_of(fid, rings)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"feature {fid!r}: {exc}", source=source) from exc
    raise AssertionError("_checked_rings rejected rings that footprint_of accepts")


def parse_footprints_with_properties(text: str, source="<geojson>"):
    """Parse a FeatureCollection into ([Footprint], [input properties])."""
    ids, properties, coords, counts, checked = _collection_parts(text, source)
    return _built_footprints(ids, coords, counts, checked), properties


def parse_footprints_geojson(text: str, source="<geojson>") -> list[Footprint]:
    return parse_footprints_with_properties(text, source)[0]


def load_footprints(path) -> list[Footprint]:
    return parse_footprints_geojson(read_text(path), source=path)


def _footprint_geometry(fp: Footprint):
    return {"type": "Polygon",
            "coordinates": [r.coords.tolist() for r in (fp.exterior, *fp.holes)]}


def _collection(footprints: list[Footprint], properties) -> str:
    """Compact FeatureCollection text, one properties dict per footprint."""
    doc = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "id": fp.id,
             "geometry": _footprint_geometry(fp), "properties": props}
            for fp, props in zip(footprints, properties)
        ],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def write_footprints_geojson(footprints: list[Footprint]) -> str:
    return _collection(footprints, [{}] * len(footprints))


def round_half_up(value: float, places: int = 2) -> float:
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(str(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def write_assessed_geojson(footprints: list[Footprint],
                           estimates: list[DamageEstimate],
                           input_properties: list[dict] | None = None) -> str:
    """Footprints plus their estimates: damage_pct is rounded half-up to
    two decimals; the integer counts keep full fidelity."""
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
    return _collection(footprints, properties)


def parse_assessed_geojson(text: str, source="<geojson>"):
    """Read an assessed collection back as (footprints, estimates).

    The working damage percentage is rebuilt from the stored counts, so the
    two-decimal display rounding of damage_pct loses nothing downstream.
    """
    footprints, properties = parse_footprints_with_properties(text, source)
    return footprints, _estimates([fp.id for fp in footprints], properties, source)


def parse_estimates_geojson(text: str, source="<geojson>") -> list[DamageEstimate]:
    """parse_assessed_geojson(text, source)[1], same checks, no Footprint built."""
    return _estimates(*_collection_parts(text, source)[:2], source)


def _estimates(ids, properties, source) -> list[DamageEstimate]:
    """The estimates in assessed features' properties: the counts must be JSON
    integers, 0 <= n_damaged <= n_inside <= 2**53, and the flags JSON booleans."""
    estimates = []
    for fid, props in zip(ids, properties):
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


# -------------------------------------------------------------------- CSV

def _rows(text: str, source, header: str):
    """(line number, fields) per data row, one field per header column."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise ParseError(f"expected header {header!r}", source=source, line=1)
    width = header.count(",") + 1
    for number, line in enumerate(lines[1:], start=2):
        if line.strip():
            fields = line.split(",")
            if len(fields) != width:
                raise ParseError(f"expected {width} fields, got {len(fields)}",
                                 source=source, line=number)
            yield number, fields


def _csv(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def write_truth_csv(points: list[GroundTruthPoint]) -> str:
    return _csv(TRUTH_HEADER, (f"{p.id},{p.location.lon!r},{p.location.lat!r},"
                               f"{p.category.label}" for p in points))


def parse_truth_csv(text: str, source="<csv>") -> list[GroundTruthPoint]:
    points = []
    for number, (pid, lon_text, lat_text, label) in _rows(text, source,
                                                           TRUTH_HEADER):
        _checked_id(pid, source, number)
        try:
            location = GeoPoint(float(lon_text), float(lat_text))
        except ValueError as exc:
            raise ParseError(str(exc), source=source, line=number) from exc
        points.append(GroundTruthPoint(pid, location,
                                       FemaCategory.from_label(label, source, number)))
    return points


def load_truth(path) -> list[GroundTruthPoint]:
    return parse_truth_csv(read_text(path), source=path)


def write_matches_csv(point_ids: list[str],
                      matched: list[PointMatch],
                      unmatched: list[str]) -> str:
    """One row per input point in input order; unmatched rows leave the
    footprint and distance fields empty."""
    by_point = {m.point_id: m for m in matched}
    unmatched_set = set(unmatched)
    rows = []
    for pid in point_ids:
        m = by_point.get(pid)
        if m is not None:
            rows.append(f"{pid},{m.footprint_id},{m.distance_m!r}")
        elif pid in unmatched_set:
            rows.append(f"{pid},,")
        else:
            raise ValueError(f"point {pid!r} neither matched nor unmatched")
    return _csv(MATCH_HEADER, rows)


def parse_matches_csv(text: str, source="<csv>"):
    matched = []
    unmatched = []
    for number, (pid, fid, distance_text) in _rows(text, source, MATCH_HEADER):
        _checked_id(pid, source, number)
        if fid == "" and distance_text == "":
            unmatched.append(pid)
            continue
        _checked_id(fid, source, number)
        try:
            distance = float(distance_text)
        except ValueError:
            distance = math.nan
        if not 0.0 <= distance < math.inf:  # what match writes: finite, 0 or more
            raise ParseError(f"bad distance {distance_text!r}, not a finite number >= 0",
                             source=source, line=number)
        matched.append(PointMatch(pid, fid, distance))
    return matched, unmatched


def write_oracle_csv(oracle_categories: dict[str, FemaCategory]) -> str:
    return _csv(ORACLE_HEADER, (f"{fid},{category.label}"
                                for fid, category in oracle_categories.items()))


def parse_oracle_csv(text: str, source="<csv>") -> dict[str, FemaCategory]:
    oracle = {}
    for number, (fid, label) in _rows(text, source, ORACLE_HEADER):
        category = FemaCategory.from_label(label, source, number)
        oracle[_checked_id(fid, source, number)] = category
    return oracle


def write_curve_csv(points: list[PRPoint]) -> str:
    return _csv(CURVE_HEADER, (f"{p.theta!r},{p.precision!r},{p.recall!r}"
                               for p in points))


def parse_curve_csv(text: str, source="<csv>") -> list[PRPoint]:
    points = []
    for number, fields in _rows(text, source, CURVE_HEADER):
        try:
            theta, precision, recall = map(float, fields)
        except ValueError as exc:
            raise ParseError("bad curve row", source=source,
                             line=number) from exc
        if not (0.0 <= theta <= 100.0 and 0.0 <= precision <= 1.0 and 0.0 <= recall <= 1.0):
            raise ParseError("bad curve row: theta must lie in [0, 100] and precision "
                             "and recall in [0, 1]", source=source, line=number)
        points.append(PRPoint(theta, precision, recall))
    if not points:
        raise ParseError("curve has no data rows", source=source, line=1)
    return points


# ----------------------------------------------------------------- report

def write_report_json(report: ValidationReport) -> str:
    """Report with full-precision numbers (repr keeps 17 significant digits)."""
    doc = {
        "n_samples": report.n_samples,
        "n_positive": report.n_positive,
        "scheme": report.scheme,
        "precision0": report.precision0,
        "recall0": report.recall0,
        "average_precision": report.average_precision,
    }
    return json.dumps(doc, indent=2) + "\n"
