"""File formats: GeoJSON footprints, CSV tables, the report JSON and raster file loading.

Writers emit canonical bytes (LF endings, fixed key order, repr floats) so
identical inputs always serialise identically. Readers raise ParseError with
file and line information where it is known. CSV files here are plain
comma-separated with no quoting; ids are restricted to [A-Za-z0-9_-].

GeoJSON in the writers' exact layout is cut by a regex and read by two json.loads
calls, one for all numbers and one for all properties; any other text is left to
the general path, which alone decides errors (see parse_footprints_with_properties).
"""

from __future__ import annotations

import json
import math
import os
import re
from collections import Counter
from contextlib import suppress
from decimal import ROUND_HALF_UP, Decimal
from collections.abc import Sequence
from itertools import chain, compress, islice, repeat
from operator import not_

import numpy as np

from .errors import ParseError, UnwritableOutput
from .geom import Footprint, FootprintArray, GeoPoint, footprint_of, footprints_from
from .metrics import PRCurve, ValidationReport
from .raster import ClassRaster, ascii_grid_from, parse_ascii_grid
from .truth import FemaCategory, GroundTruthPoint, GroundTruthPoints, PointMatch, PointMatches
from .zonal import DamageEstimate, DamageEstimates

TRUTH_HEADER = "point_id,lon,lat,category"
MATCH_HEADER = ",".join(PointMatches.columns)
CURVE_HEADER = ",".join(PRCurve.columns)
ORACLE_HEADER = "footprint_id,category"

_ID = re.compile(r"[A-Za-z0-9_-]+")
_READ_CHARS = 2**16  # the characters load_raster reads at a time
_LABELS = [category.label for category in FemaCategory]  # by code


def read_text(path) -> str:
    """The file's text, read as UTF-8 with universal newlines."""
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except OSError as exc:
        raise ParseError(exc.strerror or str(exc), source=path) from exc
    except UnicodeDecodeError as exc:  # exc.object is the file's bytes
        before = exc.object[:exc.start]
        line = (before.count(b"\n") + before.count(b"\r")
                - before.count(b"\r\n") + 1)
        raise ParseError(
            f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})",
            source=path, line=line) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def load_raster(path) -> ClassRaster:
    """parse_ascii_grid(read_text(path), path), read from a regular file in
    pieces. Any other file, such as a pipe, is read whole; so is a regular
    file after a fault (a bad raster, an I/O error, or a ValueError: a byte
    that is not UTF-8, or a file grown past its size), and that read decides
    the error."""
    if os.path.isfile(path):
        with suppress(ParseError, OSError, ValueError), open(path, encoding="utf-8") as handle:
            pieces = iter(lambda: handle.read(_READ_CHARS), "")
            return ascii_grid_from(pieces, os.fstat(handle.fileno()).st_size, path)
    return parse_ascii_grid(read_text(path), path)


def write_text(path, text) -> None:
    """Write text, a str or pieces of str and bytes, to the file; str as UTF-8."""
    try:
        with open(path, "wb") as handle:
            handle.writelines(piece.encode() if isinstance(piece, str) else piece
                              for piece in ([text] if isinstance(text, str) else text))
    except OSError as exc:
        raise UnwritableOutput(path, exc.strerror or exc) from exc


def _checked_ids(texts, source, line=None):
    """texts, if each is a valid id: one or more of [A-Za-z0-9_-]. With none
    empty, they are all valid when their concatenation is."""
    if texts and not (all(texts) and _ID.fullmatch("".join(texts))):
        bad = next(text for text in texts if not _ID.fullmatch(text))
        raise ParseError(f"id {bad!r} is not in {_ID.pattern}", source=source, line=line)
    return texts


def _writable(ids):
    """ids, a list, if the readers accept each; else ValueError naming the first."""
    try:
        return _checked_ids(ids, None)
    except (ParseError, TypeError):  # TypeError: an id that is not a str
        bad = next(i for i in ids if not (isinstance(i, str) and _ID.fullmatch(i)))
        kind = "" if isinstance(bad, str) else f" ({type(bad).__name__}, not str)"
        raise ValueError(f"id {bad!r} is not in {_ID.pattern}{kind}") from None


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
    if type(fid) not in (str, int):  # a bool, NaN or inf would pass as its text
        raise ParseError(f"feature {index} id {fid!r} is not a string or integer", source=source)
    fid = _checked_ids([str(fid)], source)[0]
    geometry = feature.get("geometry")
    if not isinstance(geometry, dict) or geometry.get("type") != "Polygon":
        raise ParseError(f"feature {fid!r} geometry must be a Polygon",
                         source=source)
    rings = geometry.get("coordinates")
    if not isinstance(rings, list) or not rings:
        raise ParseError(f"feature {fid!r} has no polygon rings", source=source)
    return fid, properties, rings


def parse_footprints_with_properties(text: str, source="<geojson>"):
    """Parse a FeatureCollection into (FootprintArray, [input properties]).
    Text _templated declines takes the general path, which alone decides errors: on
    a fault the features are built one at a time up to the first, which raises."""
    def build(fid, rings):
        try:
            return footprint_of(fid, rings)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"feature {fid!r}: {exc}", source=source) from exc

    templated = _templated(text)
    if templated is not None:
        return footprints_from(*templated[:4], build), templated[4]
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
        if not (set(map(len, vertices)) <= {2} and set(map(type, numbers)) <= {int, float}):
            raise TypeError("a vertex is not a pair of numbers")
        coords = np.array(numbers, dtype=np.float64)  # OverflowError past 1e308
    except (ParseError, TypeError, ValueError, OverflowError):
        for index, feature in enumerate(features):
            build(*_feature_parts(feature, index, source)[::2])
        raise AssertionError("the batch read rejected features that footprint_of accepts")
    return footprints_from(ids, coords, [len(r) for rs in rings for r in rs],
                           list(map(len, rings)), build), properties


def _templated(text: str):
    """(ids, coords, sizes, counts, properties) of text in the writers' layout, or None."""
    if not (text.startswith(_HEAD) and text.endswith(_TAIL)):
        return None
    pieces = _TEMPLATE.split(text[len(_HEAD):-len(_TAIL)])
    if pieces[0] or pieces[-1] or set(pieces[4:-1:4]) - {","}:
        return None  # the features do not tile the body one "," apart
    rings = _RING_SEP.join(pieces[2::4]).encode()
    try:
        coords = np.array(json.loads(b"[" + rings.translate(None, b"[]") + b"]"), float)
        properties = json.loads("[" + ",".join(pieces[3::4]) + "]")
    except (ValueError, OverflowError):  # a spelling json refuses, or a number past 1e308
        return None
    if len(properties) != len(pieces) // 4 or set(map(type, properties)) != {dict}:
        return None  # no feature, or properties texts json reads as merged objects
    b = np.frombuffer(rings, np.uint8)
    seps = np.flatnonzero(b == ord(","))[1::2]  # the separator after each vertex
    outer = b[seps - 2] == ord("]")  # _RING_SEP: a ring ends there
    ends = np.cumsum(np.fromiter(map(len, pieces[2::4]), np.int64) + len(_RING_SEP))
    upto = np.searchsorted(np.r_[seps[outer], len(rings)], ends)  # the rings up to each end
    return (pieces[1::4], coords, np.diff(np.flatnonzero(np.r_[True, outer, True])),
            np.diff(upto, prepend=0), properties)


def parse_footprints_geojson(text: str, source="<geojson>") -> FootprintArray:
    return parse_footprints_with_properties(text, source)[0]


def load_footprints(path) -> FootprintArray:
    return parse_footprints_geojson(read_text(path), source=path)


_COMPACT = json.JSONEncoder(separators=(",", ":"))
_HEAD, _TAIL = '{"type":"FeatureCollection","features":[', "]}\n"
_FEATURE = '{"type":"Feature","id":%s,"geometry":{"type":"Polygon","coordinates":[[['
_PROPERTIES = ']]]},"properties":%s}'
_BETWEEN = _PROPERTIES + "," + _FEATURE % '"%s"'  # (properties, next id) between two features
_VERTEX_SEP, _RING_SEP = "],[", "]],[["  # between the vertices of a ring, between rings
_XY = "[-+.0-9eE]+,[-+.0-9eE]+"  # a vertex: two number spellings, for json.loads to judge
# A feature as _collection writes it: (id, rings text, properties with no inner {}[]).
_TEMPLATE = re.compile(re.escape(_FEATURE).replace("%s", f'"({_ID.pattern})"')
                       + f"({_XY}(?:(?:{re.escape(_VERTEX_SEP)}|{re.escape(_RING_SEP)}){_XY})*)"
                       + re.escape(_PROPERTIES).replace("%s", r"(\{[^{}\[\]]*\})"))
_CHUNK = 1024  # footprints the writers format at a time
_CENTS = Decimal("0.01")  # damage_pct's display quantum
_ASSESSED = '"damage_pct":%r,"n_inside":%d,"n_damaged":%d,"supersampled":%s,"no_coverage":%s}'
_BOOLS = ("false", "true")


def _collection(footprints: Sequence[Footprint], properties) -> str:
    """Compact FeatureCollection text, one properties text per footprint: the
    bytes of json.dumps of the whole document. It is formatted _CHUNK
    footprints at a time, so one chunk's pieces are freed before the next's
    are made."""
    fps, properties = FootprintArray.of(footprints), iter(properties)
    chunks = (_features(fps[lo:lo + _CHUNK], list(islice(properties, _CHUNK)))
              for lo in range(0, len(fps), _CHUNK))
    return _HEAD + ",".join(chunks) + _TAIL


def _each_distinct(fn, values: np.ndarray) -> np.ndarray:
    """fn of each float64 value, as an object array of their shape: called once
    per distinct bit pattern, so -0.0 stays apart from 0.0."""
    bits, which = np.unique(values.ravel().view(np.int64), return_inverse=True)
    done = np.array(list(map(fn, bits.view(np.float64).tolist())), dtype=object)
    return done[which.reshape(values.shape)]


def _features(fps: FootprintArray, properties: list[str]) -> str:
    """The features of one or more footprints with their properties texts,
    joined from four pieces per vertex: x, ",", y and the separator after it.
    Coordinates are written by float.__repr__, as in json.dumps."""
    pieces = [None, ",", None, _VERTEX_SEP] * len(fps.coords)
    pieces[0::4], pieces[2::4] = _each_distinct(float.__repr__, fps.coords).T.tolist()
    ids = _writable(fps.ids.tolist())  # so json.dumps(id) is '"' + id + '"'
    for i in (4 * fps.ring_offsets[1:] - 1).tolist():
        pieces[i] = _RING_SEP
    ends = list(map(_BETWEEN.__mod__, zip(properties, ids[1:])))
    for i, end in zip((4 * fps.ring_offsets[fps.geom_offsets[1:]] - 1).tolist(),
                      ends + [_PROPERTIES % properties[-1]]):
        pieces[i] = end
    return _FEATURE % f'"{ids[0]}"' + "".join(pieces)


def write_footprints_geojson(footprints: Sequence[Footprint]) -> str:
    return _collection(footprints, repeat("{}"))


def round_half_up(value: float) -> float:
    return float(Decimal(str(value)).quantize(_CENTS, rounding=ROUND_HALF_UP))


def write_assessed_geojson(footprints: Sequence[Footprint],
                           estimates: Sequence[DamageEstimate],
                           input_properties: list[dict] | None = None) -> str:
    """Footprints plus their estimates, which must name the footprints' ids in
    order, and input properties, if given, one dict per footprint: damage_pct
    is rounded half-up to two decimals, each distinct value once, and must lie
    in [0, 100]; the integer counts keep full fidelity, and must hold
    0 <= n_damaged <= n_inside <= 2**53."""
    fps, est = FootprintArray.of(footprints), DamageEstimates.of(estimates)
    if not np.array_equal(est.footprint_id, fps.ids):
        raise ValueError("the estimates do not name the footprints' ids in order")
    if input_properties is not None and len(input_properties) != len(fps):
        raise ValueError(f"input_properties must hold one dict per footprint: "
                         f"{len(fps)} footprints, {len(input_properties)} dicts")
    counted = _valid_counts(est.n_inside, est.n_damaged)
    valid = counted & (0.0 <= est.damage_pct) & (est.damage_pct <= 100.0)
    if not valid.all():
        i = valid.argmin()
        raise ValueError(f"footprint {fps.ids[i]!r} has " + (
            f"damage_pct {float(est.damage_pct[i])!r}, not in [0, 100]" if counted[i] else
            f"n_inside {est.n_inside[i]} and n_damaged {est.n_damaged[i]}, "
            "not 0 <= n_damaged <= n_inside <= 2**53"))
    keys = [*DamageEstimates.columns][1:]  # damage_pct, then the counts and flags
    columns = [_each_distinct(round_half_up, est.damage_pct).tolist(),
               *(getattr(est, key).tolist() for key in keys[1:])]
    props = input_properties or [{}] * len(fps)
    disjoint = list(map(set(keys).isdisjoint, map(dict.keys, props)))
    # A feature whose props hold one of keys is encoded whole by json, so that
    # the key keeps its place; the rest by the template (%r is json's float text).
    whole = {i: _COMPACT.encode({**props[i], **dict(zip(keys, [c[i] for c in columns]))})
             for i in compress(range(len(props)), map(not_, disjoint))}
    heads = (_COMPACT.encode(p)[:-1] + "," if p and d else "{" for p, d in zip(props, disjoint))
    texts = map(("%s" + _ASSESSED).__mod__, zip(
        heads, *columns[:3], *(map(_BOOLS.__getitem__, flags) for flags in columns[3:])))
    return _collection(fps, map(whole.get, range(len(props)), texts))


def _valid_counts(n_inside, n_damaged):
    """0 <= n_damaged <= n_inside <= 2**53, of ints or elementwise of arrays."""
    return (0 <= n_damaged) & (n_damaged <= n_inside) & (n_inside <= 2**53)


def parse_assessed_geojson(text: str, source="<geojson>"):
    """Read an assessed collection back as (footprints, estimates). The
    working damage percentage is rebuilt from the stored counts, so the
    two-decimal display rounding of damage_pct loses nothing downstream. The
    counts must be JSON integers, 0 <= n_damaged <= n_inside <= 2**53, and the
    flags JSON booleans; the first feature that breaks this rule is named."""
    footprints, properties = parse_footprints_with_properties(text, source)
    n, d, s, c = columns = [list(map(dict.get, properties, repeat(key)))
                            for key in [*DamageEstimates.columns][2:]]  # the counts and flags
    if set(map(type, n + d)) <= {int} and set(map(type, s + c)) <= {bool}:
        with suppress(OverflowError):  # a count past int64
            if _valid_counts(n := np.array(n, np.int64), d := np.array(d, np.int64)).all():
                return footprints, DamageEstimates.counted(footprints.ids, n, d, s, c)
    for fid, n, d, s, c in zip(footprints.ids, *columns):
        if not (type(n) is int and type(d) is int and _valid_counts(n, d)
                and type(s) is bool and type(c) is bool):
            raise ParseError(f"feature {fid!r} lacks assessment properties "
                             "(integer counts 0 <= n_damaged <= n_inside <= 2**53, "
                             "boolean flags)", source=source)
    raise AssertionError("the column check rejected counts that each feature passes")


# -------------------------------------------------------------------- CSV

def _columns(text: str, source, header: str, read):
    """read(columns, None) of a CSV's data rows, one list of field texts per header
    column, cut by one split of the joined non-blank lines; lines end at LF, CR LF or CR.
    On any fault read raises a ParseError, and _first_bad_row names its line."""
    lines = re.split(r"\r\n?|\n", text) if "\r" in text else text.split("\n")
    if lines[0].strip() != header:
        raise ParseError(f"expected header {header!r}", source=source, line=1)
    width = header.count(",") + 1
    rows = list(filter(str.strip, lines[1:]))
    if set(map(str.count, rows, repeat(","))) <= {width - 1}:
        fields = ",".join(rows).split(",") if rows else []
        with suppress(ParseError):
            return read([fields[k::width] for k in range(width)], None)
    _first_bad_row(lines, width, source, read)


def _first_bad_row(lines, width, source, read):
    """Raise the first fault of the data rows, each read on its own, with its line."""
    for number, line in enumerate(lines[1:], start=2):
        if line.strip():
            fields = line.split(",")
            if len(fields) != width:
                raise ParseError(f"expected {width} fields, got {len(fields)}",
                                 source=source, line=number)
            read([[field] for field in fields], number)
    raise AssertionError(f"{read.__qualname__} rejected rows it accepts one by one")


def _categories(labels, source, line) -> list[FemaCategory]:
    """The category of each label, read as FemaCategory.from_label reads it."""
    categories = list(map(FemaCategory.__members__.get, map(str.upper, labels)))
    if None in categories or not "".join(labels).isascii():
        return [FemaCategory.from_label(label, source, line) for label in labels]
    return categories


def _csv(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def write_truth_csv(points: Sequence[GroundTruthPoint]) -> str:
    p = GroundTruthPoints.of(points)
    rows = zip(_writable(p.id.tolist()), p.lon.tolist(), p.lat.tolist(), p.category.tolist())
    return _csv(TRUTH_HEADER, (f"{i},{x!r},{y!r},{_LABELS[c]}" for i, x, y, c in rows))


def parse_truth_csv(text: str, source="<csv>") -> GroundTruthPoints:
    def read(columns, line):
        ids, lon_texts, lat_texts, labels = columns
        _checked_ids(ids, source, line)
        try:
            lons, lats = np.array([list(map(float, lon_texts)), list(map(float, lat_texts))])
            if not ((np.abs(lons) <= 180.0).all() and (np.abs(lats) <= 90.0).all()):
                list(map(GeoPoint, lons.tolist(), lats.tolist()))  # the first range error
        except ValueError as exc:
            raise ParseError(str(exc), source=source, line=line) from exc
        return GroundTruthPoints(ids, lons, lats, _categories(labels, source, line), copy=False)
    return _columns(text, source, TRUTH_HEADER, read)


def load_truth(path) -> GroundTruthPoints:
    return parse_truth_csv(read_text(path), source=path)


def write_matches_csv(point_ids: list[str],
                      matched: Sequence[PointMatch],
                      unmatched: list[str]) -> str:
    """One row per input point in input order, which the matched and unmatched
    points partition; unmatched rows leave footprint and distance empty, and
    each matched distance must be a finite number >= 0."""
    matched = PointMatches.of(matched)
    valid = _valid_distances(matched.distance_m)
    if not valid.all():
        i = valid.argmin()
        raise ValueError(f"point {matched.point_id[i]!r} has distance "
                         f"{float(matched.distance_m[i])!r}, not a finite number >= 0")
    listed = _writable([*matched.point_id.tolist(), *unmatched])
    fields = map(",{},{!r}".format, _writable(matched.footprint_id.tolist()),
                 matched.distance_m.tolist())
    rows = dict(zip(listed, chain(fields, repeat(",,"))))
    if not len(rows) == len(listed) == len(point_ids) == len(rows.keys() & set(point_ids)):
        once, each = Counter(point_ids), Counter(listed)
        bad = next(pid for pid in chain(point_ids, listed) if once[pid] != 1 or each[pid] != 1)
        raise ValueError(f"point {bad!r} is not listed once and matched or unmatched once")
    return _csv(MATCH_HEADER, (pid + rows[pid] for pid in point_ids))


def _valid_distances(distances: np.ndarray) -> np.ndarray:
    """Where a distance is a finite number >= 0, as match writes them."""
    return (0.0 <= distances) & (distances < math.inf)


def parse_matches_csv(text: str, source="<csv>"):
    """(PointMatches, unmatched ids) of a matches CSV."""
    def read(columns, line):
        hit = None if all(columns[1]) else [  # unmatched rows leave both fields empty
            f + d != "" for f, d in zip(*columns[1:])]
        pids, fids, texts = columns if hit is None else (list(compress(c, hit)) for c in columns)
        _checked_ids(columns[0], source, line)
        _checked_ids(fids, source, line)
        try:
            distances = np.array(list(map(float, texts)))
        except ValueError:  # names the right text in the one-row reads that report it
            distances = np.array([math.nan])
        bad = ~_valid_distances(distances)
        if bad.any():
            raise ParseError(f"bad distance {texts[bad.argmax()]!r}, not a finite number "
                             ">= 0", source=source, line=line)
        return PointMatches(pids, fids, distances), list(compress(columns[0], map(not_, hit or ())))
    return _columns(text, source, MATCH_HEADER, read)


def write_oracle_csv(oracle_categories: dict[str, FemaCategory]) -> str:
    return _csv(ORACLE_HEADER, map("{},{}".format, _writable([*oracle_categories]),
                                   map(_LABELS.__getitem__, oracle_categories.values())))


def parse_oracle_csv(text: str, source="<csv>") -> dict[str, FemaCategory]:
    def read(columns, line):
        categories = _categories(columns[1], source, line)  # checked before the ids
        return dict(zip(_checked_ids(columns[0], source, line), categories))
    return _columns(text, source, ORACLE_HEADER, read)


def write_curve_csv(curve: PRCurve) -> str:
    """One row per threshold, each value as float.__repr__ writes it."""
    values = np.stack([curve.theta, curve.precision, curve.recall], axis=1)
    return _csv(CURVE_HEADER, map(",".join, _each_distinct(float.__repr__, values).tolist()))


def parse_curve_csv(text: str, source="<csv>") -> PRCurve:
    def read(columns, line):
        try:
            values = np.array([list(map(float, column)) for column in columns])
        except ValueError as exc:
            raise ParseError("bad curve row", source=source, line=line) from exc
        if not ((0.0 <= values) & (values <= [[100.0], [1.0], [1.0]])).all():
            raise ParseError("bad curve row: theta must lie in [0, 100] and precision "
                             "and recall in [0, 1]", source=source, line=line)
        return PRCurve(*values, copy=False)
    curve = _columns(text, source, CURVE_HEADER, read)
    if not curve:
        raise ParseError("curve has no data rows", source=source, line=1)
    return curve


# ----------------------------------------------------------------- report

def write_report_json(report: ValidationReport) -> str:
    """Report with full-precision numbers (repr keeps 17 significant digits):
    every field but the curve, in field order."""
    doc = {key: value for key, value in vars(report).items() if key != "curve"}
    return json.dumps(doc, indent=2) + "\n"
