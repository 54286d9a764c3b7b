"""Ground-truth damage points: categories, footprint matching, sample joins.

Field surveys record per-building damage on the five-level FEMA scale.
Each survey point is matched to the nearest footprint within a fixed radius
(default 20 m), by geom's distance (0 inside); nearer footprints win, and
exact distance ties go to the lexicographically smallest footprint id.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .columns import Columns
from .errors import (DuplicateFootprintId, DuplicatePointId, MissingEstimate,
                     MissingPoint, ParseError, UnknownCategory, check_unique)
from .geom import (Footprint, FootprintArray, GeoPoint, _chunks, _distances, _edges,
                   _runs, metres_per_degree)
from .zonal import DamageEstimate, DamageEstimates


class FemaCategory(IntEnum):
    """FEMA damage scale, ordered least to most severe."""

    NO_VISIBLE_DAMAGE = 0
    AFFECTED = 1
    MINOR_DAMAGE = 2
    MAJOR_DAMAGE = 3
    DESTROYED = 4

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str, source=None, line=None) -> "FemaCategory":
        try:
            return cls[label.upper()]
        except KeyError:
            raise UnknownCategory(f"unknown damage category {label!r}", source, line) from None


@dataclass(frozen=True)
class GroundTruthPoint:
    id: str
    location: GeoPoint
    category: FemaCategory

    def __post_init__(self):
        if not self.id:
            raise ValueError("point id must be non-empty")


class GroundTruthPoints(Columns):
    row = GroundTruthPoint
    columns = {"id": object, "lon": np.float64, "lat": np.float64, "category": np.int64}
    paths = {"lon": "location.lon", "lat": "location.lat"}

    def _row(self, i):
        return GroundTruthPoint(self.id[i], GeoPoint(self.lon.item(i), self.lat.item(i)),
                                FemaCategory(self.category.item(i)))


@dataclass(frozen=True)
class BinaryScheme:
    """Which categories count as damaged when labels are binarised."""

    damaged: frozenset

    def __post_init__(self):
        damaged = frozenset(self.damaged)
        object.__setattr__(self, "damaged", damaged)
        if not damaged or len(damaged) >= len(FemaCategory):
            raise ValueError("scheme must be a non-empty proper subset "
                             "of the damage categories")

    @property
    def id(self) -> str:
        for name, preset in _PRESETS.items():
            if self == preset:
                return name
        return ",".join(c.label for c in sorted(self.damaged))


MAJOR_PLUS = BinaryScheme(frozenset({FemaCategory.MAJOR_DAMAGE,
                                     FemaCategory.DESTROYED}))
DESTROYED_ONLY = BinaryScheme(frozenset({FemaCategory.DESTROYED}))
_PRESETS = {"major_plus": MAJOR_PLUS, "destroyed_only": DESTROYED_ONLY}


def parse_scheme(text: str, source=None) -> BinaryScheme:
    """Parse a preset name or comma-separated categories; errors name source."""
    if text in _PRESETS:
        return _PRESETS[text]
    cats = frozenset(FemaCategory.from_label(part.strip(), source)
                     for part in text.split(","))
    try:
        return BinaryScheme(cats)
    except ValueError as exc:
        raise ParseError(str(exc), source=source) from exc


class PointMatch(NamedTuple):
    point_id: str
    footprint_id: str
    distance_m: float


class PointMatches(Columns):
    row = PointMatch
    columns = {"point_id": object, "footprint_id": object, "distance_m": np.float64}


class MatchedSample(NamedTuple):
    """One ground-truth point joined with its matched footprint's estimate."""

    point_id: str
    footprint_id: str
    distance_m: float
    label: int
    damage_pct: float


class MatchedSamples(Columns):
    row = MatchedSample
    columns = {"point_id": object, "footprint_id": object, "distance_m": np.float64,
               "label": np.int64, "damage_pct": np.float64}


def matching_reference_latitude(points: Sequence[GroundTruthPoint],
                                footprints: Sequence[Footprint]) -> float:
    """Mean latitude over all point locations and footprint ring vertices.

    Each ring's closing duplicate vertex is excluded from the mean. The sum
    is exact before its one rounding (math.fsum), so no order changes it.
    """
    fps = FootprintArray.of(footprints)
    closing = fps.ring_offsets[1:] - 1
    lats = np.append(GroundTruthPoints.of(points).lat, np.delete(fps.coords[:, 1], closing))
    return math.fsum(lats.tolist()) / len(lats) if len(lats) else 0.0


_PAIR_EDGES = 2**13  # (point, candidate footprint, edge) triples per chunk


def match_points(points: Sequence[GroundTruthPoint],
                 footprints: Sequence[Footprint],
                 radius_m: float = 20.0):
    """Match each point to its nearest footprint within radius_m.

    Returns (matched, unmatched): matched is the PointMatches in input point
    order, unmatched a list of point ids in input order. Candidates
    come from uniform grids, the first of cells min(radius_m, twice the
    median footprint extent) wide, and each next one twice as wide, up to
    radius_m, for the points not yet within one cell of a footprint; no cell
    is narrower than 1e-6 m.
    The distance, in the equirectangular plane at the scene's mean latitude,
    is 0 for a point inside (boundary included), else to the nearest edge.
    """
    if not (radius_m > 0):
        raise ValueError("radius_m must be positive")
    points = GroundTruthPoints.of(points)
    check_unique(points.id, DuplicatePointId, "point")
    fps = FootprintArray.of(footprints)
    check_unique(fps.ids, DuplicateFootprintId, "footprint")
    if not points or not fps:
        return PointMatches([], [], []), points.id.tolist()
    kx, ky = metres_per_degree(matching_reference_latitude(points, fps))
    # Footprint f below is fps[by_id[f]], in id order: ties go to the lower f.
    by_id = np.argsort(fps.ids, kind="stable")
    x, y = points.lon, points.lat
    box = fps.bounds[by_id]
    ring_fp, rings = _runs(fps.geom_offsets[by_id], fps.geom_offsets[by_id + 1])
    edges = _edges(fps, rings)
    n_edges = np.bincount(ring_fp[edges[4]], minlength=len(fps))
    first_edge = np.cumsum(n_edges) - n_edges
    best_d, best_f = np.full(len(points), math.inf), np.zeros(len(points), dtype=np.int64)

    # Rounds of grid cells that double up to the radius. A footprint within a
    # cell's width of a point overlaps one of the nine cells around it, so a
    # point whose best distance is within the cell is done. Each round runs
    # in chunks of about _PAIR_EDGES (point, candidate, edge) triples; each
    # point keeps its nearest candidate so far, and of those the smallest id.
    extent = np.maximum((box[:, 2] - box[:, 0]) * kx, (box[:, 3] - box[:, 1]) * ky)
    cell = max(min(radius_m, 2.0 * float(np.median(extent))), 1e-6)
    active = np.arange(len(points))
    while active.size:
        # |x * kx| < 2.1e7 m: cell indices stay exact below 2**53
        by_cell, cand, lo, hi = _candidates(
            np.floor(x[active] * kx / cell), np.floor(y[active] * ky / cell),
            np.floor(box * [kx, ky, kx, ky] / cell))
        for part in _chunks(np.arange(len(cand)), (hi - lo) * n_edges[cand], _PAIR_EDGES):
            owner, at = _runs(lo[part], hi[part])
            p, f = active[by_cell[at]], cand[part][owner]
            owner, e = _runs(first_edge[f], first_edge[f] + n_edges[f])
            d = _distances(x[p], y[p], box[f], owner, *(a[e] for a in edges), kx, ky)
            first = np.lexsort((f, d, p))
            first = first[np.diff(p[first], prepend=-1) != 0]
            p, d, f = p[first], d[first], f[first]
            won = (d < best_d[p]) | ((d == best_d[p]) & (f < best_f[p]))
            best_d[p[won]], best_f[p[won]] = d[won], f[won]
        active = active[best_d[active] > cell] if cell < radius_m else active[:0]
        cell = min(2.0 * cell, radius_m)
    near = best_d <= radius_m
    return (PointMatches(points.id[near], fps.ids[by_id[best_f[near]]], best_d[near]),
            points.id[~near].tolist())


def _candidates(pcx, pcy, cells):
    """Candidate pairs: points and footprints whose grid cells are within one
    cell in x and in y. Returns the points sorted by cell, and the ranges
    (footprint, lo, hi) of that order, one per (footprint, point column)."""
    xs, col = np.unique(pcx, return_inverse=True)
    ys, row = np.unique(pcy, return_inverse=True)
    by_cell = np.lexsort((row, col))
    key = (col * len(ys) + row)[by_cell]
    x0, y0, x1, y1 = cells.T
    # The ranks in xs of the columns from x0 - 1 to x1 + 1 that hold points;
    # a radius far below the footprint size makes most columns empty.
    f, c_rank = _runs(np.searchsorted(xs, x0 - 1.0), np.searchsorted(xs, x1 + 1.0, "right"))
    lo = np.searchsorted(key, c_rank * len(ys) + np.searchsorted(ys, y0[f] - 1.0))
    hi = np.searchsorted(key, c_rank * len(ys) + np.searchsorted(ys, y1[f] + 1.0, "right"))
    keep = np.flatnonzero(hi > lo)
    return by_cell, f[keep], lo[keep], hi[keep]


def join_samples(matched: Sequence[PointMatch], estimates: Sequence[DamageEstimate],
                 points: Sequence[GroundTruthPoint], scheme: BinaryScheme) -> MatchedSamples:
    """Join matches with estimates and binarised point labels, each a
    collection or a list of its rows. Raises DuplicateFootprintId or
    DuplicatePointId on a repeated id, and MissingEstimate or MissingPoint on
    a match to an absent one."""
    matched, points = PointMatches.of(matched), GroundTruthPoints.of(points)
    estimates = DamageEstimates.of(estimates)
    point_ids, footprint_ids = matched.point_id.tolist(), matched.footprint_id.tolist()
    pct = dict(zip(estimates.footprint_id.tolist(), estimates.damage_pct.tolist()))
    label = dict(zip(points.id.tolist(), np.isin(points.category, [*scheme.damaged]).tolist()))
    check_unique(estimates.footprint_id, DuplicateFootprintId, "footprint")
    check_unique(points.id, DuplicatePointId, "point")
    check_unique(point_ids, DuplicatePointId, "matched point")
    for pid, fid in zip(point_ids, footprint_ids):
        if fid not in pct:
            raise MissingEstimate(f"no damage estimate for matched footprint {fid!r}")
        if pid not in label:
            raise MissingPoint(f"matched point {pid!r} not in point list")
    return MatchedSamples(point_ids, footprint_ids, matched.distance_m,
                          list(map(label.get, point_ids)), list(map(pct.get, footprint_ids)))
