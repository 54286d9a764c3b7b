"""Ground-truth damage points: categories, footprint matching, sample joins.

Field surveys record per-building damage on the five-level FEMA scale.
Each survey point is matched to the nearest footprint within a fixed radius
(default 20 m); nearer footprints win, and exact distance ties go to the
lexicographically smallest footprint id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

from .errors import (DuplicateFootprintId, DuplicatePointId, MissingEstimate,
                     UnknownCategory, check_unique)
from .geom import (Footprint, GeoPoint, metres_per_degree,
                   point_to_footprint_distance_m)
from .zonal import DamageEstimate


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
    def from_label(cls, label: str) -> "FemaCategory":
        try:
            return cls[label.upper()]
        except KeyError:
            raise UnknownCategory(f"unknown damage category {label!r}") from None


@dataclass(frozen=True)
class GroundTruthPoint:
    id: str
    location: GeoPoint
    category: FemaCategory

    def __post_init__(self):
        if not self.id:
            raise ValueError("point id must be non-empty")


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


def parse_scheme(text: str) -> BinaryScheme:
    """Parse a scheme selector: preset name or comma-separated categories."""
    if text in _PRESETS:
        return _PRESETS[text]
    cats = frozenset(FemaCategory.from_label(part.strip())
                     for part in text.split(","))
    return BinaryScheme(cats)


def binarize(category: FemaCategory, scheme: BinaryScheme) -> int:
    """1 when the category counts as damaged under the scheme, else 0."""
    return int(category in scheme.damaged)


class PointMatch(NamedTuple):
    point_id: str
    footprint_id: str
    distance_m: float


@dataclass(frozen=True)
class MatchedSample:
    """One ground-truth point joined with its matched footprint's estimate."""

    point_id: str
    footprint_id: str
    distance_m: float
    label: int
    damage_pct: float


def matching_reference_latitude(points: list[GroundTruthPoint],
                                footprints: list[Footprint]) -> float:
    """Mean latitude over all point locations and footprint ring vertices.

    Each ring's closing duplicate vertex is excluded from the mean.
    """
    total = 0.0
    count = 0
    for p in points:
        total += p.location.lat
        count += 1
    for fp in footprints:
        for ring in (fp.exterior, *fp.holes):
            for v in ring.vertices[:-1]:
                total += v.lat
                count += 1
    return total / count if count else 0.0


def match_points(points: list[GroundTruthPoint],
                 footprints: list[Footprint],
                 radius_m: float = 20.0):
    """Match each point to its nearest footprint within radius_m.

    Returns (matched, unmatched): matched is a list of PointMatch in input
    point order, unmatched a list of point ids in input order. Candidate
    lookup uses a uniform grid over footprint bounding boxes with cell size
    equal to the radius; a footprint within the radius of a point always
    lands in one of the nine cells around that point, so scanning the 3x3
    neighbourhood is exhaustive. Distances come from
    point_to_footprint_distance_m at the scene's mean latitude.
    """
    if not (radius_m > 0):
        raise ValueError("radius_m must be positive")
    check_unique(points, DuplicatePointId, "point")
    check_unique(footprints, DuplicateFootprintId, "footprint")

    ref_lat = matching_reference_latitude(points, footprints)
    kx, ky = metres_per_degree(ref_lat)

    grid: dict[tuple[int, int], list[int]] = {}
    for idx, fp in enumerate(footprints):
        b = fp.bounds
        cx_lo = math.floor(b.min_lon * kx / radius_m)
        cx_hi = math.floor(b.max_lon * kx / radius_m)
        cy_lo = math.floor(b.min_lat * ky / radius_m)
        cy_hi = math.floor(b.max_lat * ky / radius_m)
        for cx in range(cx_lo, cx_hi + 1):
            for cy in range(cy_lo, cy_hi + 1):
                grid.setdefault((cx, cy), []).append(idx)

    matched = []
    unmatched = []
    for p in points:
        cx = math.floor(p.location.lon * kx / radius_m)
        cy = math.floor(p.location.lat * ky / radius_m)
        candidates = set()
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                candidates.update(grid.get((cx + dx, cy + dy), ()))
        best_d = math.inf
        best_id = None
        for idx in candidates:
            fp = footprints[idx]
            d = point_to_footprint_distance_m(p.location, fp, ref_lat)
            if d < best_d or (d == best_d and best_id is not None
                              and fp.id < best_id):
                best_d = d
                best_id = fp.id
        if best_id is not None and best_d <= radius_m:
            matched.append(PointMatch(p.id, best_id, best_d))
        else:
            unmatched.append(p.id)
    return matched, unmatched


def join_samples(matched: list[PointMatch],
                 estimates: list[DamageEstimate],
                 points: list[GroundTruthPoint],
                 scheme: BinaryScheme) -> list[MatchedSample]:
    """Join matches with estimates and binarised point labels.

    Raises MissingEstimate when a matched footprint has no estimate.
    """
    est_by_id = {e.footprint_id: e for e in estimates}
    point_by_id = {p.id: p for p in points}
    samples = []
    for m in matched:
        est = est_by_id.get(m.footprint_id)
        if est is None:
            raise MissingEstimate(
                f"no damage estimate for matched footprint {m.footprint_id!r}")
        point = point_by_id.get(m.point_id)
        if point is None:
            raise ValueError(f"matched point {m.point_id!r} not in point list")
        samples.append(MatchedSample(
            point_id=m.point_id,
            footprint_id=m.footprint_id,
            distance_m=m.distance_m,
            label=binarize(point.category, scheme),
            damage_pct=est.damage_pct,
        ))
    return samples
