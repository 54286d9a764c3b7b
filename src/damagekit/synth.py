"""Deterministic synthetic tornado scenes for end-to-end testing.

A scene is a lattice of square buildings crossed by a damage swath. Distance
from a building's centroid to the swath centreline sets its FEMA category in
four bands (half swath width: destroyed, one width: major, 1.5: minor, 2:
affected). The rendered raster marks pixels of major-plus buildings as class
2 and other building pixels as class 1, then optionally flips pixels to a
random class. Ground-truth points sit at building centroids with optional
Gaussian jitter and random drops.

All randomness comes from a SplitMix64 stream seeded by the scene spec, with
a fixed draw budget per entity (2 per building, 2 per cell of a noisy raster,
the second computed only where the cell flips, 3 per point) so output is
reproducible bit for bit. When pixel_noise_rate is zero the raster noise
stage is skipped and consumes no draws.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SwathOutsideScene
from .geom import EARTH_RADIUS_M, FootprintArray, GeoPoint, footprints_from, inside_pixels
from .raster import (CLASS_BACKGROUND, CLASS_BUILDING, CLASS_DAMAGED,
                     DEFAULT_NODATA, _HEADER_RULES, ClassRaster)
from .truth import FemaCategory, GroundTruthPoints

_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
_TWO_64 = 2.0 ** 64
_NOISE_BLOCK = 2**16  # raster cells per block of draws; its uint64 temporaries fit L2
# Scene size caps: 41 times survey-dense's 6,400 buildings, and 18 times
# scene-fine's 3.74M cells (64 MiB of int8 cells).
_MAX_BUILDINGS = 2**18
_MAX_CELLS = 2**26


class SplitMix64:
    """SplitMix64 stream, drawn in blocks of unit floats."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def _mixed(self, z: np.ndarray) -> np.ndarray:
        """Outputs of the draws z uint64 steps ahead (1 is the next), mixed in
        place in z; the state does not move. Draw k is mix(state + k*gamma),
        so any subset of draws computes on its own."""
        z *= np.uint64(_GOLDEN_GAMMA)
        z += np.uint64(self.state)
        for shift, factor in ((30, _MIX_1), (27, _MIX_2)):
            z ^= z >> np.uint64(shift)
            z *= np.uint64(factor)
        z ^= z >> np.uint64(31)
        return z

    def unit_array(self, n: int) -> np.ndarray:
        """The next n draws, each (output + 0.5) / 2**64, in (0, 1)."""
        z = self._mixed(np.arange(1, n + 1, dtype=np.uint64))
        self.state = (self.state + n * _GOLDEN_GAMMA) & _MASK64
        return (z.astype(np.float64) + 0.5) / _TWO_64


def _flip_threshold(rate: float) -> int:
    """The least output t whose draw (float(t) + 0.5) / 2**64 is at least rate,
    by bisection on that monotone predicate: a draw is below rate iff its
    output is below t. At rate 1 the top 1,024 outputs round to 2**64."""
    lo, hi = 0, 1 << 64
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if (float(mid) + 0.5) / _TWO_64 >= rate else (mid + 1, hi)
    return lo


# SceneSpec's float fields, each an int or a float but not a bool, with its
# rule and the rule in words; swath_width_m may also be None, for the default.
_FLOAT_RULES = {
    "building_size_m": (lambda v: v > 0, "a positive finite number"),
    "spacing_m": (lambda v: v > 0, "a positive finite number"),
    "swath_width_m": (lambda v: v > 0, "a positive finite number"),
    "cellsize_m": (lambda v: v > 0, "a positive finite number"),
    "pixel_noise_rate": (lambda v: 0 <= v <= 1, "a number within [0, 1]"),
    "point_drop_rate": (lambda v: 0 <= v <= 1, "a number within [0, 1]"),
    "point_jitter_sigma_m": (lambda v: v >= 0, "a non-negative finite number"),
}


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of a synthetic scene. Same spec, same bytes out. origin and the
    swath ends are GeoPoints or [lon, lat]; no swath ends means the default swath."""

    seed: int = 42
    grid_cols: int = 30
    grid_rows: int = 30
    building_size_m: float = 10.0
    spacing_m: float = 20.0
    origin: GeoPoint = GeoPoint(-90.88, 32.90)
    swath_start: GeoPoint | None = None
    swath_end: GeoPoint | None = None
    swath_width_m: float | None = None
    cellsize_m: float = 1.0
    pixel_noise_rate: float = 0.0
    point_jitter_sigma_m: float = 0.0
    point_drop_rate: float = 0.0

    def __post_init__(self):
        for name in ("origin", "swath_start", "swath_end"):
            value = getattr(self, name)
            if isinstance(value, GeoPoint) or (value is None and name != "origin"):
                continue
            # Two JSON numbers, as GeoJSON positions are: no bool, no string.
            if not (isinstance(value, (list, tuple)) and len(value) == 2
                    and {type(v) for v in value} <= {int, float}):
                raise ValueError(f"{name} must be a list of two numbers, got {value!r}")
            try:
                object.__setattr__(self, name, GeoPoint(float(value[0]), float(value[1])))
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{name}: {exc}") from exc
        for name in ("seed", "grid_cols", "grid_rows"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.grid_cols < 1 or self.grid_rows < 1:
            raise ValueError("grid dimensions must be positive")
        for name, (rule, wanted) in _FLOAT_RULES.items():
            value = getattr(self, name)
            if value is None and name == "swath_width_m":
                continue
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not (abs(value) <= sys.float_info.max and rule(value))):
                raise ValueError(f"{name} must be {wanted}, got {value!r}")
        n = self.grid_cols * self.grid_rows
        if n > _MAX_BUILDINGS:
            raise ValueError(f"grid_cols x grid_rows gives {n:,} buildings, "
                             f"above the cap of {_MAX_BUILDINGS:,}")
        pitch = self.building_size_m + self.spacing_m
        # A bound on the raster frame's cells: the lattice's extent in cells
        # (columns narrow with the latitude), plus margins and rounding up.
        cells = ((self.grid_cols * pitch * self.m_per_deg_lat / self.m_per_deg_lon
                  / self.cellsize_m + 5.0) * (self.grid_rows * pitch / self.cellsize_m + 5.0))
        if not cells <= _MAX_CELLS:
            raise ValueError(f"cellsize_m {self.cellsize_m!r} gives a raster of up to "
                             f"{cells:.4g} cells on this grid, above the cap of {_MAX_CELLS:,}")
        # Default swath: along the middle building row, clear past both ends,
        # narrow enough that only that row falls in the destroyed band.
        if self.swath_width_m is None:
            object.__setattr__(self, "swath_width_m", 0.8 * pitch)
        if (self.swath_start is None) != (self.swath_end is None):
            raise ValueError("swath_start and swath_end must be given together or not at all")
        if self.swath_start is None:
            mid_y = (self.grid_rows // 2 + 0.5) * pitch
            start = GeoPoint(*self._to_deg(-2.0 * pitch, mid_y))
            end = GeoPoint(*self._to_deg((self.grid_cols + 2.0) * pitch, mid_y))
            object.__setattr__(self, "swath_start", start)
            object.__setattr__(self, "swath_end", end)

    # Metres east/north of the origin <-> degrees, at the origin's latitude.
    # Not geom.metres_per_degree: scene bytes depend on this kx's last bit.
    @property
    def m_per_deg_lat(self) -> float:
        return EARTH_RADIUS_M * math.pi / 180.0

    @property
    def m_per_deg_lon(self) -> float:
        return self.m_per_deg_lat * math.cos(self.origin.lat * math.pi / 180.0)

    def _to_deg(self, x_m, y_m):
        """(lon, lat) of points given in metres: floats or numpy arrays."""
        return (self.origin.lon + x_m / self.m_per_deg_lon,
                self.origin.lat + y_m / self.m_per_deg_lat)

    def _to_metric(self, lon, lat):
        """Metres east/north of the origin of (lon, lat): floats or numpy arrays."""
        return ((lon - self.origin.lon) * self.m_per_deg_lon,
                (lat - self.origin.lat) * self.m_per_deg_lat)


@dataclass(frozen=True)
class SynthScene:
    footprints: FootprintArray
    raster: ClassRaster
    truth: GroundTruthPoints
    oracle_categories: dict[str, FemaCategory]


def category_from_swath(lon, lat, spec: SceneSpec) -> np.ndarray:
    """FEMA codes of centroids (lon, lat arrays) from their distance to the
    swath centreline: within 0.5, 1, 1.5 and 2 swath widths of it."""
    px, py = spec._to_metric(lon, lat)
    x1, y1 = spec._to_metric(spec.swath_start.lon, spec.swath_start.lat)
    x2, y2 = spec._to_metric(spec.swath_end.lon, spec.swath_end.lat)
    dx, dy = x2 - x1, y2 - y1
    denom = dx * dx + dy * dy
    # A zero-length swath leaves t at 0, so x1 + t * dx is x1 exactly.
    t = np.clip(((px - x1) * dx + (py - y1) * dy) / denom, 0.0, 1.0) if denom else 0.0
    # math.hypot, not np.hypot: they differ in the last bit on some pairs.
    d = list(map(math.hypot, (px - (x1 + t * dx)).tolist(), (py - (y1 + t * dy)).tolist()))
    bands = np.searchsorted(np.array([0.5, 1.0, 1.5, 2.0]) * spec.swath_width_m, d)
    return FemaCategory.DESTROYED - bands


def generate(spec: SceneSpec) -> SynthScene:
    """Build the full synthetic scene for a spec.

    PRNG draw order: per building jitter x then y in row-major lattice
    order; raster noise row-major, two draws per cell (flip decision then
    replacement class, the second computed only where the cell flips;
    skipped entirely at rate 0); per point in footprint-id order a drop
    decision then one Box-Muller pair for the x/y jitter.
    """
    rng = SplitMix64(spec.seed)
    pitch = spec.building_size_m + spec.spacing_m
    half = spec.building_size_m / 2.0
    jitter_range = spec.spacing_m / 8.0

    # Every building's corners and centroid, one array operation each.
    n = spec.grid_rows * spec.grid_cols
    jx, jy = ((rng.unit_array(2 * n).reshape(spec.grid_rows, spec.grid_cols, 2)
               * 2.0 - 1.0) * jitter_range).transpose(2, 0, 1)
    cx = ((np.arange(spec.grid_cols) + 0.5) * pitch + jx).ravel()
    cy = ((np.arange(spec.grid_rows)[:, np.newaxis] + 0.5) * pitch + jy).ravel()
    corner = np.array([-half, half, half, -half, -half])
    coords = np.stack(spec._to_deg(cx[:, np.newaxis] + corner,
                                   cy[:, np.newaxis] + corner[[0, 0, 2, 2, 0]]), axis=-1)
    ids = [f"b{k:06d}" for k in range(n)]
    try:
        footprints = footprints_from(ids, coords.reshape(-1, 2), [5] * n, [1] * n)
    except ValueError as exc:
        raise ParseError(f"building_size_m and spacing_m give a bad footprint: {exc}") from exc
    lon, lat = spec._to_deg(cx, cy)
    codes = category_from_swath(lon, lat, spec)
    if not codes.any():
        raise SwathOutsideScene("no building lies within any damage band")

    # Raster frame: two cells of margin around every footprint vertex. It
    # must pass the header rules that assess applies when it reads it back.
    cs_deg = spec.cellsize_m / spec.m_per_deg_lat
    xll, yll = (coords.min(axis=(0, 1)) - 2.0 * cs_deg).tolist()
    with np.errstate(divide="ignore", over="ignore"):
        sizes = np.ceil((coords.max(axis=(0, 1)) + 2.0 * cs_deg - (xll, yll)) / cs_deg)
    for key, value in zip(("cellsize", "ncols", "nrows"), (cs_deg, *sizes.tolist())):
        _, rule, wanted = _HEADER_RULES[key]
        if not rule(value):
            raise ParseError(f"cellsize_m {spec.cellsize_m!r} gives raster {key} "
                             f"{value!r}, not {wanted}")
    ncols, nrows = map(int, sizes)

    # Paint bare int8 cells, the reader's type; ClassRaster then validates them once.
    try:
        cells = np.full((nrows, ncols), CLASS_BACKGROUND, dtype=np.int8)
    except MemoryError as exc:
        raise ParseError(f"cellsize_m {spec.cellsize_m!r} gives a {ncols}x{nrows} "
                         "raster, too large to allocate") from exc
    frame = (ncols, nrows, xll, yll, cs_deg)
    damaged = codes >= FemaCategory.MAJOR_DAMAGE
    for part, owner, cell in inside_pixels(frame, footprints):
        cells.put(cell, np.where(damaged[part][owner], CLASS_DAMAGED, CLASS_BUILDING))

    if spec.pixel_noise_rate > 0.0:
        # Cell k of a block reads draws 2k+1 (flip) and 2k+2 (replacement
        # class); the second is mixed only where the cell flips.
        flat = cells.ravel()
        t = np.uint64(_flip_threshold(spec.pixel_noise_rate))
        for start in range(0, flat.size, _NOISE_BLOCK):
            block = flat[start:start + _NOISE_BLOCK]
            flip = np.flatnonzero(rng._mixed(np.arange(1, 2 * block.size, 2, np.uint64)) < t)
            z = rng._mixed(2 * flip.astype(np.uint64) + np.uint64(2))
            block[flip] = np.floor((z.astype(np.float64) + 0.5) / _TWO_64 * 3.0)
            rng.state = (rng.state + 2 * block.size * _GOLDEN_GAMMA) & _MASK64

    raster = ClassRaster(ncols=ncols, nrows=nrows, xll=xll, yll=yll,
                         cellsize=cs_deg, nodata=DEFAULT_NODATA, cells=cells)

    # Box-Muller with math's log, cos and sin: numpy's differ in the last bit.
    drop, u1, u2 = rng.unit_array(3 * n).reshape(-1, 3).T
    kept = np.flatnonzero(drop >= spec.point_drop_rate)
    radius = np.sqrt(-2.0 * np.array(list(map(math.log, u1[kept].tolist()))))
    angle = (2.0 * math.pi * u2[kept]).tolist()
    sigma = spec.point_jitter_sigma_m
    with np.errstate(over="ignore"):  # a point off the globe is refused below
        x = lon[kept] + sigma * (radius * list(map(math.cos, angle))) / spec.m_per_deg_lon
        y = lat[kept] + sigma * (radius * list(map(math.sin, angle))) / spec.m_per_deg_lat
    off = np.flatnonzero(~((np.abs(x) <= 180.0) & (np.abs(y) <= 90.0)))
    if off.size:
        k, at = kept[off[0]], (x[off[0]].item(), y[off[0]].item())
        raise ParseError(f"point_jitter_sigma_m {sigma!r} puts point p{k:06d} at "
                         f"(lon, lat) {at}, outside [-180, 180] x [-90, 90]")
    truth = GroundTruthPoints([f"p{k:06d}" for k in kept.tolist()], x, y, codes[kept])

    return SynthScene(footprints=footprints, raster=raster, truth=truth,
                      oracle_categories=dict(zip(ids, map(tuple(FemaCategory).__getitem__,
                                                            codes.tolist()))))
