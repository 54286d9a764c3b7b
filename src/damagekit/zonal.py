"""Per-building damage estimates from a classification raster.

A building's damage percentage is the share of damaged-class pixels among
the raster pixels whose centres fall inside its footprint. Nodata pixels
count in neither numerator nor denominator; background pixels inside the
footprint stay in the denominator. Footprints too small to capture any
pixel centre fall back to a 4x4 subcell supersampling of the pixels that
overlap their bounding box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateFootprintId, check_unique
from .geom import Footprint, contains_many
from .raster import CLASS_DAMAGED, ClassRaster, pixel_windows


@dataclass(frozen=True)
class DamageEstimate:
    """Estimated damage for one footprint.

    damage_pct is 100 * n_damaged / n_inside (0.0 when nothing was sampled).
    supersampled marks estimates that came from the 4x4 subcell fallback;
    no_coverage marks footprints with no usable raster coverage at all.
    """

    footprint_id: str
    damage_pct: float
    n_inside: int
    n_damaged: int
    supersampled: bool = False
    no_coverage: bool = False


def assess_footprint(raster: ClassRaster, fp: Footprint) -> DamageEstimate:
    """Estimate the damaged share of one footprint."""
    return assess_all(raster, [fp])[0]


def assess_all(raster: ClassRaster, footprints: list[Footprint]) -> list[DamageEstimate]:
    """Assess every footprint, preserving input order."""
    check_unique(footprints, DuplicateFootprintId, "footprint")
    return [_estimate(raster, fp, hit)
            for fp, hit in zip(footprints, pixel_windows(raster.frame, footprints))]


def _estimate(raster: ClassRaster, fp: Footprint, hit) -> DamageEstimate:
    """The estimate of one footprint from its pixel_windows entry."""
    if hit is None:
        return DamageEstimate(fp.id, 0.0, 0, 0, supersampled=False, no_coverage=True)
    window, inside = hit
    cells = raster.cells[window]

    # Pass 1: pixel centres. Pass 2, when no centre is usable: 4x4 subcell
    # centres per candidate pixel of the window.
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

