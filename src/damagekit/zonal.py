"""Per-building damage estimates from a classification raster.

A building's damage percentage is the share of damaged-class pixels among
the raster pixels whose centres fall inside its footprint. Nodata pixels
count in neither numerator nor denominator; background pixels inside the
footprint stay in the denominator. Footprints too small to capture any
usable pixel centre fall back to the centres of a frame four times finer
(4x4 subcells per pixel), each reading the pixel it lies in.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .columns import Columns
from .errors import DuplicateFootprintId, check_unique
from .geom import Footprint, FootprintArray
from .raster import CLASS_DAMAGED, ClassRaster, inside_pixels


@dataclass(frozen=True)
class DamageEstimate:
    """Estimated damage for one footprint.

    damage_pct is 100 * n_damaged / n_inside (0.0 when nothing was sampled).
    supersampled marks estimates counted on the subcell centres of the frame
    four times finer, for a footprint that holds no usable pixel centre;
    no_coverage marks footprints with no usable raster coverage at all.
    """

    footprint_id: str
    damage_pct: float
    n_inside: int
    n_damaged: int
    supersampled: bool = False
    no_coverage: bool = False


class DamageEstimates(Columns):
    row = DamageEstimate
    columns = {"footprint_id": object, "damage_pct": np.float64, "n_inside": np.int64,
               "n_damaged": np.int64, "supersampled": bool, "no_coverage": bool}

    @classmethod
    def counted(cls, ids, n_inside, n_damaged, supersampled, no_coverage) -> DamageEstimates:
        """The estimates of these counts and flags, damage_pct from the counts."""
        n = np.asarray(n_inside, dtype=np.int64)
        pct = np.divide(100.0 * np.asarray(n_damaged), n, out=np.zeros(len(n)), where=n > 0)
        return cls(ids, pct, n, n_damaged, supersampled, no_coverage)


def assess_all(raster: ClassRaster, footprints: Sequence[Footprint]) -> DamageEstimates:
    """Assess every footprint, preserving input order."""
    fps = FootprintArray.of(footprints)
    check_unique(fps.ids, DuplicateFootprintId, "footprint")
    n_inside, n_damaged = _counts(raster, fps, 1)
    fine = n_inside == 0  # counted again on the frame four times finer
    n_inside[fine], n_damaged[fine] = _counts(raster, fps.take(np.flatnonzero(fine)), 4)
    return DamageEstimates.counted(fps.ids, n_inside, n_damaged, fine & (n_inside > 0),
                                   n_inside == 0)


def _counts(raster: ClassRaster, fps: FootprintArray, k: int):
    """(n_inside, n_damaged) of the footprints: their usable centres of the
    frame k times finer than the raster's, each reading the cell it lies in,
    and of those the damaged ones."""
    frame = (k * raster.ncols, k * raster.nrows, raster.xll, raster.yll, raster.cellsize / k)
    n_inside, n_damaged = np.zeros((2, len(fps)), dtype=np.int64)
    for part, owner, row, col in inside_pixels(frame, fps):
        cells = raster.cells[row // k, col // k]
        n_inside[part] = np.bincount(owner[cells != raster.nodata], minlength=len(part))
        n_damaged[part] = np.bincount(owner[cells == CLASS_DAMAGED], minlength=len(part))
    return n_inside, n_damaged
