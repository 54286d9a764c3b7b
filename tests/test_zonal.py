"""Zonal damage estimation: hand fixtures, the nodata/background rules, the
supersampling fallback, and exact agreement with a full-raster scan."""

import math
import random

import numpy as np
import pytest

from damagekit.errors import DuplicateFootprintId
from damagekit.geom import GeoPoint, contains
from damagekit.zonal import DamageEstimate, assess_all, assess_footprint

from _oracles import (build_raster, full_scan_assess, octagon_footprint,
                      rect_footprint, square_footprint)

CS = 0.001  # cell size in degrees for the hand fixtures


def fixture_raster(cells):
    return build_raster(cells, cellsize=CS, xll=0.0, yll=0.0)


def test_half_damaged_footprint_scores_fifty():
    raster = fixture_raster([
        [0, 2, 2, 0],
        [0, 2, 2, 0],
        [0, 1, 1, 0],
        [0, 1, 1, 0],
    ])
    fp = rect_footprint("f1", 1 * CS, 0.0, 3 * CS, 4 * CS)
    est = assess_footprint(raster, fp)
    assert est == DamageEstimate("f1", 50.0, 8, 4)
    assert not est.supersampled and not est.no_coverage


def test_nodata_pixels_count_nowhere():
    raster = fixture_raster([
        [0, -1, 2, 0],
        [0, 1, -1, 0],
        [0, 2, 2, 0],
        [0, 1, 1, 0],
    ])
    fp = rect_footprint("f1", 1 * CS, 0.0, 3 * CS, 4 * CS)
    est = assess_footprint(raster, fp)
    # Two nodata pixels leave six usable, three of them damaged.
    assert est.n_inside == 6
    assert est.n_damaged == 3
    assert est.damage_pct == 50.0


def test_background_pixels_stay_in_denominator():
    raster = fixture_raster([
        [0, 2, 2, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ])
    fp = rect_footprint("f1", 1 * CS, 0.0, 3 * CS, 4 * CS)
    est = assess_footprint(raster, fp)
    assert est.n_inside == 8
    assert est.n_damaged == 2
    assert est.damage_pct == 25.0


def test_fully_damaged_and_fully_intact():
    raster = fixture_raster([
        [2, 2, 1, 1],
        [2, 2, 1, 1],
        [2, 2, 1, 1],
        [2, 2, 1, 1],
    ])
    damaged = assess_footprint(raster, rect_footprint("d", 0.0, 0.0, 2 * CS, 4 * CS))
    intact = assess_footprint(raster, rect_footprint("i", 2 * CS, 0.0, 4 * CS, 4 * CS))
    assert damaged.damage_pct == 100.0
    assert intact.damage_pct == 0.0
    assert intact.n_inside == 8


def test_tiny_footprint_falls_back_to_supersampling():
    raster = fixture_raster([
        [0, 0, 0, 0],
        [0, 2, 1, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ])
    # A sliver above the row-1 pixel centres: no centre falls inside, but
    # two of the four subcell rows do, over the damaged and intact columns.
    fp = rect_footprint("s", 1.1 * CS, 2.6 * CS, 2.9 * CS, 2.9 * CS)
    est = assess_footprint(raster, fp)
    assert est.supersampled
    assert not est.no_coverage
    assert est.n_inside == 16
    assert est.n_damaged == 8
    assert est.damage_pct == 50.0


def test_footprint_outside_raster_has_no_coverage():
    raster = fixture_raster([[0, 1], [1, 0]])
    fp = square_footprint("far", 0.05, 0.05, 0.002)
    est = assess_footprint(raster, fp)
    assert est == DamageEstimate("far", 0.0, 0, 0,
                                 supersampled=False, no_coverage=True)


def test_sliver_missing_every_subcell_has_no_coverage():
    raster = fixture_raster([
        [0, 0, 0, 0],
        [0, 2, 1, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ])
    # Sits strictly between neighbouring subcell centres in both axes.
    fp = rect_footprint("gap", 1.13 * CS, 2.7 * CS, 1.37 * CS, 2.85 * CS)
    est = assess_footprint(raster, fp)
    assert est.no_coverage
    assert not est.supersampled
    assert est.n_inside == 0
    assert est.damage_pct == 0.0


# ----------------------------------------------------- full-scan agreement

def random_cells(rng, nrows, ncols):
    choices = [0, 0, 1, 1, 1, 2, 2, 2, -1]
    return [[rng.choice(choices) for _ in range(ncols)] for _ in range(nrows)]


def random_footprint(rng, raster, index):
    width = raster.ncols * raster.cellsize
    height = raster.nrows * raster.cellsize
    cx = raster.xll + rng.uniform(-0.1, 1.1) * width
    cy = raster.yll + rng.uniform(-0.1, 1.1) * height
    kind = rng.random()
    if kind < 0.25:
        half = rng.uniform(0.05, 0.45) * raster.cellsize  # subcell scale
        return square_footprint(f"tiny{index}", cx, cy, half)
    if kind < 0.5:
        radius = rng.uniform(1.0, 3.5) * raster.cellsize
        return octagon_footprint(f"oct{index}", cx, cy, radius)
    if kind < 0.7:
        half = rng.uniform(1.0, 3.0) * raster.cellsize
        return square_footprint(f"holed{index}", cx, cy, half,
                                hole_half=half * 0.45)
    half = rng.uniform(0.8, 3.0) * raster.cellsize
    return square_footprint(f"sq{index}", cx, cy, half)


def test_windowed_assessment_matches_full_scan():
    """Seeded random rasters and footprints: the windowed, vectorised
    implementation must agree exactly with a scan of every pixel."""
    rng = random.Random(90125)
    for index in range(40):
        nrows = rng.randint(5, 11)
        ncols = rng.randint(5, 11)
        raster = build_raster(random_cells(rng, nrows, ncols),
                              cellsize=rng.choice([0.0004, 0.001, 0.0025]),
                              xll=rng.uniform(-0.05, 0.05),
                              yll=rng.uniform(-0.05, 0.05))
        fp = random_footprint(rng, raster, index)
        assert assess_footprint(raster, fp) == full_scan_assess(raster, fp)


def test_far_footprint_on_a_tiny_cell_raster_has_no_coverage():
    """Window bounds 1e301 cells away must not wrap around in int64."""
    raster = build_raster([[2, 1], [1, 2]], cellsize=1e-300)
    far = square_footprint("far", 10.0, 10.0, 1.0)
    west = square_footprint("west", -10.0, -10.0, 1.0)
    on = rect_footprint("on", 0.0, 0.0, 2e-300, 2e-300)
    estimates = assess_all(raster, [far, west, on])
    assert estimates[0] == DamageEstimate("far", 0.0, 0, 0, no_coverage=True)
    assert estimates[1] == DamageEstimate("west", 0.0, 0, 0, no_coverage=True)
    assert estimates[2] == DamageEstimate("on", 50.0, 4, 2)
    for fp, estimate in zip([far, west, on], estimates):
        assert estimate == full_scan_assess(raster, fp)


def test_adding_damage_never_lowers_the_estimate():
    rng = random.Random(424242)
    checked = 0
    while checked < 15:
        nrows = rng.randint(5, 9)
        ncols = rng.randint(5, 9)
        cells = np.array(random_cells(rng, nrows, ncols), dtype=np.int32)
        raster = build_raster(cells, cellsize=0.001)
        fp = square_footprint("mono", 0.001 * ncols / 2, 0.001 * nrows / 2,
                              0.001 * rng.uniform(1.0, 2.5))
        before = assess_footprint(raster, fp)
        if before.supersampled or before.no_coverage:
            continue
        # Flip one usable non-damaged pixel inside the footprint.
        flipped = None
        for row in range(nrows):
            for col in range(ncols):
                value = int(cells[row, col])
                if value in (0, 1):
                    lon = raster.xll + (col + 0.5) * raster.cellsize
                    lat = raster.yll + (nrows - row - 0.5) * raster.cellsize
                    if contains(fp, GeoPoint(lon, lat)):
                        flipped = (row, col)
                        break
            if flipped:
                break
        if flipped is None:
            continue
        new_cells = cells.copy()
        new_cells[flipped] = 2
        after = assess_footprint(build_raster(new_cells, cellsize=0.001), fp)
        assert after.n_inside == before.n_inside
        assert after.n_damaged == before.n_damaged + 1
        assert after.damage_pct >= before.damage_pct
        checked += 1


def test_assess_all_preserves_order_and_rejects_duplicates():
    raster = fixture_raster([
        [2, 2, 1, 1],
        [2, 2, 1, 1],
        [2, 2, 1, 1],
        [2, 2, 1, 1],
    ])
    footprints = [
        rect_footprint("b", 2 * CS, 0.0, 4 * CS, 4 * CS),
        rect_footprint("a", 0.0, 0.0, 2 * CS, 4 * CS),
    ]
    estimates = assess_all(raster, footprints)
    assert [e.footprint_id for e in estimates] == ["b", "a"]
    assert estimates[0].damage_pct == 0.0
    assert estimates[1].damage_pct == 100.0

    with pytest.raises(DuplicateFootprintId):
        assess_all(raster, footprints + [rect_footprint("a", 0.0, 0.0,
                                                        CS, CS)])


def test_batch_of_many_footprints():
    rng = random.Random(1347)
    nrows = ncols = 40
    cells = [[rng.choice([0, 1, 2]) for _ in range(ncols)] for _ in range(nrows)]
    raster = build_raster(cells, cellsize=0.001)
    footprints = []
    for k in range(120):
        cx = rng.uniform(0.002, 0.038)
        cy = rng.uniform(0.002, 0.038)
        footprints.append(square_footprint(f"b{k:04d}", cx, cy, 0.0015))
    estimates = assess_all(raster, footprints)
    assert len(estimates) == 120
    assert [e.footprint_id for e in estimates] == [fp.id for fp in footprints]
    for est in estimates:
        assert 0.0 <= est.damage_pct <= 100.0
        assert est.n_inside > 0
        assert est.damage_pct == 100.0 * est.n_damaged / est.n_inside
