"""Zonal damage estimation: hand fixtures, the nodata/background rules, the
supersampling fallback, exact agreement with a full-raster scan and with the
per-footprint reference, and metamorphic properties."""

import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from damagekit import geom as geom_module
from damagekit.errors import DuplicateFootprintId
from damagekit.geom import Footprint, GeoPoint, Ring, _centres, contains
from damagekit.synth import SceneSpec, generate
from damagekit.zonal import DamageEstimate, assess_all

from _oracles import (build_raster, full_scan_assess, octagon_footprint,
                      rect_footprint, square_footprint, vertices,
                      zonal_estimate)
from test_raster import EDGE_FRAME, edge_scenes, window_scenes

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
    est = assess_all(raster, [fp])[0]
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
    est = assess_all(raster, [fp])[0]
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
    est = assess_all(raster, [fp])[0]
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
    damaged = assess_all(raster, [rect_footprint("d", 0.0, 0.0, 2 * CS, 4 * CS)])[0]
    intact = assess_all(raster, [rect_footprint("i", 2 * CS, 0.0, 4 * CS, 4 * CS)])[0]
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
    est = assess_all(raster, [fp])[0]
    assert est.supersampled
    assert not est.no_coverage
    assert est.n_inside == 16
    assert est.n_damaged == 8
    assert est.damage_pct == 50.0


def test_footprint_outside_raster_has_no_coverage():
    raster = fixture_raster([[0, 1], [1, 0]])
    fp = square_footprint("far", 0.05, 0.05, 0.002)
    est = assess_all(raster, [fp])[0]
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
    est = assess_all(raster, [fp])[0]
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
        assert assess_all(raster, [fp])[0] == full_scan_assess(raster, fp)


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
        before = assess_all(raster, [fp])[0]
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
        after = assess_all(build_raster(new_cells, cellsize=0.001), [fp])[0]
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


# ------------------------------------------------ properties and reference

# Offsets in cells of a small rectangle's corner from a pixel centre: on
# centres, corners, subcell centres and between them; and its sizes.
CORNERS = st.sampled_from([-0.5, -0.375, -0.25, 0.0, 0.125, 0.25])
SIZES = st.sampled_from([0.0625, 0.125, 0.25, 0.5, 1.0])


@st.composite
def zonal_scenes(draw):
    """A raster with nodata cells on one of the pixel-window test frames, and
    footprints on, partly on or off it: those of the pixel-window scenes, and
    rectangles of a cell or less, which take the supersampled fallback or
    have no coverage."""
    frame, footprints = draw(window_scenes())
    ncols, nrows, xll, yll, cs = frame
    cells = draw(st.lists(st.sampled_from([0, 1, 2, -1]), min_size=ncols * nrows,
                          max_size=ncols * nrows))
    for k in range(draw(st.integers(0, 4))):
        col = draw(st.integers(-2, ncols + 1)) + draw(CORNERS)
        row = draw(st.integers(-2, nrows + 1)) + draw(CORNERS)
        (x0, x1), (y1, y0) = _centres(frame, np.array([col, col + draw(SIZES)]),
                                      np.array([row, row + draw(SIZES)]))
        if x0 < x1 and y0 < y1:
            footprints.append(rect_footprint(f"t{k}", x0, y0, x1, y1))
    return build_raster(np.reshape(cells, (nrows, ncols)), cellsize=cs, xll=xll,
                        yll=yll), footprints


def edge_raster_scene():
    """EDGE_FRAME's raster with every class and nodata, its edge_scenes, and
    two rectangles that hold subcell centres but no pixel centre: one in the
    last column, one in the last row."""
    ncols, nrows, xll, yll, cs = EDGE_FRAME
    cells = [[1, 0, -1, 2, 1], [0, -1, 2, 1, 2], [-1, 2, 1, 0, -1], [2, 1, 2, -1, 0]]
    footprints = edge_scenes(EDGE_FRAME)
    for fid, col, row in (("last-col", ncols - 1, 1), ("last-row", 2, nrows - 1)):
        (x0, x1), (y1, y0) = _centres(EDGE_FRAME, np.array([col - 0.45, col - 0.2]),
                                      np.array([row + 0.2, row + 0.45]))
        footprints.append(rect_footprint(fid, x0, y0, x1, y1))
    return build_raster(cells, cellsize=cs, xll=xll, yll=yll), footprints


@settings(max_examples=300)
@given(scene=zonal_scenes())
@example(scene=edge_raster_scene())
def test_assess_all_matches_the_per_footprint_reference(scene):
    raster, footprints = scene
    expected = [zonal_estimate(raster, fp) for fp in footprints]
    assert assess_all(raster, footprints) == expected
    with mock.patch.object(geom_module, "_SPAN_PIXELS", 1):
        assert assess_all(raster, footprints) == expected


def test_assess_all_takes_the_pixels_chunk_by_chunk():
    """Pixels come a chunk at a time, so assessing 900 footprints on a
    3.7M-cell 0.5 m raster allocates no more than 10 MiB at its peak."""
    scene = generate(SceneSpec(seed=3, cellsize_m=0.5, pixel_noise_rate=0.05))
    tracemalloc.start()
    try:
        assess_all(scene.raster, list(scene.footprints))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


@settings(max_examples=100)
@given(scene=zonal_scenes(), data=st.data())
def test_permuting_footprints_permutes_the_estimates(scene, data):
    raster, footprints = scene
    order = data.draw(st.permutations(range(len(footprints))))
    estimates = assess_all(raster, footprints)
    assert assess_all(raster, [footprints[i] for i in order]) == [
        estimates[i] for i in order]


@st.composite
def eighth_cell_scenes(draw):
    """A raster with a power-of-two cellsize, and rectangles and right
    triangles with vertices on an eighth-cell lattice, down to an eighth of
    a cell across: every coordinate is exact, and stays exact when shifted
    by whole cells."""
    cs = 2.0 ** draw(st.integers(-12, -4))
    ncols, nrows = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    xll, yll = draw(st.sampled_from([(0.0, 0.0), (-90.875, 32.875)]))
    cells = draw(st.lists(st.sampled_from([0, 1, 2, -1]), min_size=ncols * nrows,
                          max_size=ncols * nrows))
    footprints = []
    for k in range(draw(st.integers(1, 6))):
        x, y = draw(st.integers(-8, 8 * ncols + 8)), draw(st.integers(-8, 8 * nrows + 8))
        w, h = draw(st.integers(1, 20)), draw(st.integers(1, 20))
        corners = [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]
        if draw(st.booleans()):
            del corners[2]  # a slanted edge
        ring = [GeoPoint(xll + i * cs / 8, yll + j * cs / 8) for i, j in corners]
        footprints.append(Footprint(f"f{k}", Ring((*ring, ring[0]))))
    return build_raster(np.reshape(cells, (nrows, ncols)), cellsize=cs, xll=xll,
                        yll=yll), footprints


def shifted(raster, footprints, cols, rows):
    """The raster's origin and the footprints moved by whole cells."""
    dx, dy = cols * raster.cellsize, rows * raster.cellsize
    moved = [Footprint(fp.id, Ring(tuple(GeoPoint(v.lon + dx, v.lat + dy)
                                         for v in vertices(fp.exterior))))
             for fp in footprints]
    return build_raster(raster.cells, cellsize=raster.cellsize, xll=raster.xll + dx,
                        yll=raster.yll + dy), moved


@settings(max_examples=150)
@given(scene=eighth_cell_scenes(), cols=st.integers(-40, 40), rows=st.integers(-40, 40))
def test_shifting_raster_and_footprints_by_whole_cells_keeps_the_estimates(
        scene, cols, rows):
    raster, footprints = scene
    assert assess_all(*shifted(raster, footprints, cols, rows)) == assess_all(
        raster, footprints)
