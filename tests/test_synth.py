"""Synthetic scene generator: the deterministic RNG, scene layout, swath
banding, render/oracle agreement, and reproducibility guarantees."""

import math
import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from damagekit import synth
from damagekit.errors import SwathOutsideScene
from damagekit.formats import write_oracle_csv, write_truth_csv
from damagekit.geom import GeoPoint
from damagekit.raster import write_ascii_grid
from damagekit.synth import (SceneSpec, SplitMix64, category_from_swath,
                             generate)
from damagekit.truth import FemaCategory, match_points
from damagekit.zonal import assess_all

from _oracles import (noise_in_one_block, scene_survey_one_by_one,
                      splitmix64_next, splitmix64_units, swath_category,
                      swath_distance_m)

# ------------------------------------------------------------------- RNG

def test_splitmix64_reference_value():
    state, output = splitmix64_next(0)
    assert output == 0xE220A8397B1DCDAF
    assert state == 0x9E3779B97F4A7C15
    units, state = splitmix64_units(0, 1)
    assert units == [(0xE220A8397B1DCDAF + 0.5) / 2.0 ** 64]
    assert SplitMix64(0).unit_array(1).tolist() == units


def test_splitmix64_state_advances_by_golden_gamma():
    state1, _ = splitmix64_next(0)
    state2, _ = splitmix64_next(state1)
    assert state2 == (2 * 0x9E3779B97F4A7C15) % 2**64


def test_unit_draws_are_open_interval():
    draws = SplitMix64(7).unit_array(1000)
    assert np.all((draws > 0.0) & (draws < 1.0))


def test_bulk_draws_match_scalar_draws_exactly():
    expected, state = splitmix64_units(987654321, 300)
    bulk = SplitMix64(987654321)
    assert bulk.unit_array(300).tolist() == expected
    assert bulk.state == state


def test_bulk_draws_chunk_consistently():
    one_shot = SplitMix64(55).unit_array(40)
    rng = SplitMix64(55)
    chunks = np.concatenate([rng.unit_array(13), rng.unit_array(7),
                             rng.unit_array(20)])
    assert np.array_equal(one_shot, chunks)


def test_unit_draws_look_uniform():
    """10k draws: mean and decile counts within five standard errors."""
    draws = SplitMix64(123).unit_array(10_000)
    assert abs(float(draws.mean()) - 0.5) < 5.0 / math.sqrt(12.0 * 10_000)
    counts, _ = np.histogram(draws, bins=10, range=(0.0, 1.0))
    sigma = math.sqrt(10_000 * 0.1 * 0.9)
    assert np.all(np.abs(counts - 1000) < 5.0 * sigma)


# ------------------------------------------------------------- scene spec

def test_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec(grid_cols=0)
    with pytest.raises(ValueError):
        SceneSpec(spacing_m=-1.0)
    with pytest.raises(ValueError):
        SceneSpec(pixel_noise_rate=1.5)
    with pytest.raises(ValueError):
        SceneSpec(point_drop_rate=-0.1)
    with pytest.raises(ValueError):
        SceneSpec(point_jitter_sigma_m=-2.0)
    with pytest.raises(ValueError):
        SceneSpec(cellsize_m=0.0)


@pytest.mark.parametrize("field, value", [
    ("seed", "x"), ("seed", 1.0), ("seed", True),
    ("grid_cols", 2.5), ("grid_cols", False), ("grid_rows", "3"),
])
def test_spec_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SceneSpec(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("building_size_m", True), ("spacing_m", math.inf),
    pytest.param("spacing_m", 10**400, id="spacing_m-10**400"),
    ("swath_width_m", math.nan), ("swath_width_m", "24"), ("cellsize_m", math.nan),
    ("cellsize_m", -math.inf), ("pixel_noise_rate", math.nan),
    ("point_drop_rate", False), ("point_jitter_sigma_m", math.nan),
    ("point_jitter_sigma_m", math.inf),
])
def test_spec_rejects_non_finite_floats(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a "):
        SceneSpec(**{field: value})


@pytest.mark.parametrize("kwargs, needle", [
    (dict(grid_cols=513, grid_rows=512), "grid_cols x grid_rows gives 262,656 buildings, "
                                         "above the cap of 262,144"),
    (dict(grid_cols=2**40, grid_rows=2**40), "gives 1,208,925,819,614,629,174,706,176 buildings"),
    (dict(cellsize_m=0.1), "cellsize_m 0.1 gives a raster of up to 9.657e+07 cells on this "
                           "grid, above the cap of 67,108,864"),
    (dict(grid_cols=1, cellsize_m=1e-300), "gives a raster of up to inf cells"),
    (dict(origin=GeoPoint(0.0, 90.0)), "gives a raster of up to 1.33e+22 cells"),
])
def test_spec_refuses_scenes_over_the_size_caps(kwargs, needle):
    """Refused at construction, before generate draws or allocates."""
    with pytest.raises(ValueError, match=re.escape(needle)):
        SceneSpec(**kwargs)


def test_size_caps_admit_the_benchmark_scenes_and_the_largest_grid():
    SceneSpec(grid_cols=30, grid_rows=30, cellsize_m=0.5)  # 3.74M cells
    SceneSpec(grid_cols=80, grid_rows=80, spacing_m=10.0, cellsize_m=2.0)
    SceneSpec(grid_cols=512, grid_rows=512, cellsize_m=5.0)


def test_cell_cap_bounds_the_frame_that_generate_builds():
    """With the cap one cell below a scene's raster, its spec is refused;
    with the cap 15% above the raster of a mid-size scene, admitted."""
    rng = np.random.default_rng(77)
    for _ in range(25):
        spec = _random_small_spec(rng)
        try:
            cells = generate(spec).raster.cells.size
        except SwathOutsideScene:
            continue
        with mock.patch.object(synth, "_MAX_CELLS", cells - 1), \
                pytest.raises(ValueError, match="above the cap"):
            replace(spec)
    spec = SceneSpec(seed=3, grid_cols=12, grid_rows=10, cellsize_m=0.5)
    cells = generate(spec).raster.cells.size
    with mock.patch.object(synth, "_MAX_CELLS", int(1.15 * cells)):
        replace(spec)


def test_spec_accepts_integers_for_floats():
    assert SceneSpec(building_size_m=10, spacing_m=20, swath_width_m=24,
                     cellsize_m=1, pixel_noise_rate=0, point_drop_rate=1,
                     point_jitter_sigma_m=0) == SceneSpec(point_drop_rate=1.0)


def test_default_swath_runs_along_middle_row():
    spec = SceneSpec()
    assert spec.swath_width_m == 24.0  # 0.8 * (10 m building + 20 m spacing)
    assert spec.swath_start is not None and spec.swath_end is not None
    mid_y = (30 // 2 + 0.5) * 30.0
    for endpoint in (spec.swath_start, spec.swath_end):
        y_m = (endpoint.lat - spec.origin.lat) * spec.m_per_deg_lat
        assert y_m == pytest.approx(mid_y, rel=1e-9)


@pytest.mark.parametrize("end", ["swath_start", "swath_end"])
def test_spec_needs_both_swath_ends_or_neither(end):
    with pytest.raises(ValueError, match="^swath_start and swath_end must be given together"):
        SceneSpec(**{end: GeoPoint(-90.88, 32.9)})


def test_spec_takes_points_as_lon_lat_pairs():
    """origin and the swath ends may be [lon, lat] pairs, as in a scene spec
    file; the spec holds them as GeoPoints, and generate reads the same."""
    assert SceneSpec(origin=(-90.0, 32.0)) == SceneSpec(origin=GeoPoint(-90.0, 32.0))
    points = SceneSpec(grid_cols=6, grid_rows=5, pixel_noise_rate=0.1, seed=9)
    start, end = points.swath_start, points.swath_end
    pairs = replace(points, swath_start=[start.lon, start.lat], swath_end=[end.lon, end.lat])
    assert pairs == points and pairs.swath_start == start and pairs.swath_end == end
    scene, reference = generate(pairs), generate(points)
    assert scene.footprints == reference.footprints
    assert write_ascii_grid(scene.raster) == write_ascii_grid(reference.raster)
    assert write_truth_csv(scene.truth) == write_truth_csv(reference.truth)
    assert write_oracle_csv(scene.oracle_categories) == write_oracle_csv(
        reference.oracle_categories)


@pytest.mark.parametrize("kwargs, message", [
    (dict(origin=None), "origin must be a list of two numbers, got None"),
    (dict(origin=(-90.88, True)), "origin must be a list of two numbers, got (-90.88, True)"),
    (dict(origin=["-90.88", 32.9]), "origin must be a list of two numbers, got ['-90.88', 32.9]"),
    (dict(swath_start=[-90.88, 32.9, 0.0], swath_end=[-90.8, 32.9]),
     "swath_start must be a list of two numbers, got [-90.88, 32.9, 0.0]"),
    (dict(swath_start=[-90.88, 32.9], swath_end={"lon": -90.8, "lat": 32.9}),
     "swath_end must be a list of two numbers, got {'lon': -90.8, 'lat': 32.9}"),
    (dict(origin=[-90.88, 91]), "origin: latitude out of range: 91.0"),
    (dict(origin=[-90.88, 10**400]), "origin: int too large to convert to float"),
    # Points are checked first, as the command line checked them.
    (dict(seed="1", origin=[-90.88]), "origin must be a list of two numbers, got [-90.88]"),
])
def test_spec_refuses_points_that_are_not_two_numbers(kwargs, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        SceneSpec(**kwargs)


def test_swath_bands_cover_all_categories():
    spec = SceneSpec(grid_cols=11, grid_rows=11, swath_width_m=50.0)
    mid_y = (11 // 2 + 0.5) * 30.0

    def category_at(offset_m):
        lon = np.array([spec.origin.lon + 150.0 / spec.m_per_deg_lon])
        lat = np.array([spec.origin.lat + (mid_y + offset_m) / spec.m_per_deg_lat])
        return FemaCategory(category_from_swath(lon, lat, spec)[0])

    assert category_at(0.0) is FemaCategory.DESTROYED
    assert category_at(24.9) is FemaCategory.DESTROYED
    assert category_at(25.1) is FemaCategory.MAJOR_DAMAGE
    assert category_at(50.1) is FemaCategory.MINOR_DAMAGE
    assert category_at(75.1) is FemaCategory.AFFECTED
    assert category_at(100.1) is FemaCategory.NO_VISIBLE_DAMAGE


def _swath_codes_and_reference(spec, lon, lat):
    codes = category_from_swath(np.array(lon), np.array(lat), spec)
    reference = [swath_category(spec, GeoPoint(x, y)) for x, y in zip(lon, lat)]
    return codes.tolist(), reference


def _centroids_near_swath(spec, rng, n):
    """n random (lon, lat) lists within three swath widths of the scene."""
    reach = 3.0 * spec.swath_width_m
    pitch = spec.building_size_m + spec.spacing_m
    x = rng.uniform(-reach, spec.grid_cols * pitch + reach, n)
    y = rng.uniform(-reach, spec.grid_rows * pitch + reach, n)
    return [a.tolist() for a in spec._to_deg(x, y)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_array_bands_match_scalar_rule_on_random_centroids(seed):
    rng = np.random.default_rng(seed)
    spec = SceneSpec(grid_cols=7, grid_rows=9)
    start, end = (GeoPoint(*spec._to_deg(*xy)) for xy in rng.uniform(0, 210, (2, 2)).tolist())
    for spec in (spec, replace(spec, swath_width_m=float(rng.uniform(10, 90)),
                               swath_start=start, swath_end=end)):
        codes, reference = _swath_codes_and_reference(
            spec, *_centroids_near_swath(spec, rng, 2000))
        assert codes == reference
        assert len(set(codes)) == 5


def test_array_bands_match_scalar_rule_on_band_edges():
    """Widths chosen so that each centroid's distance is exactly a band edge
    (0.5, 1, 1.5 or 2 widths), and the widths one ulp either side. The swath
    is diagonal, so both terms of each distance's hypot are nonzero."""
    spec = SceneSpec(grid_cols=5, grid_rows=5)
    spec = replace(spec, swath_start=GeoPoint(*spec._to_deg(-20.0, 10.0)),
                   swath_end=GeoPoint(*spec._to_deg(170.0, 140.0)))
    lon, lat = _centroids_near_swath(spec, np.random.default_rng(11), 1000)
    edges_hit = 0
    for x, y in zip(lon, lat):
        d = swath_distance_m(spec, GeoPoint(x, y))
        for factor in (0.5, 1.0, 1.5, 2.0):
            width = d / factor
            for candidate in (width, math.nextafter(width, 0.0),
                              math.nextafter(width, math.inf)):
                if d > 0.0 and factor * candidate == d:
                    width = candidate
            edges_hit += factor * width == d
            for w in (width, math.nextafter(width, 0.0), math.nextafter(width, math.inf)):
                if w > 0.0:
                    codes, reference = _swath_codes_and_reference(
                        replace(spec, swath_width_m=w), [x], [y])
                    assert codes == reference
    assert edges_hit >= 3800


def test_array_bands_match_scalar_rule_on_zero_length_swath():
    spec = SceneSpec(grid_cols=6, grid_rows=6, swath_width_m=40.0)
    spec = replace(spec, swath_end=spec.swath_start)
    lon, lat = _centroids_near_swath(spec, np.random.default_rng(5), 500)
    lon.append(spec.swath_start.lon)
    lat.append(spec.swath_start.lat)
    codes, reference = _swath_codes_and_reference(spec, lon, lat)
    assert codes == reference
    assert codes[-1] == FemaCategory.DESTROYED


def test_wide_swath_scene_populates_every_band():
    """With a 50 m wide swath on the 30 m row pitch, each grid row lands
    squarely in one band even under the +-2.5 m building jitter."""
    spec = SceneSpec(seed=5, grid_cols=11, grid_rows=11, swath_width_m=50.0)
    scene = generate(spec)
    counts = {category: 0 for category in FemaCategory}
    for category in scene.oracle_categories.values():
        counts[category] += 1
    assert counts[FemaCategory.DESTROYED] == 11
    assert counts[FemaCategory.MAJOR_DAMAGE] == 22
    assert counts[FemaCategory.MINOR_DAMAGE] == 22
    assert counts[FemaCategory.AFFECTED] == 22
    assert counts[FemaCategory.NO_VISIBLE_DAMAGE] == 44


def test_swath_missing_every_building_raises():
    pitch = 30.0
    spec_kwargs = dict(seed=1, grid_cols=5, grid_rows=5)
    far_north = (5 + 200) * pitch
    origin = SceneSpec(**spec_kwargs).origin
    m_per_deg_lat = SceneSpec(**spec_kwargs).m_per_deg_lat
    start = GeoPoint(origin.lon, origin.lat + far_north / m_per_deg_lat)
    end = GeoPoint(origin.lon + 0.01, origin.lat + far_north / m_per_deg_lat)
    with pytest.raises(SwathOutsideScene):
        generate(SceneSpec(**spec_kwargs, swath_start=start, swath_end=end))


# ---------------------------------------------------------------- scenes

def test_default_scene_shape():
    scene = generate(SceneSpec(seed=11))
    assert len(scene.footprints) == 900
    assert len(scene.truth) == 900
    ids = [fp.id for fp in scene.footprints]
    assert ids == sorted(ids)
    assert ids[0] == "b000000" and ids[-1] == "b000899"
    assert [p.id for p in scene.truth] == [f"p{k:06d}" for k in range(900)]
    # Truth points carry the oracle category of their source footprint: a
    # FEMA code in the table, a member in each row and in the oracle.
    assert scene.truth.category.dtype == np.int64
    assert {type(c) for c in scene.oracle_categories.values()} == {FemaCategory}
    for point, fp in zip(scene.truth, scene.footprints):
        assert point.category is scene.oracle_categories[fp.id]


def test_raster_frame_covers_every_footprint():
    scene = generate(SceneSpec(seed=3, grid_cols=7, grid_rows=5))
    raster = scene.raster
    east = raster.xll + raster.ncols * raster.cellsize
    north = raster.yll + raster.nrows * raster.cellsize
    for fp in scene.footprints:
        assert raster.xll < fp.bounds.min_lon
        assert raster.yll < fp.bounds.min_lat
        assert fp.bounds.max_lon < east
        assert fp.bounds.max_lat < north


def test_noiseless_render_matches_oracle_exactly():
    """Without pixel noise, every assessed footprint is exactly 100 percent
    damaged when its oracle category is major-or-worse and 0 otherwise."""
    for seed in (2, 29, 307):
        scene = generate(SceneSpec(seed=seed, grid_cols=8, grid_rows=8))
        for est in assess_all(scene.raster, list(scene.footprints)):
            category = scene.oracle_categories[est.footprint_id]
            expected = 100.0 if category >= FemaCategory.MAJOR_DAMAGE else 0.0
            assert est.damage_pct == expected
            assert est.n_inside > 0
            assert not est.supersampled and not est.no_coverage


def test_generation_is_deterministic():
    spec = SceneSpec(seed=42, grid_cols=6, grid_rows=6,
                     pixel_noise_rate=0.15, point_jitter_sigma_m=6.0,
                     point_drop_rate=0.2)
    a = generate(spec)
    b = generate(spec)
    assert a.footprints == b.footprints
    assert a.truth == b.truth
    assert a.oracle_categories == b.oracle_categories
    assert write_ascii_grid(a.raster) == write_ascii_grid(b.raster)


def test_different_seeds_give_different_scenes():
    a = generate(SceneSpec(seed=1, grid_cols=6, grid_rows=6))
    b = generate(SceneSpec(seed=2, grid_cols=6, grid_rows=6))
    assert a.footprints != b.footprints


def test_dropping_points_keeps_survivor_positions():
    """Each point consumes its draws whether kept or dropped, so raising the
    drop rate must not move the surviving points."""
    base = SceneSpec(seed=9, grid_cols=8, grid_rows=8,
                     point_jitter_sigma_m=4.0, point_drop_rate=0.0)
    thinned_spec = replace(base, point_drop_rate=0.6)
    full = generate(base)
    thinned = generate(thinned_spec)
    assert 0 < len(thinned.truth) < len(full.truth)
    full_by_id = {p.id: p for p in full.truth}
    for p in thinned.truth:
        assert full_by_id[p.id] == p


def test_point_jitter_spreads_points():
    spec = SceneSpec(seed=4, grid_cols=6, grid_rows=6,
                     point_jitter_sigma_m=5.0)
    scene = generate(spec)
    centred = generate(replace(spec, point_jitter_sigma_m=0.0))
    moved = 0
    for a, b in zip(scene.truth, centred.truth):
        if (a.location.lon, a.location.lat) != (b.location.lon, b.location.lat):
            moved += 1
    assert moved == len(scene.truth)


def test_jittered_points_still_match_their_source_building():
    """At a 5 m point jitter on otherwise-default scenes, at least 99
    percent of points (pooled over seeds) should match back to the
    footprint they were generated from, and every such match should agree
    with the generator's category record."""
    total = own = 0
    for seed in range(1, 11):
        scene = generate(replace(SceneSpec(seed=seed),
                                 point_jitter_sigma_m=5.0))
        matched, _ = match_points(list(scene.truth), list(scene.footprints),
                                  radius_m=20.0)
        by_id = {p.id: p for p in scene.truth}
        total += len(scene.truth)
        for m in matched:
            if m.footprint_id == "b" + m.point_id[1:]:
                own += 1
                assert by_id[m.point_id].category is \
                    scene.oracle_categories[m.footprint_id]
    assert own / total >= 0.99


def test_pixel_noise_flips_cells_at_roughly_the_requested_rate():
    spec = SceneSpec(seed=8, grid_cols=6, grid_rows=6, pixel_noise_rate=0.3)
    noisy = generate(spec)
    clean = generate(replace(spec, pixel_noise_rate=0.0))
    differs = np.mean(noisy.raster.cells != clean.raster.cells)
    # A flipped cell keeps its value a third of the time.
    assert 0.15 < differs < 0.25


def test_block_noise_matches_one_block_reference():
    spec = SceneSpec(seed=21, grid_cols=15, grid_rows=15, cellsize_m=0.5,
                     pixel_noise_rate=0.2, point_jitter_sigma_m=3.0,
                     point_drop_rate=0.1)
    noisy = generate(spec)
    size = noisy.raster.cells.size
    # At least three blocks, and the last one partial.
    assert size > 3 * synth._NOISE_BLOCK and size % synth._NOISE_BLOCK
    rng = SplitMix64(spec.seed)
    rng.unit_array(2 * spec.grid_cols * spec.grid_rows)  # building jitter
    clean = generate(replace(spec, pixel_noise_rate=0.0)).raster.cells.copy()
    expected = noise_in_one_block(clean, rng, spec.pixel_noise_rate)
    assert np.array_equal(noisy.raster.cells, expected)
    # The truth draws come after the noise, so they show a partial last
    # block that drew too many or too few.
    with mock.patch.object(synth, "_NOISE_BLOCK", size):
        one_block = generate(spec)
    assert noisy.truth == one_block.truth


def _unmix(z):
    """The state whose SplitMix64 output is z: the mix run backwards."""
    mask = (1 << 64) - 1
    for shift, factor in ((31, 0x94D049BB133111EB), (27, 0xBF58476D1CE4E5B9), (30, None)):
        x = z
        for _ in range(64 // shift + 1):
            x = z ^ (x >> shift)
        z = x if factor is None else (x * pow(factor, -1, 1 << 64)) & mask
    return z


def test_unmix_inverts_the_output_mix():
    state, output = splitmix64_next(12345)
    assert _unmix(output) == state


def _noise_against_reference(spec):
    """((cells, final stream state) from generate, the same from the
    one-block reference noise on the noiseless cells)."""
    streams = []

    class Recorded(SplitMix64):
        def __init__(self, seed):
            super().__init__(seed)
            streams.append(self)

    with mock.patch.object(synth, "SplitMix64", Recorded):
        noisy = generate(spec)
    n = spec.grid_cols * spec.grid_rows
    rng = SplitMix64(spec.seed)
    rng.unit_array(2 * n)  # building jitter
    clean = generate(replace(spec, pixel_noise_rate=0.0)).raster.cells.copy()
    expected = noise_in_one_block(clean, rng, spec.pixel_noise_rate)
    rng.unit_array(3 * n)  # survey
    return (noisy.raster.cells, streams[0].state), (expected, rng.state)


@pytest.mark.parametrize("rate", [1e-12, 0.05, 0.5, 1.0])
def test_noise_matches_one_block_reference_at_rate(rate):
    spec = SceneSpec(seed=31, grid_cols=12, grid_rows=12, cellsize_m=0.5,
                     pixel_noise_rate=rate, point_jitter_sigma_m=2.0)
    (cells, state), (expected, expected_state) = _noise_against_reference(spec)
    assert cells.size > 2 * synth._NOISE_BLOCK and cells.size % synth._NOISE_BLOCK
    assert np.array_equal(cells, expected)
    assert state == expected_state
    flipped = np.mean(cells != generate(replace(spec, pixel_noise_rate=0.0)).raster.cells)
    assert flipped == 0.0 if rate < 1e-6 else abs(flipped - 2 * rate / 3) < 0.01


def _draw_reaches(z, rate):
    """Whether output z's unit draw, as unit_array computes it, is at least rate."""
    return (float(z) + 0.5) / 2.0 ** 64 >= rate


@pytest.mark.parametrize("rate", [2.0**-60, 1e-12, 0.05, 1 / 3, 0.5, 0.999, 1.0])
def test_flip_threshold_is_the_least_output_whose_draw_reaches_the_rate(rate):
    t = synth._flip_threshold(rate)
    assert 0 < t < 2**64
    assert _draw_reaches(t, rate) and not _draw_reaches(t - 1, rate)


def test_flip_threshold_at_the_rate_extremes():
    # At rate 1 the top 1,024 outputs round to 2**64: their draws are 1.0,
    # so they keep their cells, as unit_array's floats do.
    assert synth._flip_threshold(1.0) == 2**64 - 1024
    assert SplitMix64(_unmix(2**64 - 1) - 0x9E3779B97F4A7C15).unit_array(1)[0] == 1.0
    # Below half an output's step no draw is under the rate.
    assert synth._flip_threshold(2.0**-66) == 0


# Outputs from the bottom of the range to the top, below 2**53, where each
# output is its own float, and above, where runs of outputs share one.
THRESHOLD_OUTPUTS = [3, 2**52 + 1, 2**60 + 12345, 0x5555_5555_5555_5555,
                     2**63 + 2**10, 2**64 - 2**11 - 1]


@pytest.mark.parametrize("z", THRESHOLD_OUTPUTS)
def test_noise_matches_one_block_reference_at_threshold_rates(z):
    """Rates at a draw's exact value and one float either side. For each,
    seeds are chosen so that in one scene cell 0 draws exactly the rate's
    threshold output t and keeps its class, and in another cell 1 draws
    t - 1 and flips."""
    spec = SceneSpec(grid_cols=2, grid_rows=2, point_jitter_sigma_m=1.0)
    gamma = 0x9E3779B97F4A7C15
    at_rate = (float(z) + 0.5) / 2.0 ** 64
    for rate in (math.nextafter(at_rate, 0.0), at_rate, math.nextafter(at_rate, 1.0)):
        t = synth._flip_threshold(rate)
        for cell, output in ((0, t), (1, t - 1)):
            # Cell k's flip decision is draw 2k + 1 after the 2n jitter draws.
            seed = (_unmix(output) - (2 * 4 + 2 * cell + 1) * gamma) % 2**64
            noisy_spec = replace(spec, seed=seed, pixel_noise_rate=rate)
            (cells, state), (expected, expected_state) = _noise_against_reference(noisy_spec)
            assert np.array_equal(cells, expected)
            assert state == expected_state
            rng = SplitMix64(seed)
            draws = rng.unit_array(2 * 4 + 2 * cell + 2)[-2:]
            assert (draws[0] < rate) == (output < t)
            if np.floor(draws[1] * 3.0) != 0:  # a margin cell's replacement shows
                assert (cells.flat[cell] != 0) == (output < t)


def test_generate_peak_memory_on_scene_fine():
    """The noise stage holds one block of flip draws, not two float draws
    per cell: the seed-5 scene-fine spec peaked at 31.7 MiB before."""
    spec = SceneSpec(seed=5, grid_cols=30, grid_rows=30, cellsize_m=0.5,
                     pixel_noise_rate=0.05, point_jitter_sigma_m=4.0,
                     swath_width_m=270.0)
    tracemalloc.start()
    try:
        generate(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 28 * 2**20


# ------------------------------------------- survey against scalar loops

@pytest.mark.parametrize("drop_rate, sigma", [(0.0, 4.0), (0.3, 4.0), (1.0, 4.0),
                                              (0.3, 0.0), (0.0, 0)])
def test_array_survey_matches_scalar_loop(drop_rate, sigma):
    spec = SceneSpec(seed=13, grid_cols=9, grid_rows=7, swath_width_m=40.0,
                     point_drop_rate=drop_rate, point_jitter_sigma_m=sigma)
    scene = generate(spec)
    truth, oracle = scene_survey_one_by_one(spec, scene.raster.cells.size)
    assert list(scene.truth) == truth
    assert scene.oracle_categories == oracle
    assert all(type(p.location.lon) is float and type(p.location.lat) is float
               for p in scene.truth)
    if drop_rate == 0.0:
        assert len(truth) == 63
    elif drop_rate == 1.0:
        assert truth == []
    else:
        assert 0 < len(truth) < 63


def test_array_survey_matches_scalar_loop_where_jitter_dominates():
    """Near (0, 0) a 500 m jitter is as large as the centroid's own
    coordinate, so a last-bit change in log, cos or sin reaches truth.csv."""
    spec = SceneSpec(seed=17, grid_cols=40, grid_rows=40, origin=GeoPoint(0.0, 0.0),
                     point_jitter_sigma_m=500.0)
    scene = generate(spec)
    truth, _ = scene_survey_one_by_one(spec, scene.raster.cells.size)
    assert write_truth_csv(list(scene.truth)) == write_truth_csv(truth)


def _random_small_spec(rng):
    spec = SceneSpec(
        seed=int(rng.integers(2**40)), grid_cols=int(rng.integers(1, 9)),
        grid_rows=int(rng.integers(1, 9)), building_size_m=float(rng.uniform(2, 20)),
        spacing_m=float(rng.uniform(1, 30)), cellsize_m=float(rng.choice([1.0, 2.5, 4.0])),
        swath_width_m=float(rng.uniform(1, 80)),
        pixel_noise_rate=float(rng.choice([0.0, 0.1])),
        point_jitter_sigma_m=float(rng.choice([0.0, rng.uniform(0, 10)])),
        point_drop_rate=float(rng.choice([0.0, 0.3, rng.uniform(), 1.0])))
    if rng.uniform() < 0.3:
        start, end = (GeoPoint(*spec._to_deg(*xy))
                      for xy in rng.uniform(-50, 250, (2, 2)).tolist())
        spec = replace(spec, swath_start=start,
                       swath_end=start if rng.uniform() < 0.2 else end)
    return spec


def test_seeded_sweep_truth_and_oracle_bytes_match_scalar_references():
    rng = np.random.default_rng(20231)
    written = outside = 0
    for _ in range(60):
        spec = _random_small_spec(rng)
        try:
            scene = generate(spec)
        except SwathOutsideScene:
            truth, oracle = scene_survey_one_by_one(spec, 0)
            assert set(oracle.values()) == {FemaCategory.NO_VISIBLE_DAMAGE}
            outside += 1
            continue
        truth, oracle = scene_survey_one_by_one(spec, scene.raster.cells.size)
        assert write_truth_csv(list(scene.truth)) == write_truth_csv(truth)
        assert write_oracle_csv(scene.oracle_categories) == write_oracle_csv(oracle)
        written += 1
    assert written >= 50
