"""Damage categories, binary labelling schemes, point-footprint matching
(checked against a no-index brute-force matcher), and sample joining."""

import math
import random
import tracemalloc
from time import perf_counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import damagekit.truth as truth_module

from damagekit.errors import (DuplicateFootprintId, DuplicatePointId,
                              MissingEstimate, UnknownCategory, check_unique)
from damagekit.geom import (EARTH_RADIUS_M, Footprint, GeoPoint, Ring,
                            footprints_from)
from damagekit.truth import (DESTROYED_ONLY, MAJOR_PLUS, BinaryScheme,
                             FemaCategory, GroundTruthPoint, GroundTruthPoints,
                             PointMatch, join_samples, match_points,
                             matching_reference_latitude, parse_scheme)
from damagekit.zonal import DamageEstimate

from _oracles import (binarize, brute_force_match, rect_footprint,
                      reference_latitude, square_footprint, vertices)

M_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0


def truth_point(pid, lon, lat, category=FemaCategory.DESTROYED):
    return GroundTruthPoint(pid, GeoPoint(lon, lat), category)


# ------------------------------------------------------------- categories

def test_category_labels_round_trip():
    for category in FemaCategory:
        assert FemaCategory.from_label(category.label) is category
    assert FemaCategory.from_label("Destroyed") is FemaCategory.DESTROYED
    assert FemaCategory.DESTROYED.label == "destroyed"
    assert FemaCategory.NO_VISIBLE_DAMAGE.label == "no_visible_damage"
    with pytest.raises(UnknownCategory):
        FemaCategory.from_label("obliterated")


def test_categories_are_ordered_by_severity():
    values = [FemaCategory.NO_VISIBLE_DAMAGE, FemaCategory.AFFECTED,
              FemaCategory.MINOR_DAMAGE, FemaCategory.MAJOR_DAMAGE,
              FemaCategory.DESTROYED]
    assert [int(c) for c in values] == [0, 1, 2, 3, 4]
    assert sorted(FemaCategory) == values


def test_binarize_under_both_presets():
    major_plus = [binarize(c, MAJOR_PLUS) for c in sorted(FemaCategory)]
    destroyed_only = [binarize(c, DESTROYED_ONLY) for c in sorted(FemaCategory)]
    assert major_plus == [0, 0, 0, 1, 1]
    assert destroyed_only == [0, 0, 0, 0, 1]


def test_points_hold_fema_codes_and_give_members():
    points = GroundTruthPoints.of([truth_point("p1", 0.0, 0.0, FemaCategory.AFFECTED),
                                   truth_point("p2", 0.0, 0.0, FemaCategory.DESTROYED)])
    assert GroundTruthPoints.columns["category"] is np.int64
    assert points.category.dtype == np.int64 and points.category.tolist() == [1, 4]
    assert [p.category for p in points] == [FemaCategory.AFFECTED, FemaCategory.DESTROYED]
    assert points[0].category is FemaCategory.AFFECTED and points[1].category is FemaCategory.DESTROYED


def test_scheme_ids_and_parsing():
    assert MAJOR_PLUS.id == "major_plus"
    assert DESTROYED_ONLY.id == "destroyed_only"
    assert parse_scheme("major_plus") == MAJOR_PLUS
    assert parse_scheme("destroyed_only") == DESTROYED_ONLY
    custom = parse_scheme("minor_damage, major_damage, destroyed")
    assert custom.id == "minor_damage,major_damage,destroyed"
    assert parse_scheme(custom.id) == custom
    # Writing the presets out longhand lands on the preset ids.
    assert parse_scheme("major_damage,destroyed").id == "major_plus"
    with pytest.raises(UnknownCategory):
        parse_scheme("major_plus,bogus")


def test_scheme_must_be_proper_subset():
    with pytest.raises(ValueError):
        BinaryScheme(frozenset())
    with pytest.raises(ValueError):
        BinaryScheme(frozenset(FemaCategory))
    BinaryScheme(frozenset({FemaCategory.AFFECTED}))


# ---------------------------------------------------------------- matching

def test_point_inside_footprint_matches_at_distance_zero():
    fp = square_footprint("b1", 0.0, 0.0, 5.0 / M_PER_DEG_LAT)
    points = [truth_point("p1", 0.0, 0.0)]
    matched, unmatched = match_points(points, [fp], radius_m=20.0)
    assert unmatched == []
    assert matched == [PointMatch("p1", "b1", 0.0)]


def test_point_beyond_radius_is_unmatched():
    half_deg = 5.0 / M_PER_DEG_LAT
    fp = square_footprint("b1", 0.0, 0.0, half_deg)
    # 25 metres north of the footprint's top edge.
    p = truth_point("p1", 0.0, half_deg + 25.0 / M_PER_DEG_LAT)
    matched, unmatched = match_points([p], [fp], radius_m=20.0)
    assert matched == []
    assert unmatched == ["p1"]
    matched, unmatched = match_points([p], [fp], radius_m=30.0)
    assert unmatched == []
    assert matched[0].footprint_id == "b1"
    assert matched[0].distance_m == pytest.approx(25.0, rel=1e-9)


def test_nearest_of_two_footprints_wins():
    half_deg = 2.0 / M_PER_DEG_LAT
    near = square_footprint("near", 0.0, (2.0 + 5.0) / M_PER_DEG_LAT, half_deg)
    far = square_footprint("far", 0.0, -(2.0 + 15.0) / M_PER_DEG_LAT, half_deg)
    matched, _ = match_points([truth_point("p1", 0.0, 0.0)], [far, near], 20.0)
    assert matched[0].footprint_id == "near"
    assert matched[0].distance_m == pytest.approx(5.0, rel=1e-9)


def test_exact_tie_breaks_to_smaller_footprint_id():
    half = 0.001
    east = square_footprint("zz", 0.002 + half, 0.0, half)
    west = square_footprint("aa", -(0.002 + half), 0.0, half)
    point = [truth_point("p1", 0.0, 0.0)]
    for footprints in ([east, west], [west, east]):
        matched, _ = match_points(point, footprints, radius_m=500.0)
        assert matched[0].footprint_id == "aa"


def test_a_point_at_exactly_the_radius_is_matched():
    """The radius is inclusive: a point at its matched distance d is matched
    at radius d and unmatched at the float just below d, as brute force has it."""
    footprints = [square_footprint("b1", 0.0, 0.0, 1e-4)]
    points = [truth_point("p1", 3e-4, 5e-5)]
    (match,), _ = match_points(points, footprints, radius_m=100.0)
    d = match.distance_m
    for radius, matched_ids in [(d, ["p1"]), (math.nextafter(d, 0.0), [])]:
        matched, unmatched = match_points(points, footprints, radius)
        assert (list(matched), unmatched) == brute_force_match(points, footprints, radius)
        assert [m.point_id for m in matched] == matched_ids


def test_a_tie_first_seen_in_a_wider_round_goes_to_the_smaller_id():
    """Two 1e-5 degree boxes mirrored about the point's meridian, 2.8 m away:
    the first round's 2.2 m cells reach only the east one, and the second
    round finds the west one at the same distance. Its smaller id wins."""
    west = square_footprint("a", -3e-5, 0.0, 5e-6)
    east = square_footprint("b", 3e-5, 0.0, 5e-6)
    points = [truth_point("p1", 0.0, 0.0)]
    for footprints in ([west, east], [east, west]):
        matched, unmatched = match_points(points, footprints, radius_m=20.0)
        assert (list(matched), unmatched) == brute_force_match(points, footprints, 20.0)
        assert [m.footprint_id for m in matched] == ["a"]


def test_duplicate_ids_are_rejected():
    fp = square_footprint("b1", 0.0, 0.0, 0.0001)
    p = truth_point("p1", 0.0, 0.0)
    with pytest.raises(DuplicatePointId):
        match_points([p, p], [fp], 20.0)
    with pytest.raises(DuplicateFootprintId):
        match_points([p], [fp, square_footprint("b1", 0.01, 0.0, 0.0001)], 20.0)


@pytest.mark.parametrize("ids", [
    ["b", "a", "c", "a", "b"], ("b", "a", "c", "a", "b"),
    np.array(["b", "a", "c", "a", "b"], dtype=object), (i for i in ["b", "a", "c", "a", "b"]),
], ids=["list", "tuple", "array", "generator"])
def test_check_unique_names_the_first_id_that_repeats_an_earlier_one(ids):
    with pytest.raises(DuplicatePointId, match="^duplicate point id 'a'$"):
        check_unique(ids, DuplicatePointId, "point")
    check_unique(iter(["b", "a", "c"]), DuplicatePointId, "point")


def test_a_point_id_must_not_be_empty():
    with pytest.raises(ValueError, match="point id must be non-empty"):
        truth_point("", 0.0, 0.0)


@pytest.mark.parametrize("points, footprints", [
    ([], [square_footprint("b1", 0.0, 0.0, 0.001)]), ([truth_point("p1", 0.0, 0.0)], []), ([], []),
], ids=["no-points", "no-footprints", "neither"])
def test_matching_without_points_or_footprints_leaves_every_point_unmatched(points, footprints):
    matched, unmatched = match_points(points, footprints, radius_m=20.0)
    assert len(matched) == 0 and unmatched == [p.id for p in points]
    assert (list(matched), unmatched) == brute_force_match(points, footprints, 20.0)


def test_radius_must_be_positive():
    with pytest.raises(ValueError):
        match_points([truth_point("p1", 0.0, 0.0)],
                     [square_footprint("b1", 0.0, 0.0, 0.0001)], 0.0)


def random_match_scene(rng, n_footprints=60, n_points=80):
    lat0 = rng.uniform(-55.0, 55.0)
    lon0 = rng.uniform(-150.0, 150.0)
    m_lat = M_PER_DEG_LAT
    m_lon = m_lat * math.cos(math.radians(lat0))
    footprints = []
    cols = 10
    for k in range(n_footprints):
        gx = (k % cols) * 40.0 + rng.uniform(-6.0, 6.0)
        gy = (k // cols) * 40.0 + rng.uniform(-6.0, 6.0)
        half_m = rng.uniform(4.0, 9.0)
        footprints.append(square_footprint(
            f"b{k:04d}", lon0 + gx / m_lon, lat0 + gy / m_lat, half_m / m_lat))
    points = []
    for k in range(n_points):
        if rng.random() < 0.75:
            base = rng.choice(footprints)
            cx = (base.bounds.min_lon + base.bounds.max_lon) / 2.0
            cy = (base.bounds.min_lat + base.bounds.max_lat) / 2.0
            lon = cx + rng.gauss(0.0, 9.0) / m_lon
            lat = cy + rng.gauss(0.0, 9.0) / m_lat
        else:
            lon = lon0 + rng.uniform(-80.0, 480.0) / m_lon
            lat = lat0 + rng.uniform(-80.0, 320.0) / m_lat
        category = rng.choice(list(FemaCategory))
        points.append(GroundTruthPoint(f"p{k:04d}", GeoPoint(lon, lat), category))
    return points, footprints


def test_grid_matching_agrees_with_brute_force():
    """The spatial-hash matcher must reproduce the no-index scan exactly:
    same pairs, same distances, same leftovers. Radii far below the
    footprint size make grids of many columns per footprint; below the least
    grid cell, 1e-305 and the least subnormal, the cell stops shrinking.
    Radii far above it, 1e4 m and inf, take rounds of doubling cells."""
    rng = random.Random(61803)
    for round_no in range(8):
        points, footprints = random_match_scene(rng)
        for radius in (rng.choice([8.0, 20.0, 35.0]), 1e-9, 1e-300, 1e-305, 5e-324,
                       1e4, math.inf):
            matched, unmatched = match_points(points, footprints, radius)
            ref_matched, ref_unmatched = brute_force_match(points, footprints,
                                                           radius)
            assert [(m.point_id, m.footprint_id) for m in matched] == \
                   [(pid, fid) for pid, fid, _ in ref_matched]
            for m, (_, _, ref_d) in zip(matched, ref_matched):
                assert m.distance_m == ref_d
            assert unmatched == ref_unmatched


def test_growing_radius_only_adds_matches():
    rng = random.Random(1123)
    points, footprints = random_match_scene(rng)
    by_radius = {}
    for radius in (5.0, 12.0, 25.0, 50.0):
        matched, _ = match_points(points, footprints, radius)
        by_radius[radius] = {m.point_id: (m.footprint_id, m.distance_m)
                             for m in matched}
    radii = sorted(by_radius)
    for small, large in zip(radii, radii[1:]):
        for pid, pair in by_radius[small].items():
            assert by_radius[large][pid] == pair
        assert len(by_radius[large]) >= len(by_radius[small])


# Lattice step in degrees (about 3.4 m): lattice coordinates, and their sums
# with the base latitudes below, are exact, so points land exactly on edges
# and vertices, and mirrored footprints tie exactly.
STEP = 2.0 ** -15


@st.composite
def match_scenes(draw):
    """Footprints on a lattice (rectangles, rectangles with a hole, slanted
    quadrilaterals), some mirrored across longitude 0 or sharing edges, up
    to 14 steps wide so that they span several grid cells; points on
    lattice nodes, half-steps or off the lattice, some on longitude 0."""
    lat0 = draw(st.sampled_from([0.0, 32.9, -60.0]))
    ids = iter(draw(st.permutations([f"f{k:02d}" for k in range(12)])))
    node = lambda x, y: GeoPoint(x * STEP, lat0 + y * STEP)  # noqa: E731
    footprints = []
    for _ in range(draw(st.integers(1, 5))):
        x0, y0 = draw(st.integers(-12, 12)), draw(st.integers(-12, 12))
        w, h = draw(st.integers(1, 14)), draw(st.integers(1, 14))
        slant = draw(st.integers(1 - w, 3))
        kind = draw(st.sampled_from(["rect", "hole", "slanted"]))
        for sign in (1, -1)[:1 + draw(st.booleans())]:
            corners = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]
            if kind == "slanted":
                corners[2] = (x0 + w + slant, y0 + h)
            ring = Ring(tuple(node(sign * x, y) for x, y in corners + corners[:1]))
            holes = ()
            if kind == "hole" and w > 2 and h > 2:
                inner = [(x0 + 1, y0 + 1), (x0 + w - 1, y0 + 1),
                         (x0 + w - 1, y0 + h - 1), (x0 + 1, y0 + h - 1)]
                holes = (Ring(tuple(node(sign * x, y) for x, y in inner + inner[:1])),)
            footprints.append(Footprint(next(ids), ring, holes))
    points = []
    for k in range(draw(st.integers(1, 8))):
        scale = draw(st.sampled_from([1.0, 0.5, 0.37]))
        x = draw(st.sampled_from([0, draw(st.integers(-30, 30))])) * scale
        y = draw(st.integers(-30, 30)) * scale
        points.append(truth_point(f"p{k}", x * STEP, lat0 + y * STEP))
    radius = draw(st.sampled_from([3.0, 10.0, 20.0, 45.0]))
    return points, footprints, radius


@settings(max_examples=250)
@given(scene=match_scenes(), pair_edges=st.sampled_from([1, 3, 2**15]))
def test_batched_matching_agrees_with_brute_force(scene, pair_edges):
    points, footprints, radius = scene
    with mock.patch.object(truth_module, "_PAIR_EDGES", pair_edges):
        matched, unmatched = match_points(points, footprints, radius)
    ref_matched, ref_unmatched = brute_force_match(points, footprints, radius)
    assert [tuple(m) for m in matched] == ref_matched
    assert unmatched == ref_unmatched


@settings(max_examples=150)
@given(scene=match_scenes(), data=st.data())
def test_matching_does_not_depend_on_point_order(scene, data):
    points, footprints, radius = scene
    order = data.draw(st.permutations(range(len(points))))
    matched, unmatched = match_points(points, footprints, radius)
    again, unmatched_again = match_points([points[i] for i in order],
                                          footprints, radius)
    assert again == [m for i in order for m in matched if m.point_id == points[i].id]
    assert unmatched_again == [points[i].id for i in order if points[i].id in unmatched]


def test_shared_edge_ties_at_zero_go_to_the_smaller_id():
    west = rect_footprint("zz", -2 * STEP, 0.0, 0.0, 2 * STEP)
    east = rect_footprint("mm", 0.0, 0.0, 2 * STEP, 2 * STEP)
    on_edge = [truth_point("p1", 0.0, STEP), truth_point("p2", 0.0, 0.0)]
    for footprints in ([west, east], [east, west]):
        matched, _ = match_points(on_edge, footprints, 5.0)
        assert matched == [PointMatch("p1", "mm", 0.0), PointMatch("p2", "mm", 0.0)]


def lattice_scene(side, seed):
    """side x side square footprints 10 m wide at a 20 m pitch, built from
    one coordinate array, and one jittered point per footprint."""
    rng = random.Random(seed)
    m_lon = M_PER_DEG_LAT * math.cos(math.radians(32.9))
    cx = np.tile(np.arange(side) * 20.0, side)
    cy = np.repeat(np.arange(side) * 20.0, side)
    corner = np.array([-5.0, 5.0, 5.0, -5.0, -5.0])
    coords = np.stack([-90.88 + (cx[:, None] + corner) / m_lon,
                       32.9 + (cy[:, None] + corner[[0, 0, 2, 2, 0]]) / M_PER_DEG_LAT],
                      axis=-1).reshape(-1, 2)
    n = side * side
    footprints = footprints_from([f"b{k:06d}" for k in range(n)], coords,
                                 [5] * n, [1] * n)
    points = [truth_point(f"p{k:06d}",
                          -90.88 + (x + rng.gauss(0.0, 6.0)) / m_lon,
                          32.9 + (y + rng.gauss(0.0, 6.0)) / M_PER_DEG_LAT)
              for k, (x, y) in enumerate(zip(cx.tolist(), cy.tolist()))]
    return points, footprints


def test_matching_scales_to_many_points_and_footprints():
    points, footprints = lattice_scene(200, seed=31)  # 40,000 of each
    start = perf_counter()
    matched, unmatched = match_points(points, footprints, 20.0)
    elapsed = perf_counter() - start
    assert len(matched) + len(unmatched) == 40_000
    assert elapsed < 5.0


def test_matching_at_any_radius_measures_few_pairs_per_point():
    """With cells as wide as the radius, an infinite one would make every
    (point, footprint) pair a candidate: 900**2 of them here."""
    points, footprints = lattice_scene(30, seed=33)
    rows = []
    distances = truth_module._distances

    def counted(x, *args):
        rows.append(len(x))
        return distances(x, *args)

    with mock.patch.object(truth_module, "_distances", counted):
        matched, unmatched = match_points(points, footprints, math.inf)
    assert len(matched) == 900 and unmatched == []
    assert sum(rows) <= 40 * len(points)


def test_matching_memory_is_bounded_by_its_chunks():
    points, footprints = lattice_scene(80, seed=32)
    tracemalloc.start()
    try:
        matched, _ = match_points(points, footprints, 20.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(matched) == 6400
    assert peak < 8_000_000


def test_reference_latitude_does_not_depend_on_point_order():
    rng = random.Random(0)
    points = [truth_point(f"p{k}", 0.0, rng.uniform(-60.0, 60.0))
              for k in range(300)]
    footprints = [square_footprint(f"b{k}", 0.0, rng.uniform(-60.0, 60.0), 1e-4)
                  for k in range(25)]
    vertex_lats = [v.lat for fp in footprints for v in vertices(fp.exterior)[:-1]]
    expected = reference_latitude(points, footprints)
    in_order = set()
    for seed in range(20):
        shuffled = random.Random(seed).sample(points, len(points))
        assert matching_reference_latitude(shuffled, footprints) == expected
        lats = [p.location.lat for p in shuffled] + vertex_lats
        in_order.add(float(np.cumsum(lats)[-1]) / len(lats))
    assert len(in_order) > 1  # an in-order sum moves with the order here


def test_reference_latitude_averages_points_and_vertices():
    points = [truth_point("p1", 0.0, 10.0), truth_point("p2", 0.0, 20.0)]
    fp = square_footprint("b1", 5.0, 1.0, 1.0)  # corner latitudes 0, 0, 2, 2
    ref = matching_reference_latitude(points, [fp])
    assert ref == pytest.approx((10.0 + 20.0 + 0.0 + 0.0 + 2.0 + 2.0) / 6.0,
                                rel=1e-12)


# ------------------------------------------------------------------ joins

def test_join_samples_builds_labelled_rows():
    matched = [PointMatch("p1", "b1", 3.5), PointMatch("p2", "b2", 0.0)]
    estimates = [DamageEstimate("b1", 40.0, 10, 4),
                 DamageEstimate("b2", 0.0, 8, 0)]
    points = [truth_point("p1", 0.0, 0.0, FemaCategory.DESTROYED),
              truth_point("p2", 0.0, 0.1, FemaCategory.AFFECTED)]
    samples = join_samples(matched, estimates, points, MAJOR_PLUS)
    assert [(s.point_id, s.footprint_id, s.label, s.damage_pct)
            for s in samples] == [("p1", "b1", 1, 40.0), ("p2", "b2", 0, 0.0)]
    assert samples[0].distance_m == 3.5


def test_join_samples_requires_estimates_and_points():
    matched = [PointMatch("p1", "b1", 3.5)]
    points = [truth_point("p1", 0.0, 0.0)]
    with pytest.raises(MissingEstimate):
        join_samples(matched, [DamageEstimate("b9", 1.0, 1, 0)], points,
                     MAJOR_PLUS)
    with pytest.raises(ValueError):
        join_samples(matched, [DamageEstimate("b1", 1.0, 1, 0)], [],
                     MAJOR_PLUS)
