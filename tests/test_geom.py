"""Geometry tests: containment checked against an independent convex-polygon
oracle, boundary conventions, scalar/vectorised agreement, and the planar
projection and point-footprint distance with hand-computed reference values."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damagekit.geom import (EARTH_RADIUS_M, BBox, Footprint, GeoPoint, Ring,
                            contains, footprints_from, metres_per_degree)

from _oracles import (contains_many, point_to_footprint_distance_m,
                      scalar_contains, square_footprint, square_ring, vertices)

METERS_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0


def convex_oracle_contains(corners, lon, lat):
    """Half-plane test for a counter-clockwise convex ring (closed)."""
    for a, b in zip(corners, corners[1:]):
        cross = (b.lon - a.lon) * (lat - a.lat) - (b.lat - a.lat) * (lon - a.lon)
        if cross < 0.0:
            return False
    return True


def regular_polygon(fid, cx, cy, radius, n):
    points = []
    for k in range(n):
        angle = 2.0 * math.pi * k / n
        points.append(GeoPoint(cx + radius * math.cos(angle),
                               cy + radius * math.sin(angle)))
    points.append(points[0])
    return Footprint(fid, Ring(tuple(points)))


# ------------------------------------------------------------- validation

def test_geopoint_rejects_out_of_range_coordinates():
    with pytest.raises(ValueError):
        GeoPoint(180.5, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(-181.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, 90.0001)
    with pytest.raises(ValueError):
        GeoPoint(float("nan"), 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, float("inf"))
    # Extremes are allowed.
    GeoPoint(-180.0, -90.0)
    GeoPoint(180.0, 90.0)


def test_ring_requires_closure_and_enough_vertices():
    a, b, c = GeoPoint(0, 0), GeoPoint(1, 0), GeoPoint(1, 1)
    with pytest.raises(ValueError):
        Ring((a, b, a))  # only 3 vertices
    with pytest.raises(ValueError):
        Ring((a, b, c, GeoPoint(0, 1)))  # not closed
    with pytest.raises(ValueError):
        Ring((a, b, b, c, a))  # consecutive duplicate
    Ring((a, b, c, a))  # triangle is fine


def test_footprint_requires_id_and_extent():
    ring = square_ring(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        Footprint("", ring)
    degenerate = Ring((GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(0, 2),
                       GeoPoint(0, 0)))
    with pytest.raises(ValueError):
        Footprint("line", degenerate)


def test_rings_hold_a_read_only_array_and_compare_by_value():
    ring = square_ring(0.5, 0.5, 0.5)
    assert ring.coords.tolist() == [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                    [0.0, 1.0], [0.0, 0.0]]
    assert vertices(ring)[1] == GeoPoint(1.0, 0.0)
    assert not ring.coords.flags.writeable
    signed = Ring((GeoPoint(-0.0, 0.0), GeoPoint(1.0, 0.0), GeoPoint(1.0, 1.0),
                   GeoPoint(-0.0, 1.0), GeoPoint(-0.0, 0.0)))
    # -0.0 == 0.0, so the hash must not see the sign either.
    assert signed == ring and hash(signed) == hash(ring)
    assert ring != square_ring(0.5, 0.5, 0.25) and ring != vertices(ring)
    assert len({ring, signed, square_ring(0.5, 0.5, 0.5)}) == 1


GOOD = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5, -3.0, 4.0, 7.0])
ANY = st.sampled_from([0.0, 1.0, -3.0, 95.0, 200.0, float("nan"), float("-inf")])


@st.composite
def ring_lists(draw):
    """(lon, lat) pairs, most rings closed, in range and free of repeats;
    some of any length, with values out of range, or unclosed."""
    rare = draw(st.integers(0, 5)) == 0
    values = ANY if rare else GOOD
    n = draw(st.integers(0, 6)) if rare else draw(st.integers(3, 5))
    pairs = [(draw(values), draw(values)) for _ in range(n)]
    if pairs and draw(st.integers(0, 9)) == 0:  # flat: a zero extent
        pairs = [(lon, pairs[0][1]) for lon, _ in pairs]
    if pairs and draw(st.integers(0, 7)):
        pairs.append(pairs[0])
    return pairs


def outcome(build):
    try:
        fps = build()
        return fps, [fp.bounds for fp in fps]
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@given(features=st.lists(st.tuples(st.sampled_from(["a", "b", "c", ""]),
                                   st.lists(ring_lists(), min_size=1, max_size=3)),
                         max_size=4))
def test_batch_builder_matches_direct_construction(features):
    def direct():
        footprints = []
        for fid, rings in features:
            built = [Ring(tuple(GeoPoint(lon, lat) for lon, lat in ring))
                     for ring in rings]
            footprints.append(Footprint(fid, built[0], tuple(built[1:])))
        return footprints

    def batch():
        coords = [pair for _, rings in features for ring in rings for pair in ring]
        return footprints_from([fid for fid, _ in features],
                               np.array(coords, dtype=np.float64).reshape(-1, 2),
                               [len(ring) for _, rings in features for ring in rings],
                               [len(rings) for _, rings in features])

    assert outcome(batch) == outcome(direct)


def test_bbox_of_square():
    fp = square_footprint("sq", 0.5, 0.5, 0.5)
    assert fp.bounds == BBox(0.0, 0.0, 1.0, 1.0)


# ------------------------------------------------------------ containment

def test_square_containment_and_boundary_convention():
    fp = square_footprint("sq", 0.5, 0.5, 0.5)
    assert contains(fp, GeoPoint(0.5, 0.5))
    assert contains(fp, GeoPoint(0.001, 0.999))
    assert not contains(fp, GeoPoint(1.5, 0.5))
    assert not contains(fp, GeoPoint(0.5, -0.0001))
    # Points on the boundary count as inside: edges, corners, vertices.
    assert contains(fp, GeoPoint(0.0, 0.5))
    assert contains(fp, GeoPoint(1.0, 0.5))
    assert contains(fp, GeoPoint(0.5, 0.0))
    assert contains(fp, GeoPoint(0.5, 1.0))
    assert contains(fp, GeoPoint(0.0, 0.0))
    assert contains(fp, GeoPoint(1.0, 1.0))


def test_holed_square_containment():
    fp = square_footprint("donut", 0.5, 0.5, 0.5, hole_half=0.25)
    # Strictly inside the hole is outside the footprint.
    assert not contains(fp, GeoPoint(0.5, 0.5))
    assert not contains(fp, GeoPoint(0.6, 0.4))
    # The annulus between hole and exterior is inside.
    assert contains(fp, GeoPoint(0.1, 0.5))
    assert contains(fp, GeoPoint(0.5, 0.9))
    # Hole boundary still counts as inside, like the exterior boundary.
    assert contains(fp, GeoPoint(0.25, 0.5))
    assert contains(fp, GeoPoint(0.75, 0.75))
    assert contains(fp, GeoPoint(0.0, 0.5))
    assert not contains(fp, GeoPoint(1.2, 0.5))


def test_containment_matches_convex_oracle():
    """1000 seeded points per polygon against an independent half-plane test."""
    rng = random.Random(20240611)
    for n in (3, 5, 8, 13):
        cx = rng.uniform(-1.0, 1.0)
        cy = rng.uniform(-1.0, 1.0)
        radius = rng.uniform(0.2, 0.8)
        fp = regular_polygon(f"poly{n}", cx, cy, radius, n)
        for _ in range(1000):
            lon = cx + rng.uniform(-1.3 * radius, 1.3 * radius)
            lat = cy + rng.uniform(-1.3 * radius, 1.3 * radius)
            expected = convex_oracle_contains(vertices(fp.exterior), lon, lat)
            assert contains(fp, GeoPoint(lon, lat)) == expected


def lattice_footprint(fid, rng, q=1.0 / 64.0):
    """A seeded L-shaped footprint snapped to a q lattice: every edge is
    axis-aligned, so many probes fall exactly on an edge or its extension."""
    x0 = rng.randrange(-16, 17) * q
    y0 = rng.randrange(-16, 17) * q
    w, h = rng.randint(2, 10), rng.randint(2, 10)
    cut_x, cut_y = rng.randint(1, w - 1), rng.randint(1, h - 1)
    corners = [(0, 0), (w, 0), (w, cut_y), (cut_x, cut_y), (cut_x, h), (0, h),
               (0, 0)]
    return Footprint(fid, Ring(tuple(GeoPoint(x0 + i * q, y0 + j * q)
                                     for i, j in corners)))


def test_contains_many_matches_scalar_exactly():
    """contains and the grid reference contains_many against the ring-by-ring
    scalar reference of tests/_oracles.py, on random points, every vertex,
    points along every edge and every lattice node around the snapped
    shapes."""
    rng = random.Random(77)
    # A hole in the notch of an L, inside the exterior's bounding box but
    # outside the exterior: points on the hole's edge stay outside.
    notch = Ring(tuple(GeoPoint(x, y) for x, y in [
        (0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.5, 0.5), (0.5, 1.0), (0.0, 1.0),
        (0.0, 0.0)]))
    stray_hole = Footprint("stray", notch, (square_ring(0.75, 0.75, 0.125),))
    shapes = [
        square_footprint("sq", 0.25, 0.25, 0.25),
        square_footprint("donut", 0.5, 0.5, 0.5, hole_half=0.25),
        regular_polygon("hept", 0.1, -0.2, 0.4, 7),
        stray_hole,
        *(lattice_footprint(f"lattice{k}", rng) for k in range(8)),
    ]
    for fp in shapes:
        lons = [rng.uniform(-0.3, 1.3) for _ in range(400)]
        lats = [rng.uniform(-0.3, 1.3) for _ in range(400)]
        # Also probe exact vertices and points along each edge.
        for ring in (fp.exterior, *fp.holes):
            for a, b in zip(vertices(ring), vertices(ring)[1:]):
                for t in (0.0, 0.25, 0.5):
                    lons.append(a.lon + t * (b.lon - a.lon))
                    lats.append(a.lat + t * (b.lat - a.lat))
        b = fp.bounds
        for lon in np.arange(b.min_lon - 1 / 32, b.max_lon + 1 / 32, 1 / 128):
            for lat in np.arange(b.min_lat - 1 / 32, b.max_lat + 1 / 32, 1 / 128):
                lons.append(float(lon))
                lats.append(float(lat))
        expected = [scalar_contains(fp, GeoPoint(lon, lat))
                    for lon, lat in zip(lons, lats)]
        got = [contains(fp, GeoPoint(lon, lat)) for lon, lat in zip(lons, lats)]
        assert all(type(g) is bool for g in got)
        assert got == expected
        many = contains_many(fp, np.array(lons), np.array(lats))
        assert many.dtype == bool
        assert many.tolist() == expected
    # numpy scalar coordinates still give a Python bool.
    assert contains(stray_hole, GeoPoint(*np.array([0.25, 0.25]))) is True
    on_stray_edge = [(0.625, 0.75), (0.75, 0.875), (0.875, 0.875)]
    assert not any(contains(stray_hole, GeoPoint(*p)) for p in on_stray_edge)
    lons, lats = np.array(on_stray_edge).T
    assert not contains_many(stray_hole, lons, lats).any()


def test_contains_many_broadcasts_grid():
    fp = square_footprint("sq", 0.5, 0.5, 0.5)
    lons = np.array([0.25, 0.75, 1.25])
    lats = np.array([0.5, -0.5])
    grid = contains_many(fp, lons[np.newaxis, :], lats[:, np.newaxis])
    assert grid.shape == (2, 3)
    assert grid.tolist() == [[True, True, False], [False, False, False]]


def test_containment_is_translation_equivariant():
    """Shifting footprint and probe by the same exact offset cannot change
    the answer. Uses dyadic coordinates so every sum is exact."""
    rng = random.Random(5150)
    for _ in range(50):
        grid = lambda: rng.randrange(-64, 65) / 64.0
        cx, cy = grid(), grid()
        half = rng.randrange(8, 33) / 64.0
        fp = square_footprint("sq", cx, cy, half)
        shift_lon = rng.randrange(-8, 9) / 8.0
        shift_lat = rng.randrange(-8, 9) / 8.0
        moved = square_footprint("sq", cx + shift_lon, cy + shift_lat, half)
        for _ in range(40):
            lon = grid() + 1.0 / 128.0
            lat = grid() + 1.0 / 128.0
            assert contains(fp, GeoPoint(lon, lat)) == contains(
                moved, GeoPoint(lon + shift_lon, lat + shift_lat))


# ------------------------------------------------------ metres per degree

def test_one_degree_of_latitude_in_metres():
    # Mean Earth radius 6,371,008.8 m gives pi/180 * R per degree.
    _, ky = metres_per_degree(30.5)
    assert abs(ky - 111195.08) < 0.01


def test_one_degree_of_longitude_at_60_north():
    kx, _ = metres_per_degree(60.0)
    assert abs(kx - 55597.54) < 0.01


def test_distance_shrinks_with_reference_latitude():
    kx_equator, ky_equator = metres_per_degree(0.0)
    kx_60, ky_60 = metres_per_degree(60.0)
    assert kx_60 == pytest.approx(kx_equator * math.cos(math.radians(60.0)),
                                  rel=1e-12)
    assert ky_60 == ky_equator


# ------------------------------------------------- point-footprint distance

def test_distance_to_footprint_is_zero_inside():
    fp = square_footprint("sq", 0.5, 0.5, 0.5)
    assert point_to_footprint_distance_m(GeoPoint(0.5, 0.5), fp, 0.0) == 0.0
    assert point_to_footprint_distance_m(GeoPoint(0.0, 0.5), fp, 0.0) == 0.0


def test_perpendicular_distance_to_square_edge():
    fp = square_footprint("sq", 0.5, 0.5, 0.5)
    d = point_to_footprint_distance_m(GeoPoint(2.0, 0.5), fp, ref_lat=0.0)
    assert d == pytest.approx(1.0 * METERS_PER_DEG_LAT, rel=1e-6)


def test_diagonal_distance_to_square_corner():
    fp = square_footprint("sq", 0.5, 0.5, 0.5)
    d = point_to_footprint_distance_m(GeoPoint(2.0, 2.0), fp, ref_lat=0.0)
    assert d == pytest.approx(math.sqrt(2.0) * METERS_PER_DEG_LAT, rel=1e-6)


def test_distance_from_inside_hole_reaches_hole_edge():
    fp = square_footprint("donut", 0.5, 0.5, 0.5, hole_half=0.25)
    d = point_to_footprint_distance_m(GeoPoint(0.5, 0.5), fp, ref_lat=0.0)
    assert d == pytest.approx(0.25 * METERS_PER_DEG_LAT, rel=1e-6)


def test_contains_iff_distance_zero():
    rng = random.Random(8080)
    fp = square_footprint("donut", 0.5, 0.5, 0.5, hole_half=0.25)
    for _ in range(500):
        p = GeoPoint(rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5))
        d = point_to_footprint_distance_m(p, fp, ref_lat=0.0)
        if contains(fp, p):
            assert d == 0.0
        else:
            assert d > 0.0


def test_footprint_distance_scales_with_reference_latitude():
    fp = square_footprint("sq", 0.5, 0.5, 0.5)
    p = GeoPoint(3.0, 0.5)
    d0 = point_to_footprint_distance_m(p, fp, ref_lat=0.0)
    d60 = point_to_footprint_distance_m(p, fp, ref_lat=60.0)
    # Pure east-west separation shrinks by cos(ref_lat).
    assert d60 == pytest.approx(d0 * math.cos(math.radians(60.0)), rel=1e-12)
