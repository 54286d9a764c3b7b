"""The columnar footprint collection: its views, its read-only buffer, its
equality with plain lists, and the same results from every consumer for the
collection and for a list of the same footprints."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from damagekit import geom
from damagekit.formats import parse_footprints_geojson, write_footprints_geojson
from damagekit.geom import FootprintArray, footprint_of, footprints_from, inside_pixels
from damagekit.truth import match_points
from damagekit.zonal import assess_all

from test_raster import chunked_pixels, window_scenes
from test_truth import match_scenes
from test_zonal import zonal_scenes

RINGS = {
    "a": [[(0, 0), (4, 0), (4, 4), (0, 4), (0, 0)],
          [(1, 1), (2, 1), (2, 2), (1, 1)], [(3.0, 3.0), (3.5, 3.0), (3.5, 3.5), (3.0, 3.0)]],
    "b": [[(10.5, -0.0), (12.0, 0.0), (11.0, 3e-7), (10.5, 0.0)]],
    "c": [[(-180, -90), (180, -90), (180, 90), (-180, -90)]],
}


def built_both_ways():
    """(FootprintArray, [Footprint]) of RINGS: one from the batch builder, the
    other from footprint_of, one footprint at a time."""
    rings = [ring for fid in RINGS for ring in RINGS[fid]]
    fps = footprints_from(list(RINGS), [xy for ring in rings for xy in ring],
                          list(map(len, rings)), [len(RINGS[fid]) for fid in RINGS])
    return fps, [footprint_of(fid, rings) for fid, rings in RINGS.items()]


def refuse_views(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a Footprint view was built")
    monkeypatch.setattr(geom, "_new", refused)


def test_views_equal_the_footprints_built_one_at_a_time():
    fps, direct = built_both_ways()
    assert isinstance(fps, FootprintArray) and len(fps) == 3
    assert [fps[j] for j in range(3)] == list(fps) == direct
    assert [fp.bounds for fp in fps] == [fp.bounds for fp in direct]
    assert fps[-1] == direct[-1] and fps[1:] == direct[1:] and fps[::-2] == direct[::-2]
    assert fps.index(direct[1]) == 1 and direct[2] in fps
    with pytest.raises(IndexError):
        fps[3]
    assert fps.take(np.array([2, 0])) == [direct[2], direct[0]]
    assert fps.take(np.array([], dtype=np.int64)) == []


def test_the_buffer_and_its_views_are_read_only():
    fps = parse_footprints_geojson(write_footprints_geojson(built_both_ways()[1]))
    for array in (fps.coords, fps.ring_offsets, fps.geom_offsets, fps.bounds):
        assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        fps.coords[0, 0] = 1.0
    view = fps[0]
    assert not view.exterior.coords.flags.writeable
    assert np.shares_memory(view.holes[1].coords, fps.coords)


def test_the_batch_builder_copies_its_input():
    coords = np.array(RINGS["a"][0], dtype=np.float64)
    fps = footprints_from(["a"], coords, [5], [1])
    coords[0, 0] = 1.0  # the caller's array stays theirs
    assert coords.flags.writeable and fps.coords[0, 0] == 0.0


@pytest.mark.parametrize("method", ["take", "of"])
def test_take_and_of_copy_the_coordinates_once(method):
    """The coordinate buffer take and of build is the one their collection
    keeps: beyond what it holds, the traced peak is about one buffer (the
    row index and its temporaries), where a second copy would add another."""
    n = 4000
    corners = np.array([(0, 0), (4e-3, 0), (4e-3, 4e-3), (0, 4e-3), (0, 0)])
    origins = np.stack([np.arange(n) % 80, np.arange(n) // 80], axis=1) * 1e-2
    fps = footprints_from([f"f{k}" for k in range(n)], corners + origins[:, None], [5] * n,
                          [1] * n)
    build, arg = (fps.take, np.arange(n)) if method == "take" else (FootprintArray.of, list(fps))
    tracemalloc.start()
    try:
        made = build(arg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert made == fps
    assert peak - held < 1.5 * fps.coords.nbytes


def test_the_batch_builder_never_returns_a_list(monkeypatch):
    """Rows the vectorised check rejects but footprint_of accepts are a fault
    of the check, not a collection."""
    monkeypatch.setattr(geom, "_checked_rings", lambda *args: None)
    rings = [ring for fid in RINGS for ring in RINGS[fid]]
    with pytest.raises(AssertionError, match="_checked_rings rejected"):
        footprints_from(list(RINGS), [xy for ring in rings for xy in ring],
                        list(map(len, rings)), [len(RINGS[fid]) for fid in RINGS])


def test_equality_with_lists_and_tuples_builds_no_view(monkeypatch):
    fps, direct = built_both_ways()
    other = FootprintArray.of(direct)
    refuse_views(monkeypatch)
    assert fps == direct and direct == fps and fps == tuple(direct) and tuple(direct) == fps
    assert fps == other and other == fps
    assert fps != direct[:2] and direct[::-1] != fps and fps != [1, 2, 3] and fps != "abc"
    renamed = [footprint_of("z", RINGS["a"]), *direct[1:]]
    assert fps != renamed and renamed != fps
    assert FootprintArray.of([]) == [] and len(FootprintArray.of([])) == 0


@settings(max_examples=150)
@given(scene=window_scenes())
def test_inside_pixels_are_the_same_for_the_collection_and_the_list(scene):
    frame, footprints = scene
    fps = FootprintArray.of(footprints)
    assert chunked_pixels(frame, fps) == chunked_pixels(frame, footprints)
    assert fps == footprints


@settings(max_examples=150)
@given(scene=zonal_scenes())
def test_assess_all_is_the_same_for_the_collection_and_the_list(scene):
    raster, footprints = scene
    assert assess_all(raster, FootprintArray.of(footprints)) == assess_all(raster, footprints)


@settings(max_examples=150)
@given(scene=match_scenes())
def test_match_points_is_the_same_for_the_collection_and_the_list(scene):
    points, footprints, radius = scene
    assert (match_points(points, FootprintArray.of(footprints), radius)
            == match_points(points, footprints, radius))
