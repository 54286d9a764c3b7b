"""Golden bytes of every command on small inputs.

The inputs are written as fixed decimal text from integer draws, so making
them needs no libm and no damagekit writer. Each output is pinned by its
sha256; a change to any byte these commands emit shows here. Where a command
calls libm, the inputs make the call exact: the synth spec's origin lies on
the equator and its points are not jittered, so cos(0) scales longitudes and
the Box-Muller terms are multiplied by 0; the match scene's latitudes sum to
exactly 0, so its reference latitude is 0.
"""

import hashlib

import pytest

from damagekit.cli import main

SCHEMES = ("major_plus", "destroyed_only", "minor_damage,major_damage,destroyed")
CATEGORIES = ("no_visible_damage", "affected", "minor_damage", "major_damage", "destroyed")
N_FEATURES = 300

INPUT_DIGESTS = {
    "assessed.geojson":
        "4b52e0f1bfc833e722dad8097ea646dc881d88d4615f4e2b3a1518492efd45e1",
    "matches.csv":
        "7a4990b1dea52a5bef226d8e723f61b39c5c466d517e7a1138e30659a1295598",
    "truth.csv":
        "1c9fc350c7f1eea706d1a077bca64039a200928b5b012c882e34c9885d199bd7",
}
OUTPUT_DIGESTS = {
    "major_plus.json":
        "86aec42f0c4987278defda59c8d81e6fab985878b3b3e419d9ece3838f0a4f59",
    "major_plus.csv":
        "09ee29e23a2f8224162567a01570333aa17b66b2ba37a8b83e1ee21fbd42b1ec",
    "major_plus.svg":
        "605824a9ccfcbb0eb8da166f4a19d31da6a2ddb940514c85a6aed27f7fdc270b",
    "destroyed_only.json":
        "de5ca74cd1998bb116ef3500311c1514de5540a9d50750cde43db7a615af1280",
    "destroyed_only.csv":
        "321f299d69474f3abf80b40c7d0fc0f7f5226a77567d8d18883846a0d3e4bef4",
    "destroyed_only.svg":
        "f8798e1c59c04d3941ffc6663aaf589715192a5196c589100644690e5c39a730",
    "minor_damage-major_damage-destroyed.json":
        "d51b9536849bddb379d0bc3e296ac97e6d9e90e0371827270edd3196f77bfaff",
    "minor_damage-major_damage-destroyed.csv":
        "e5089fd377957a6eef7f6f9307a9ba0e56a5d461a6e00d703b59c2477a9c2971",
    "minor_damage-major_damage-destroyed.svg":
        "7835b8c7223e86d491fa2f61a1c1eb7f7da9e931b25eb75c902195aa6e964c52",
}


def draws(state=2023):
    """64-bit LCG outputs (Knuth's MMIX constants), high bits first."""
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        yield state >> 16


def write_inputs(directory):
    """An assessed collection of N_FEATURES squares with counts that give
    ties, 0%, 100% and no-coverage estimates, and matches and truth rows,
    some points unmatched."""
    rng = draws()
    features, matches, truth = [], ["point_id,footprint_id,distance_m"], [
        "point_id,lon,lat,category"]
    for k in range(N_FEATURES):
        n_inside = (0, 4, 1, 400)[k % 4] if k % 5 == 0 else 1 + next(rng) % 400
        n_damaged = (n_inside // 2 if k % 3 else n_inside) if k % 5 == 0 else \
            next(rng) % (n_inside + 1)
        x0, x1, y0, y1 = f"-90.{k:04d}0", f"-90.{k:04d}5", "32.90000", "32.90005"
        ring = f"[[{x0},{y0}],[{x1},{y0}],[{x1},{y1}],[{x0},{y1}],[{x0},{y0}]]"
        hundredths = (20000 * n_damaged + n_inside) // (2 * n_inside) if n_inside else 0
        features.append(
            f'{{"type":"Feature","id":"b{k}","geometry":{{"type":"Polygon",'
            f'"coordinates":[{ring}]}},"properties":{{"damage_pct":'
            f'{hundredths // 100}.{hundredths % 100:02d},"n_inside":{n_inside},'
            f'"n_damaged":{n_damaged},"supersampled":false,'
            f'"no_coverage":{"true" if n_inside == 0 else "false"}}}}}')
        if k < 2:  # every scheme has a positive and a negative
            category = ("destroyed", "no_visible_damage")[k]
        else:
            category = CATEGORIES[max(0, min(4, 5 * n_damaged // (n_inside + 1)
                                             + next(rng) % 3 - 1))]
        truth.append(f"p{k},-90.{k:04d}2,32.90002,{category}")
        matches.append(f"p{k},," if k % 17 == 16 else f"p{k},b{k},0.{k % 10}")
    files = {
        "assessed.geojson": '{"type":"FeatureCollection","features":[' + ",".join(features)
                            + "]}\n",
        "matches.csv": "\n".join(matches) + "\n",
        "truth.csv": "\n".join(truth) + "\n",
    }
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return {name: directory / name for name in files}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_schemes(tmp_path):
    """The digest of every input and of each scheme's three outputs."""
    paths = write_inputs(tmp_path)
    digests = {name: sha256(path) for name, path in paths.items()}
    for scheme in SCHEMES:
        stem = tmp_path / scheme.replace(",", "-")
        report, curve, svg = (stem.with_suffix(s) for s in (".json", ".csv", ".svg"))
        assert main(["validate", str(paths["assessed.geojson"]), str(paths["matches.csv"]),
                     str(paths["truth.csv"]), "--scheme", scheme, "--report", str(report),
                     "--curve", str(curve)]) == 0
        assert main(["pr-plot", str(curve), "--out", str(svg)]) == 0
        digests.update((path.name, sha256(path)) for path in (report, curve, svg))
    return digests


def test_golden_inputs_are_fixed(tmp_path):
    digests = run_schemes(tmp_path)
    assert {name: digests[name] for name in INPUT_DIGESTS} == INPUT_DIGESTS


def test_validate_and_pr_plot_keep_every_byte(tmp_path):
    digests = run_schemes(tmp_path)
    assert {name: digests[name] for name in OUTPUT_DIGESTS} == OUTPUT_DIGESTS
    assert len(OUTPUT_DIGESTS) == 3 * len(SCHEMES)


# ------------------------------------------------- synth, assess and match

SYNTH_SPEC = ('{"seed": 11, "grid_cols": 4, "grid_rows": 3, "origin": [12.5, 0.0], '
              '"cellsize_m": 4.0, "pixel_noise_rate": 0.1, "point_drop_rate": 0.25}')
SYNTH_DIGESTS = {
    "footprints.geojson":
        "9c930effe0889239d6d787202e3b5e88b2e030b2e4695767957987dd5786a17a",
    "raster.asc":
        "36beea9958e69979310c9e55be1dc0530462ea5e0b5996b787e48980ad707bc2",
    "truth.csv":
        "17b9d09cd1aa0d64dc19d0621f0686ad35f6db17e8c882e8365176c2e301f2ec",
    "oracle.csv":
        "ba09fa54b6fa491b1f78de7754b1172c7b3c7b5664a77fdbb651aba3630ab5a1",
}
ASSESS_DIGESTS = {
    "footprints.geojson":
        "5490076334b4e58d759731adbd1a7b16899d29a84a422db678d2ef9bd56ec6ec",
    "raster.asc":
        "8fde79ac8ac53f09ee130adaf8c338cc3986980d198b7721b4e1aac1c4b0e269",
    "assessed.geojson":
        "9c1d99d69b6030f3b4ba417a5584a471209cffee921738e6060ece56dd282b97",
}
MATCH_DIGESTS = {
    "footprints.geojson":
        "f619ac285eb0e682711eaf4c26d79a59202bdcf7e06092180d399b5437a049a8",
    "truth.csv":
        "783bdedeafa2d0fefcb3565640f435edbd5c58c5151a8d75aced7e6834205ed7",
    "matched.csv":
        "6f2d55013217c5f6d86cb940b7826788055a9b666f180616aef85a97209666b4",
}


def feature(fid, rings, properties="{}"):
    """A GeoJSON Feature of rings given as lists of (lon, lat) decimal texts."""
    coordinates = ",".join("[" + ",".join(f"[{x},{y}]" for x, y in ring) + "]"
                           for ring in rings)
    return (f'{{"type":"Feature","id":"{fid}","geometry":{{"type":"Polygon",'
            f'"coordinates":[{coordinates}]}},"properties":{properties}}}')


def box(x0, y0, x1, y1):
    """A closed counter-clockwise rectangle ring of decimal texts."""
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]


def collection(features):
    return '{"type":"FeatureCollection","features":[' + ",".join(features) + "]}\n"


def write_files(directory, files):
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return {name: directory / name for name in files}


def test_synth_keeps_every_byte(tmp_path):
    spec = write_files(tmp_path, {"scene.json": SYNTH_SPEC})["scene.json"]
    assert main(["synth", str(spec), str(tmp_path / "scene")]) == 0
    assert {name: sha256(tmp_path / "scene" / name) for name in SYNTH_DIGESTS} == SYNTH_DIGESTS


def test_assess_keeps_every_byte(tmp_path):
    """Footprints with holes, edges through pixel centres, a footprint too
    small to hold a pixel centre (the 4x4 frame), one over nodata cells, one
    off the raster, and input properties, one of them a key assess writes."""
    classes = (-1, 0, 1, 2, 2, 1, 0)
    rows = [" ".join("-1" if r < 2 and c >= 10 else str(classes[(3 * r + 5 * c + r * c) % 7])
                     for c in range(12)) for r in range(10)]
    raster = ("ncols 12\nnrows 10\nxllcorner 0.0\nyllcorner 0.0\ncellsize 0.25\n"
              "NODATA_value -1\n" + "\n".join(rows) + "\n")
    footprints = collection([
        feature("f1", [box("0.1", "0.1", "1.1", "1.1"), box("0.4", "0.4", "0.7", "0.7")],
                '{"name":"house"}'),
        feature("f2", [[("1.3", "0.2"), ("2.2", "0.2"), ("1.3", "1.6"), ("1.3", "0.2")]],
                '{"damage_pct":99,"zone":"A"}'),
        feature("f3", [box("1.40", "1.90", "1.45", "1.95")]),
        feature("f4", [box("2.55", "2.05", "2.95", "2.45")]),
        feature("f5", [box("5.0", "5.0", "5.5", "5.5")], "null"),
        feature("f6", [box("2.125", "0.375", "2.625", "0.875"),
                       box("2.25", "0.5", "2.5", "0.75")]),
    ])
    paths = write_files(tmp_path, {"footprints.geojson": footprints, "raster.asc": raster})
    out = tmp_path / "assessed.geojson"
    assert main(["assess", str(paths["footprints.geojson"]), str(paths["raster.asc"]),
                 "--out", str(out)]) == 0
    digests = {name: sha256(path) for name, path in {**paths, out.name: out}.items()}
    assert digests == ASSESS_DIGESTS


def test_match_keeps_every_byte(tmp_path):
    """Footprints and points in mirrored pairs about the equator: an exact
    distance tie at (0, 0) between b2 and its mirror b1, points inside a
    footprint, in a hole and beside one, and two unmatched points."""
    def mirror(ring):
        return [(x, y[1:] if y.startswith("-") else "-" + y) for x, y in ring]

    left = box("-0.0003", "-0.00005", "-0.0001", "0.00005")
    a7 = [box("0.0008", "0.0002", "0.0012", "0.0004"),
          box("0.0009", "0.00025", "0.0011", "0.00035")]
    c3 = box("-0.0010", "0.0003", "-0.0008", "0.0005")
    footprints = collection([
        feature("c3", [c3]), feature("b2", [left]),
        feature("b1", [[(x[1:], y) for x, y in left]]),
        feature("a7", a7), feature("a8", list(map(mirror, a7))), feature("c4", [mirror(c3)]),
    ])
    points = [("p01", "0.0", "0.0"), ("p02", "0.0010", "0.0003"), ("p08", "0.02", "0.001"),
              ("p03", "0.0010", "-0.0003"), ("p04", "0.00085", "0.00022"),
              ("p05", "0.00085", "-0.00022"), ("p06", "-0.0009", "0.0006"),
              ("p09", "0.02", "-0.001"), ("p07", "-0.0009", "-0.0006"),
              ("p10", "-0.0009", "0.0004"), ("p11", "-0.0009", "-0.0004")]
    truth = "point_id,lon,lat,category\n" + "".join(
        f"{pid},{x},{y},affected\n" for pid, x, y in points)
    paths = write_files(tmp_path, {"footprints.geojson": footprints, "truth.csv": truth})
    out = tmp_path / "matched.csv"
    assert main(["match", str(paths["truth.csv"]), str(paths["footprints.geojson"]),
                 "--out", str(out)]) == 0
    assert out.read_text().startswith("point_id,footprint_id,distance_m\np01,b1,")
    digests = {name: sha256(path) for name, path in {**paths, out.name: out}.items()}
    assert digests == MATCH_DIGESTS
