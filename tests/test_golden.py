"""Golden bytes of validate and pr-plot on small rescore-style inputs.

The inputs are written as fixed decimal text from integer draws, so making
them needs no libm and no damagekit writer. Each scheme's report JSON, curve
CSV and SVG is pinned by its sha256; a change to any byte these commands
emit shows here.
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
