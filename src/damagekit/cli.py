"""Command-line pipeline: synth, assess, match, validate, pr-plot.

INVOCATION EXAMPLES

    damagekit synth scene.json out/
    damagekit assess out/footprints.geojson out/raster.asc --out assessed.geojson
    damagekit match out/truth.csv out/footprints.geojson --out matched.csv
    damagekit validate assessed.geojson matched.csv out/truth.csv \
        --scheme major_plus --report report.json --curve curve.csv
    damagekit pr-plot curve.csv --out curve.svg

Data goes to stdout when no output path is given; diagnostics go to stderr.

Exit codes are the errors' exit_code: 0 ok, 2 bad input (a file, --radius-m,
a --scheme of every category, a scene spec whose buildings collapse or whose
raster is too large), unknown matched point or unwritable output, 3 duplicate
id, 4 unknown damage category, 5 missing estimate, 6 no positive samples,
7 swath misses every building.
Any other exception is a bug, and ends in a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import os
import sys

from . import formats, metrics, plot
from .errors import DamageKitError, ParseError, UnwritableOutput
from .raster import ascii_grid_blocks
from .synth import SceneSpec, generate
from .truth import join_samples, match_points, parse_scheme
from .zonal import assess_all


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        formats.write_text(out_path, text)


def _load_scene_spec(path) -> SceneSpec:
    doc = formats.parse_json(formats.read_text(path), path)
    if not isinstance(doc, dict):
        raise ParseError("scene spec must be a JSON object", source=path)
    unknown = set(doc) - {f.name for f in dataclasses.fields(SceneSpec)}
    if unknown:
        raise ParseError(f"unknown scene spec keys: {sorted(unknown)}",
                         source=path)
    try:
        return SceneSpec(**doc)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad scene spec: {exc}", source=path) from exc


def cmd_synth(args) -> int:
    spec = _load_scene_spec(args.spec)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except FileExistsError as exc:
        raise UnwritableOutput(args.out_dir, "exists and is not a directory") from exc
    except OSError as exc:
        raise UnwritableOutput(args.out_dir, exc.strerror or exc) from exc
    scene = generate(spec)
    join = os.path.join
    formats.write_text(join(args.out_dir, "footprints.geojson"),
                       formats.write_footprints_geojson(scene.footprints))
    formats.write_text(join(args.out_dir, "raster.asc"),
                       ascii_grid_blocks(scene.raster))
    formats.write_text(join(args.out_dir, "truth.csv"),
                       formats.write_truth_csv(scene.truth))
    formats.write_text(join(args.out_dir, "oracle.csv"),
                       formats.write_oracle_csv(scene.oracle_categories))
    print(f"scene written to {args.out_dir}: {len(scene.footprints)} footprints, "
          f"{scene.raster.ncols}x{scene.raster.nrows} raster, "
          f"{len(scene.truth)} truth points", file=sys.stderr)
    return 0


def cmd_assess(args) -> int:
    footprints, properties = formats.parse_footprints_with_properties(
        formats.read_text(args.footprints), source=args.footprints)
    raster = formats.load_raster(args.raster)
    estimates = assess_all(raster, footprints)
    _emit(formats.write_assessed_geojson(footprints, estimates, properties),
          args.out)
    return 0


def cmd_match(args) -> int:
    if not args.radius_m > 0:
        raise ParseError(f"must be positive, got {args.radius_m!r}", source="--radius-m")
    points = formats.load_truth(args.points)
    footprints = formats.load_footprints(args.footprints)
    matched, unmatched = match_points(points, footprints,
                                      radius_m=args.radius_m)
    _emit(formats.write_matches_csv(points.id.tolist(), matched, unmatched), args.out)
    print(f"matched {len(matched)} of {len(points)} points "
          f"({len(unmatched)} unmatched)", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    scheme = parse_scheme(args.scheme, source="--scheme")
    _, estimates = formats.parse_assessed_geojson(formats.read_text(args.assessed), args.assessed)
    matched = formats.parse_matches_csv(formats.read_text(args.matched), args.matched)[0]
    points = formats.parse_truth_csv(formats.read_text(args.points), args.points)
    samples = join_samples(matched, estimates, points, scheme)
    report = metrics.validate(samples, scheme.id)
    _emit(formats.write_report_json(report), args.report)
    if args.curve is not None:
        formats.write_text(args.curve, formats.write_curve_csv(report.curve))
    return 0


def cmd_pr_plot(args) -> int:
    curve = formats.parse_curve_csv(formats.read_text(args.curve), source=args.curve)
    _emit(plot.render_pr_curve_svg(curve), args.out)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; main looks up each command's cmd_ function."""
    parser = argparse.ArgumentParser(
        prog="damagekit",
        description="Building damage assessment pipeline tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("spec", help="scene spec JSON file")
    p.add_argument("out_dir", help="output directory")

    p = sub.add_parser("assess", help="estimate per-building damage")
    p.add_argument("footprints", help="footprints GeoJSON")
    p.add_argument("raster", help="classification raster (.asc)")
    p.add_argument("--out", default=None, help="output GeoJSON (default stdout)")

    p = sub.add_parser("match", help="match truth points to footprints")
    p.add_argument("points", help="ground truth CSV")
    p.add_argument("footprints", help="footprints GeoJSON")
    p.add_argument("--radius-m", type=float, default=20.0,
                   help="match radius in metres (default 20)")
    p.add_argument("--out", default=None, help="output CSV (default stdout)")

    p = sub.add_parser("validate", help="compute validation metrics")
    p.add_argument("assessed", help="assessed footprints GeoJSON")
    p.add_argument("matched", help="matches CSV")
    p.add_argument("points", help="ground truth CSV")
    p.add_argument("--scheme", default="major_plus",
                   help="major_plus, destroyed_only, or comma-separated "
                        "category labels (default major_plus)")
    p.add_argument("--report", default=None,
                   help="report JSON path (default stdout)")
    p.add_argument("--curve", default=None,
                   help="also write the PR curve CSV here")

    p = sub.add_parser("pr-plot", help="render a PR curve as SVG")
    p.add_argument("curve", help="curve CSV from validate")
    p.add_argument("--out", default=None, help="output SVG (default stdout)")

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()  # a command's data hold no reference cycles for it to find
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except DamageKitError as exc:
        print(f"damagekit: error: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
