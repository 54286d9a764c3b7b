"""Tests for the SVG precision-recall plot."""

import random

from damagekit.metrics import PRCurve
from damagekit.plot import render_pr_curve_svg

from _oracles import polyline_by_point

CORNERS = PRCurve([100.0, 0.0], [1.0, 0.0], [0.0, 1.0])


def test_svg_has_fixed_canvas_and_axes():
    svg = render_pr_curve_svg(CORNERS)
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" ')
    assert 'viewBox="0 0 800 600"' in svg
    assert svg.rstrip().endswith("</svg>")
    assert ">Recall</text>" in svg
    assert ">Precision</text>" in svg
    # Tick labels on both axes.
    assert svg.count(">0.25</text>") == 2
    assert svg.count(">1.00</text>") == 2


def test_corner_points_map_to_plot_box_corners():
    svg = render_pr_curve_svg(CORNERS)
    # recall 0 -> left edge x=70, precision 1 -> top edge y=25;
    # recall 1 -> right edge x=775, precision 0 -> bottom edge y=535.
    assert '<polyline points="70.00,25.00 775.00,535.00"' in svg


def test_midpoint_interpolates_linearly():
    svg = render_pr_curve_svg(PRCurve([50.0], [0.5], [0.5]))
    assert '<polyline points="422.50,280.00"' in svg


def test_polyline_preserves_point_order():
    curve = PRCurve([100.0, 50.0, 0.0], [1.0, 0.75, 0.6], [0.0, 0.5, 1.0])
    svg = render_pr_curve_svg(curve)
    assert ('<polyline points="70.00,25.00 422.50,152.50 775.00,229.00" '
            'fill="none" stroke="#1f6fb2" stroke-width="2"/>') in svg


def test_rendering_is_deterministic():
    curve = PRCurve([80.0, 0.0], [1.0, 0.5], [1.0 / 3.0, 1.0])
    assert render_pr_curve_svg(curve) == render_pr_curve_svg(PRCurve(*map(list, (
        curve.theta, curve.precision, curve.recall))))
    assert render_pr_curve_svg(curve).endswith("</svg>\n")


def test_column_polyline_matches_the_per_point_reference():
    """Whole columns through _x and _y, then %.2f, give the bytes of one
    f-string per point, on values that round at the half-cent."""
    rng = random.Random(4242)
    values = [0.0, 1.0, -0.0, 5e-324, 0.5, 1 / 3, 2 / 3, 0.1, 0.7, 0.00070921985815602]
    values += [(k + 0.005) / 705 for k in range(705)] + [rng.random() for _ in range(2000)]
    precision = values[::-1]
    curve = PRCurve([50.0] * len(values), precision, values)
    coords = polyline_by_point(curve.points)
    assert f'<polyline points="{coords}" ' in render_pr_curve_svg(curve)
