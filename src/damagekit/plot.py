"""Minimal SVG rendering of a precision-recall curve.

Output is a pure function of the curve's columns: same input, same bytes.
"""

from __future__ import annotations

from .metrics import PRCurve

_WIDTH = 800
_HEIGHT = 600
_LEFT = 70.0
_RIGHT = 775.0
_TOP = 25.0
_BOTTOM = 535.0
_TICKS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _x(value: float) -> float:
    return _LEFT + value * (_RIGHT - _LEFT)


def _y(value: float) -> float:
    return _BOTTOM - value * (_BOTTOM - _TOP)


def render_pr_curve_svg(curve: PRCurve) -> str:
    """Render a curve as an 800x600 SVG with unit axes.

    The polyline runs through (recall, precision) in the curve's order, which
    for a standard curve is decreasing threshold.
    """
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_LEFT:.2f}" y="{_TOP:.2f}" width="{_RIGHT - _LEFT:.2f}" '
        f'height="{_BOTTOM - _TOP:.2f}" fill="none" stroke="#444" '
        f'stroke-width="1"/>',
    ]
    for tick in _TICKS:
        x, y = _x(tick), _y(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{_BOTTOM:.2f}" x2="{x:.2f}" '
                     f'y2="{_BOTTOM + 6:.2f}" stroke="#444" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{_BOTTOM + 22:.2f}" '
                     f'font-family="sans-serif" font-size="13" '
                     f'text-anchor="middle">{tick:.2f}</text>')
        parts.append(f'<line x1="{_LEFT - 6:.2f}" y1="{y:.2f}" '
                     f'x2="{_LEFT:.2f}" y2="{y:.2f}" stroke="#444" '
                     f'stroke-width="1"/>')
        parts.append(f'<text x="{_LEFT - 10:.2f}" y="{y + 4:.2f}" '
                     f'font-family="sans-serif" font-size="13" '
                     f'text-anchor="end">{tick:.2f}</text>')
    coords = " ".join(map("%.2f,%.2f".__mod__, zip(_x(curve.recall).tolist(),
                                                   _y(curve.precision).tolist())))
    parts.append(f'<polyline points="{coords}" fill="none" stroke="#1f6fb2" '
                 f'stroke-width="2"/>')
    mid_x = (_LEFT + _RIGHT) / 2.0
    mid_y = (_TOP + _BOTTOM) / 2.0
    parts.append(f'<text x="{mid_x:.2f}" y="{_HEIGHT - 14}" '
                 f'font-family="sans-serif" font-size="16" '
                 f'text-anchor="middle">Recall</text>')
    parts.append(f'<text x="20" y="{mid_y:.2f}" font-family="sans-serif" '
                 f'font-size="16" text-anchor="middle" '
                 f'transform="rotate(-90 20 {mid_y:.2f})">Precision</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
