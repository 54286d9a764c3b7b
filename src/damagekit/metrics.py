"""Precision/recall validation metrics over matched damage samples.

A sample is predicted damaged at threshold theta when its estimated damage
percentage strictly exceeds theta; estimates of exactly zero are therefore
never predicted damaged, even at theta = 0. Thresholds live on the same
0..100 percent scale as the estimates. Precision over an empty predicted
set is defined as 1.0 so precision-recall curves start at recall 0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import EmptySampleSet, NoPositiveSamples
from .truth import MatchedSample


@dataclass(frozen=True)
class PRPoint:
    theta: float
    precision: float
    recall: float


@dataclass(frozen=True)
class PRCurve:
    points: tuple[PRPoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))


@dataclass(frozen=True)
class ValidationReport:
    n_samples: int
    n_positive: int
    scheme: str
    precision0: float
    recall0: float
    average_precision: float
    curve: PRCurve


def pr_curve(samples: list[MatchedSample]) -> PRCurve:
    """Precision-recall curve over decreasing thresholds.

    The threshold set is {100} plus every distinct estimate plus {0},
    swept in strictly decreasing order, so the curve runs from recall 0
    at theta=100 down to the theta=0 operating point. One pass tallies the
    positives and negatives at each distinct estimate; the sweep then keeps
    running counts of the samples strictly above the current threshold, so
    the cost is one sort of the thresholds. An estimate that is NaN or
    outside [0, 100] raises ValueError naming its point.
    """
    if not samples:
        raise EmptySampleSet("a PR curve needs at least one sample")
    for s in samples:
        if not 0.0 <= s.damage_pct <= 100.0:
            raise ValueError(f"sample {s.point_id}: damage_pct must be in "
                             f"[0, 100], got {s.damage_pct!r}")
    positives = Counter(s.damage_pct for s in samples if s.label == 1)
    negatives = Counter(s.damage_pct for s in samples if s.label != 1)
    n_positive = positives.total()
    if n_positive == 0:
        raise NoPositiveSamples("a PR curve needs at least one positive sample")
    thetas = {100.0, 0.0}
    thetas.update(s.damage_pct for s in samples)
    points = []
    tp = fp = 0
    for theta in sorted(thetas, reverse=True):
        precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
        points.append(PRPoint(theta=theta, precision=precision,
                              recall=tp / n_positive))
        tp += positives[theta]
        fp += negatives[theta]
    return PRCurve(tuple(points))


def average_precision(curve: PRCurve) -> float:
    """Step-sum AP: sum of (recall step) * precision along the curve."""
    ap = 0.0
    previous_recall = 0.0
    for point in curve.points:
        ap += (point.recall - previous_recall) * point.precision
        previous_recall = point.recall
    return ap


def validate(samples: list[MatchedSample], scheme_id: str) -> ValidationReport:
    """Full validation: PR curve, theta=0 operating point, and AP."""
    curve = pr_curve(samples)
    operating = curve.points[-1]
    return ValidationReport(
        n_samples=len(samples),
        n_positive=sum(s.label for s in samples),
        scheme=scheme_id,
        precision0=operating.precision,
        recall0=operating.recall,
        average_precision=average_precision(curve),
        curve=curve,
    )
