"""Precision/recall validation metrics over matched damage samples.

A sample is predicted damaged at threshold theta when its estimated damage
percentage strictly exceeds theta; estimates of exactly zero are therefore
never predicted damaged, even at theta = 0. Thresholds live on the same
0..100 percent scale as the estimates. Precision over an empty predicted
set is defined as 1.0 so precision-recall curves start at recall 0.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .columns import Columns
from .errors import EmptySampleSet, NoPositiveSamples
from .truth import MatchedSample, MatchedSamples


@dataclass(frozen=True)
class PRPoint:
    theta: float
    precision: float
    recall: float


class PRCurve(Columns):
    """A PR curve as three float64 columns in sweep order: thresholds, and
    the precision and recall at each. Its rows (also as points) are PRPoints."""

    row = PRPoint
    columns = {"theta": np.float64, "precision": np.float64, "recall": np.float64}

    @property
    def points(self) -> Sequence[PRPoint]:
        return self


@dataclass(frozen=True)
class ValidationReport:
    n_samples: int
    n_positive: int
    scheme: str
    precision0: float
    recall0: float
    average_precision: float
    curve: PRCurve


def pr_curve(samples: Sequence[MatchedSample]) -> PRCurve:
    """Precision-recall curve over decreasing thresholds.

    The threshold set is {100} plus every distinct estimate plus {0},
    swept in strictly decreasing order, so the curve runs from recall 0
    at theta=100 down to the theta=0 operating point. Thresholds are one
    unique of the estimates + 0.0 (-0.0 is 0.0); bincounts and exclusive
    cumulative sums count the positives and samples above each, and int64
    counts below 2**53 divide exactly as float64. An estimate that is NaN
    or outside [0, 100], or a label not 0 or 1, raises ValueError naming its point.
    """
    samples = MatchedSamples.of(samples)
    if not samples:
        raise EmptySampleSet("a PR curve needs at least one sample")
    pct, positive = samples.damage_pct, samples.label == 1
    for name, valid, rule in [("damage_pct", (0.0 <= pct) & (pct <= 100.0), "be in [0, 100]"),
                              ("label", positive | (samples.label == 0), "be 0 or 1")]:
        if not valid.all():
            s = samples[valid.argmin()]
            raise ValueError(f"sample {s.point_id}: {name} must {rule}, "
                             f"got {getattr(s, name)!r}")
    if not positive.any():
        raise NoPositiveSamples("a PR curve needs at least one positive sample")
    thetas, which = np.unique(np.append(pct + 0.0, [0.0, 100.0]), return_inverse=True)
    total, tp = (np.bincount(at, minlength=len(thetas))[::-1]
                 for at in (which[:-2], which[:-2][positive]))
    tp, predicted = np.cumsum(tp) - tp, np.cumsum(total) - total
    precision = np.divide(tp, predicted, out=np.ones(len(thetas)), where=predicted > 0)
    return PRCurve(thetas[::-1], precision, tp / np.count_nonzero(positive))


def average_precision(curve: PRCurve) -> float:
    """Step-sum AP: sum of (recall step) * precision along the curve, added
    left to right from 0.0 by a cumulative sum (np.sum adds in pairs, which
    can change the last bits)."""
    steps = np.diff(curve.recall, prepend=0.0) * curve.precision
    return float(np.cumsum(np.append(0.0, steps))[-1])


def validate(samples: Sequence[MatchedSample], scheme_id: str) -> ValidationReport:
    """Full validation: PR curve, theta=0 operating point, and AP."""
    samples = MatchedSamples.of(samples)
    curve = pr_curve(samples)
    return ValidationReport(len(samples), int(samples.label.sum()), scheme_id,
                            float(curve.precision[-1]), float(curve.recall[-1]),
                            average_precision(curve), curve)
