"""Confusion counts, PR curves, and average precision: hand-derived fixture
values, a from-scratch AP oracle, threshold-set behaviour, the
strict-greater-than prediction convention, a bit-for-bit differential check
of the column sweep against the one-confusion-per-threshold and row-sweep
references, the curve's columns, and a scaling guard."""

import math
import random
import subprocess
import sys
from time import perf_counter

import numpy as np
import pytest

from damagekit.errors import EmptySampleSet, NoPositiveSamples
from damagekit.metrics import PRCurve, PRPoint, average_precision, pr_curve, validate
from damagekit.truth import MatchedSample

from _oracles import (ConfusionAtTheta, brute_average_precision, confusion,
                      precision_recall, step_sum, sweep_pr_curve)
from _oracles import pr_curve as reference_pr_curve

DIFFERENTIAL_SETS = 1200
DIFFERENTIAL_MAX_SAMPLES = 300
SCALING_SAMPLES = 50_000
SCALING_BUDGET_S = 2.0


def make_samples(damage_pcts, labels):
    return [MatchedSample(f"p{k}", f"b{k}", 0.0, int(label), float(pct))
            for k, (pct, label) in enumerate(zip(damage_pcts, labels))]


WELL_RANKED = make_samples([80.0, 60.0, 40.0, 20.0], [1, 0, 1, 0])
PERFECT = make_samples([100.0, 50.0, 0.0], [1, 1, 0])


# -------------------------------------------------------------- confusion

def test_confusion_counts_at_midpoint_threshold():
    c = confusion(WELL_RANKED, 50.0)
    assert (c.tp, c.fp, c.fn) == (1, 1, 1)
    assert c.theta == 50.0


def test_confusion_counts_at_zero_threshold():
    c = confusion(PERFECT, 0.0)
    # The zero estimate is not predicted damaged even at theta=0.
    assert (c.tp, c.fp, c.fn) == (2, 0, 0)


def test_prediction_uses_strict_greater_than():
    samples = make_samples([30.0, 0.0], [0, 1])
    c = confusion(samples, 30.0)
    assert (c.tp, c.fp, c.fn) == (0, 0, 1)
    c = confusion(samples, 0.0)
    assert (c.tp, c.fp, c.fn) == (0, 1, 1)


def test_confusion_rejects_empty_sample_set():
    with pytest.raises(EmptySampleSet):
        confusion([], 0.0)


def test_precision_recall_values():
    assert precision_recall(ConfusionAtTheta(0.0, 2, 0, 0)) == (1.0, 1.0)
    assert precision_recall(ConfusionAtTheta(0.0, 1, 1, 1)) == (0.5, 0.5)
    # Empty prediction set scores precision 1 by convention.
    assert precision_recall(ConfusionAtTheta(100.0, 0, 0, 3)) == (1.0, 0.0)
    with pytest.raises(NoPositiveSamples):
        precision_recall(ConfusionAtTheta(0.0, 0, 4, 0))


# --------------------------------------------------------------- pr curve

def test_curve_thresholds_are_estimates_plus_endpoints():
    curve = pr_curve(WELL_RANKED)
    assert [p.theta for p in curve.points] == [100.0, 80.0, 60.0, 40.0,
                                               20.0, 0.0]


def test_curve_starts_at_recall_zero_and_grows():
    curve = pr_curve(WELL_RANKED)
    assert curve.points[0].recall == 0.0
    assert curve.points[0].precision == 1.0
    recalls = [p.recall for p in curve.points]
    assert recalls == sorted(recalls)
    assert curve.points[-1].theta == 0.0
    assert curve.points[-1].recall == 1.0


def test_curve_requires_samples_and_positives():
    with pytest.raises(EmptySampleSet):
        pr_curve([])
    with pytest.raises(NoPositiveSamples):
        pr_curve(make_samples([10.0, 20.0], [0, 0]))


def test_duplicate_estimates_collapse_to_one_threshold():
    samples = make_samples([70.0, 70.0, 70.0, 10.0], [1, 1, 0, 0])
    curve = pr_curve(samples)
    assert [p.theta for p in curve.points] == [100.0, 70.0, 10.0, 0.0]


def curve_bits(points):
    """Every theta's float bits, and every precision and recall bit."""
    return [(float(p.theta).hex(), p.precision.hex(), p.recall.hex()) for p in points]


def random_sample_set(rng):
    """1..300 samples mixing ties, the 0/-0/100 sentinels, ints and floats
    of equal value, and 0/1/True/False labels."""
    n = rng.randint(1, DIFFERENTIAL_MAX_SAMPLES)
    pool = [rng.choice([0, 0.0, -0.0, 100, 100.0, 50, 50.0,
                        rng.randint(0, 100), rng.randint(0, 100) + 0.0,
                        rng.uniform(0.0, 100.0)])
            for _ in range(rng.randint(1, 40))]
    continuous = rng.random() < 0.3
    samples = []
    for k in range(n):
        pct = rng.uniform(0.0, 100.0) if continuous else rng.choice(pool)
        label = rng.choice([0, 1, True, False])
        samples.append(MatchedSample(f"p{k}", f"b{k}", 0.0, label, pct))
    return samples


def test_curve_matches_reference_bit_for_bit():
    rng = random.Random(60221)
    compared = 0
    for _ in range(DIFFERENTIAL_SETS):
        samples = random_sample_set(rng)
        if not any(s.label == 1 for s in samples):
            with pytest.raises(NoPositiveSamples):
                pr_curve(samples)
            continue
        curve = pr_curve(samples)
        bits = curve_bits(curve.points)
        assert bits == curve_bits(reference_pr_curve(samples))
        assert bits == curve_bits(sweep_pr_curve(samples))
        assert average_precision(curve).hex() == step_sum(sweep_pr_curve(samples)).hex()
        compared += 1
    assert compared >= 1000


@pytest.mark.parametrize("pcts, labels, thetas", [
    ([-0.0, 40.0], [1, 0], [100.0, 40.0, 0.0]),
    ([100.0, 0.0, 100], [1, 1, 0], [100.0, 0.0]),
    ([30.0, 30.0, 30.0], [1, 0, 1], [100.0, 30.0, 0.0]),
    ([0.0, -0.0, 0], [0, 1, 1], [100.0, 0.0]),
], ids=["negative-zero", "single-threshold", "all-tied", "all-zero"])
def test_curve_edge_cases_match_the_references(pcts, labels, thetas):
    samples = [MatchedSample(f"p{k}", f"b{k}", 0.0, label, pct)
               for k, (pct, label) in enumerate(zip(pcts, labels))]
    curve = pr_curve(samples)
    assert [theta.hex() for theta in curve.theta.tolist()] == [t.hex() for t in thetas]
    assert curve_bits(curve.points) == curve_bits(reference_pr_curve(samples))
    assert curve_bits(curve.points) == curve_bits(sweep_pr_curve(samples))
    assert average_precision(curve).hex() == step_sum(sweep_pr_curve(samples)).hex()


def test_an_int_estimate_is_a_float_theta():
    """The row sweep keeps an int estimate's type; the columns are float64."""
    samples = [MatchedSample("p0", "b0", 0.0, 1, 0.0), MatchedSample("p9", "b9", 0.0, 1, 95)]
    assert [p.theta for p in sweep_pr_curve(samples)] == [100.0, 95, 0.0]
    assert repr(sweep_pr_curve(samples)[1].theta) == "95"
    assert pr_curve(samples).points[1] == PRPoint(95.0, 1.0, 0.0)
    assert type(pr_curve(samples).points[1].theta) is float


def test_curve_columns_are_read_only_float64_and_compare_by_value():
    curve = pr_curve(WELL_RANKED)
    for column in (curve.theta, curve.precision, curve.recall):
        assert column.dtype == np.float64 and not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0.5
    same = PRCurve(list(curve.theta), list(curve.precision), list(curve.recall))
    assert same == curve and curve == same
    assert curve != PRCurve(curve.theta, curve.precision, curve.recall[::-1])
    assert curve == list(curve.points) and tuple(curve.points) == curve


def test_points_read_rows_and_len_builds_none(monkeypatch):
    report = validate(WELL_RANKED, "major_plus")
    points = report.curve.points
    assert list(points) == [points[k] for k in range(len(points))]
    assert points[-1] == PRPoint(0.0, 0.5, 1.0)
    assert points[1:3] == [PRPoint(80.0, 1.0, 0.0), PRPoint(60.0, 1.0, 0.5)]
    with pytest.raises(IndexError):
        points[len(points)]

    def refuse(*args):
        raise AssertionError("a PRPoint was built")

    monkeypatch.setattr(PRPoint, "__init__", refuse)
    assert len(validate(WELL_RANKED, "major_plus").curve.points) == 6


def test_validate_scales_to_many_distinct_estimates():
    rng = random.Random(16180)
    samples = [MatchedSample(f"p{k}", f"b{k}", 0.0, int(rng.random() < 0.3),
                             rng.uniform(0.0, 100.0))
               for k in range(SCALING_SAMPLES)]
    start = perf_counter()
    report = validate(samples, "major_plus")
    elapsed = perf_counter() - start
    assert len(report.curve.points) == len(
        {s.damage_pct for s in samples} | {0.0, 100.0})
    assert elapsed < SCALING_BUDGET_S


@pytest.mark.parametrize("pct", [-5.0, math.nan, 120.0],
                         ids=["negative", "nan", "above-100"])
def test_curve_rejects_estimate_outside_percent_range(pct):
    samples = make_samples([40.0, 60.0], [1, 0]) + [
        MatchedSample("odd7", "b9", 0.0, 1, pct)]
    with pytest.raises(ValueError, match=r"sample odd7: damage_pct"):
        pr_curve(samples)
    with pytest.raises(ValueError, match=r"sample odd7: damage_pct"):
        validate(samples, "major_plus")


def test_out_of_range_estimate_is_rejected_under_optimize(cli_env):
    """The range check is not an assert, so python -O keeps it."""
    code = ("from damagekit.metrics import validate\n"
            "from damagekit.truth import MatchedSample\n"
            "validate([MatchedSample('p0', 'b0', 0.0, 1, 50.0),\n"
            "          MatchedSample('odd7', 'b1', 0.0, 0, -5.0)], 'x')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=cli_env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "ValueError: sample odd7: damage_pct" in proc.stderr


# ------------------------------------------------------ average precision

def test_average_precision_well_ranked_fixture():
    ap = average_precision(pr_curve(WELL_RANKED))
    assert abs(ap - 0.833333333333) <= 1e-12


def test_average_precision_perfect_ranking():
    assert average_precision(pr_curve(PERFECT)) == 1.0


def test_average_precision_anti_ranked_fixture():
    anti = make_samples([20.0, 40.0, 60.0, 80.0], [1, 0, 1, 0])
    ap = average_precision(pr_curve(anti))
    assert abs(ap - 0.5) <= 1e-12
    assert ap < average_precision(pr_curve(WELL_RANKED))
    assert ap == pytest.approx(
        brute_average_precision([20.0, 40.0, 60.0, 80.0], [1, 0, 1, 0]),
        abs=1e-15)


def test_average_precision_matches_oracle_on_random_sets():
    rng = random.Random(271828)
    for _ in range(60):
        n = rng.randint(2, 50)
        labels = [rng.random() < 0.4 for _ in range(n)]
        if not any(labels):
            labels[rng.randrange(n)] = True
        pcts = [rng.choice([0.0, 100.0, rng.uniform(0.0, 100.0)])
                for _ in range(n)]
        samples = make_samples(pcts, labels)
        ap = average_precision(pr_curve(samples))
        assert abs(ap - brute_average_precision(pcts, labels)) <= 1e-12
        assert 0.0 <= ap <= 1.0


def test_extra_thresholds_leave_average_precision_unchanged():
    """Sweeping a fine threshold grid must give the same step sum, because
    recall only moves where an estimate value is crossed."""
    rng = random.Random(31415)
    for _ in range(20):
        n = rng.randint(3, 30)
        labels = [rng.random() < 0.5 for _ in range(n)]
        if not any(labels):
            labels[0] = True
        pcts = [rng.randrange(1, 200) * 0.5 for _ in range(n)]  # halves
        samples = make_samples(pcts, labels)
        ap = average_precision(pr_curve(samples))

        fine = [k * 0.25 for k in range(401)]  # exact quarters, 0..100
        prev_recall = 0.0
        fine_ap = 0.0
        for theta in sorted(set(fine) | set(pcts), reverse=True):
            tp = sum(1 for s in samples if s.damage_pct > theta and s.label)
            fp = sum(1 for s in samples if s.damage_pct > theta and not s.label)
            fn = sum(1 for s in samples if s.damage_pct <= theta and s.label)
            precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
            recall = tp / (tp + fn)
            fine_ap += (recall - prev_recall) * precision
            prev_recall = recall
        assert abs(ap - fine_ap) <= 1e-12


def test_monotone_rescaling_preserves_average_precision():
    """Order-preserving transforms of the estimates keep AP unchanged as
    long as every value stays strictly between 0 and 100."""
    rng = random.Random(1618)
    for _ in range(40):
        n = rng.randint(4, 40)
        labels = [rng.random() < 0.35 for _ in range(n)]
        if not any(labels):
            labels[-1] = True
        pcts = [rng.uniform(0.5, 99.5) for _ in range(n)]
        squeezed = [p / 2.0 + 1.0 for p in pcts]
        original = average_precision(pr_curve(make_samples(pcts, labels)))
        rescaled = average_precision(pr_curve(make_samples(squeezed, labels)))
        assert abs(original - rescaled) <= 1e-12


# ---------------------------------------------------------------- validate

def test_validate_reports_zero_threshold_operating_point():
    report = validate(WELL_RANKED, "major_plus")
    assert report.n_samples == 4
    assert report.n_positive == 2
    assert report.scheme == "major_plus"
    assert report.precision0 == 0.5
    assert report.recall0 == 1.0
    assert abs(report.average_precision - 5.0 / 6.0) <= 1e-15
    assert report.curve.points[-1].theta == 0.0


def test_validate_perfect_scene_scores_ones():
    report = validate(PERFECT, "destroyed_only")
    assert report.precision0 == 1.0
    assert report.recall0 == 1.0
    assert report.average_precision == 1.0
    assert report.n_positive == 2
