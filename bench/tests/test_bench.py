"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import damagekit.formats  # noqa: E402
import damagekit.metrics  # noqa: E402
import damagekit.truth  # noqa: E402
import hostclock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int = 0):
    args = argparse.Namespace(workload=workload, seed=7, seconds=0.2, trace=trace)
    lines = []
    result = run.run(args, log=lambda *parts, **_: lines.append(" ".join(parts)),
                     size="tiny")
    return result, lines


def _units(result) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_benchmark_json_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.NAMES)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    result, lines = _run(workload)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_TIMED
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("digests ") for line in lines)
    assert any(line.startswith("context ") for line in lines)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_traced_run_emits_every_per_layer_metric(workload):
    result, _ = _run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert (ROOT / ".bench_trace" / f"{workload}.json.gz").is_file()


def _spoil_call(monkeypatch, module, name, nth, make_bad):
    """Pass the nth call's result through make_bad; the others are real."""
    real = getattr(module, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(1)
        if len(calls) == nth:
            return make_bad(real(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, patched)


def _assert_one_failure(result):
    assert result["failed"] == 1 and not result["correct"]
    assert result["attempted"] >= run.MIN_TIMED
    assert result["metrics"]["ok_ops_frac"]["value"] < 1.0


def test_corrupted_output_counts_as_failed_operation(monkeypatch):
    # One call per operation: the second operation writes a wrong count.
    _spoil_call(monkeypatch, damagekit.formats, "write_assessed_geojson", 2,
                lambda text: text.replace('"n_damaged":', '"n_damaged":9', 1))
    result, _ = _run("scene-fine")
    _assert_one_failure(result)


def test_wrong_average_precision_counts_as_failed_operation(monkeypatch):
    def shifted(report):
        return damagekit.metrics.ValidationReport(
            **{**report.__dict__, "average_precision": report.average_precision + 1e-9})

    # Three schemes per operation: the fourth call is the second operation's.
    _spoil_call(monkeypatch, damagekit.metrics, "validate", 4, shifted)
    result, _ = _run("rescore")
    _assert_one_failure(result)


def test_raising_operation_counts_as_failed_operation(monkeypatch):
    def boom(_):
        raise RuntimeError("injected")

    _spoil_call(monkeypatch, damagekit.metrics, "validate", 2, boom)
    result, _ = _run("survey-dense")
    _assert_one_failure(result)


def test_tracer_sees_call_time_imports_and_restores_references():
    tracer = spans.Tracer()
    original = damagekit.metrics.validate
    with tracer.traced_op(0):
        from damagekit.metrics import validate
        assert validate is not original
        damagekit.formats.round_half_up(1.005)
    assert damagekit.metrics.validate is original
    tracer.check_layers(["formats"])
    with pytest.raises(spans.TracerBlind, match="raster"):
        tracer.check_layers(["formats", "raster"])


def test_traced_run_fails_loudly_when_a_layer_goes_unseen(monkeypatch):
    monkeypatch.setattr(workloads.RescoreWorkload, "layers",
                        workloads.RescoreWorkload.layers + ("raster",))
    with pytest.raises(spans.TracerBlind):
        _run("rescore", trace=1)


def test_step_sum_ap_agrees_with_validate():
    pcts = [80.0, 50.0, 50.0, 0.0, 100.0, 12.5]
    labels = [1, 0, 1, 1, 0, 1]
    samples = [damagekit.truth.MatchedSample(f"p{i}", f"b{i}", 0.0, label, pct)
               for i, (pct, label) in enumerate(zip(pcts, labels))]
    report = damagekit.metrics.validate(samples, "major_plus")
    assert workloads.step_sum_ap(pcts, labels) == pytest.approx(
        report.average_precision, abs=1e-12)
    # Tie groups enter whole: {100}, {80}, {50, 50}, {12.5}; 0 never does.
    assert workloads.step_sum_ap(pcts, labels) == pytest.approx(
        0 / 4 + (1 / 4) * (1 / 2) + (1 / 4) * (2 / 4) + (1 / 4) * (3 / 5))


def test_host_clock_scales_each_call_by_its_surrounding_probes(monkeypatch):
    assert 0.5 < hostclock.probe() < 5.0
    probes = iter([2.0, 2.0, 1.0])  # the host's slowness at each probe
    monkeypatch.setattr(hostclock, "probe", lambda: next(probes))
    ticks = iter([10.0, 13.0, 20.0, 21.0])
    monkeypatch.setattr(hostclock.time, "perf_counter", lambda: next(ticks))
    clock = hostclock.HostClock()
    assert clock.time(lambda x: x + 1, 1) == 2  # half speed throughout
    clock.time(lambda: None)                    # from half to full speed
    assert clock.wall == pytest.approx(3.0 + 1.0)
    assert clock.scaled == pytest.approx(3.0 / 2 + 1.0 / 1.5)


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "rescore",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
