"""damagekit benchmark: seeded workloads run through the CLI in-process.

Usage, from the repository root:

    python3 bench/run.py --workload scene-fine --seed 1 --seconds 60 --trace 0

One operation is a closed loop of ``damagekit.cli.main`` calls on real files
(one client, one process, no extra threads). A run sets up its inputs, then
repeats operations until ``--seconds`` are spent. Every operation's outputs
are checked: each written file must be byte-identical to the first
operation's, and the workload runs its own independent check. An operation
that raises, exits non-zero or fails a check counts as failed.

``roundtrip_s`` is the median time of the run's successful operations, in
reference-host seconds (see bench/hostclock.py); the sample count, quartiles,
extremes and the unscaled wall-time median are printed beside it.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` untraced and traced operations alternate; the per-layer metrics
come from the traced ones (spans recorded by bench/spans.py and written to
.bench_trace/<workload>.json.gz), and ``trace.overhead_frac`` compares the two.

Earlier stdout lines give the output digests, the timing samples and the run
context. The program is imported from src/ of the checkout; without it the
run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from hostclock import HostClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_trace"

SETUP_REPEATS = 7   # input generations; setup_s takes their median
IMPORT_PROBES = 11  # fresh-interpreter imports, after one discarded warm-up
MIN_TIMED = 3       # untraced operations at least, with --trace 0
MIN_PAIRS = 2       # untraced/traced pairs at least, with --trace 1
IMPORT_PROBE = ("import sys, time\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "t = time.perf_counter()\n"
                "import damagekit.cli\n"
                "t = time.perf_counter() - t\n"
                "sys.path.insert(0, sys.argv[2])\n"
                "import hostclock\n"
                "slowness = hostclock.probe()\n"
                "print(hostclock.scale(t, slowness, slowness))\n")


class NoProgram(RuntimeError):
    """The damagekit sources are not in this checkout."""


def import_program():
    """Import damagekit from src/ of this checkout, and only from there."""
    if not (SRC / "damagekit" / "__init__.py").is_file():
        raise NoProgram(f"no damagekit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import damagekit.cli
    if Path(damagekit.cli.__file__).resolve().parent != SRC / "damagekit":
        raise NoProgram(f"damagekit imported from {damagekit.cli.__file__}")
    return damagekit.cli


def import_seconds() -> float:
    """Median import time of damagekit.cli in fresh interpreters, in
    reference-host seconds: each child probes the host's speed right after
    its import (not before, so that the probe's own imports are not
    preloaded). The first import only warms the file cache (and writes
    bytecode in a fresh checkout); it is not counted."""
    times = []
    for _ in range(IMPORT_PROBES + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC),
                               str(Path(__file__).resolve().parent)],
                              capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        times.append(float(proc.stdout.strip()))
    return statistics.median(times[1:])


def digest_tree(top: str) -> dict[str, str]:
    out = {}
    for dirpath, _, files in os.walk(top):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, top).replace(os.sep, "/")] = (
                    hashlib.sha256(handle.read()).hexdigest())
    return dict(sorted(out.items()))


def context(args, size: str) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
        commit = proc.stdout.strip() or commit
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "damagekit").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "size": size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


class Runner:
    """Runs, times and checks the operations of one workload."""

    def __init__(self, cli, workload, work_dir: str, log):
        self.cli = cli
        self.workload = workload
        self.work_dir = work_dir
        self.log = log
        self.inputs = ""
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0

    def setup(self) -> float:
        """Make the inputs afresh SETUP_REPEATS times; median seconds, in
        reference-host seconds."""
        times = []
        for k in range(SETUP_REPEATS):
            inputs = os.path.join(self.work_dir, f"inputs{k}")
            os.makedirs(inputs)
            clock = HostClock()
            clock.time(self.workload.make_inputs, inputs)
            times.append(clock.scaled)
            if self.inputs:
                shutil.rmtree(self.inputs)
            self.inputs = inputs
        return statistics.median(times)

    def operation(self, op: int, scope=None) -> tuple[float, float, bool]:
        """Run and check one operation: (reference-host seconds, wall
        seconds, whether it succeeded). Each command is timed by HostClock."""
        out = os.path.join(self.work_dir, f"op{op}")
        os.makedirs(out)
        self.attempted += 1
        commands = self.workload.commands(self.inputs, out)
        clock = HostClock()
        try:
            with scope or contextlib.nullcontext():
                codes = [clock.time(self.cli.main, argv) for argv in commands]
            problems = [f"exit {c} from {a[0]}" for c, a in zip(codes, commands) if c]
            if not problems:
                problems = self.check(out, op)
        except (Exception, SystemExit):
            problems = ["raised:\n" + traceback.format_exc()]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            self.log(f"operation {op} failed: " + "; ".join(problems[:5]),
                     file=sys.stderr)
        return clock.scaled, clock.wall, not problems

    def check(self, out: str, op: int) -> list[str]:
        digests = digest_tree(out)
        if self.reference is None:
            self.reference = digests
            self.log("digests " + json.dumps(digests, sort_keys=True))
        problems = [f"{name} differs from the first operation's"
                    for name in sorted(set(digests) | set(self.reference))
                    if digests.get(name) != self.reference.get(name)]
        return problems + self.workload.check(out, op)


def run(args, log=print, size: str = "full") -> dict:
    """One benchmark run; returns the result object printed last. The
    benchmark's own tests pass size "tiny" to shrink every input."""
    cli = import_program()
    import workloads

    ctx = context(args, size)
    workload = workloads.make(args.workload, args.seed, size)
    WORK.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        runner = Runner(cli, workload, work_dir, log)
        setup_s = runner.setup()
        if args.trace:
            metrics, timing = traced_loop(args, runner, workload)
        else:
            setup_s += import_seconds()
            metrics, timing = timed_loop(args, runner, workload, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    ctx.update(timing, warmup=0, attempted=runner.attempted)
    log("context " + json.dumps(ctx, sort_keys=True))
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def _loop(seconds: float, minimum: int, step) -> None:
    """Call step(i) until the next call would overrun the time budget."""
    start = time.perf_counter()
    spent = []
    while True:
        t0 = time.perf_counter()
        step(len(spent))
        spent.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(spent) >= minimum and elapsed + statistics.median(spent) > seconds:
            return


def _summary(name: str, samples: list[float]) -> dict:
    q = (statistics.quantiles(samples, n=4, method="inclusive")
         if len(samples) > 1 else samples * 3)
    return {f"{name}_n": len(samples), f"{name}_median": statistics.median(samples),
            f"{name}_q1": q[0], f"{name}_q3": q[2],
            f"{name}_min": min(samples), f"{name}_max": max(samples)}


def timed_loop(args, runner: Runner, workload, setup_s: float):
    ok: list[tuple[float, float]] = []  # reference-host s, wall s
    every: list[tuple[float, float]] = []

    def step(i):
        scaled, wall, succeeded = runner.operation(i)
        every.append((scaled, wall))
        if succeeded:
            ok.append((scaled, wall))

    _loop(args.seconds, MIN_TIMED, step)
    samples = ok or every  # failed operations are timed only if none succeeded
    roundtrip = statistics.median(s for s, _ in samples)
    timing = dict(_summary("roundtrip_s", [s for s, _ in samples]),
                  **_summary("wall_s", [w for _, w in samples]))
    runner.log(f"roundtrip_s median {roundtrip:.4f} s over {len(samples)} "
               f"operations (min {timing['roundtrip_s_min']:.4f}, q1 "
               f"{timing['roundtrip_s_q1']:.4f}, q3 {timing['roundtrip_s_q3']:.4f}, "
               f"max {timing['roundtrip_s_max']:.4f}; unscaled wall median "
               f"{timing['wall_s_median']:.4f}); {workload.items} items each")
    metrics = {
        "roundtrip_s": {"value": roundtrip, "unit": "s"},
        "items_per_s": {"value": workload.items / roundtrip, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "unit": "MiB"},
        "ok_ops_frac": {"value": (runner.attempted - runner.failed) / runner.attempted,
                        "unit": "ratio"},
    }
    return metrics, timing


def traced_loop(args, runner: Runner, workload):
    import spans

    tracer = spans.Tracer()
    pairs: list[tuple[float, float]] = []  # untraced s, traced s
    op_scale: dict[int, float] = {}  # traced op -> reference-host s per wall s

    def step(i):
        # Alternate which of the pair runs first, so drift favours neither.
        first_traced = i % 2 == 1
        seconds = {}
        for op in (2 * i, 2 * i + 1):
            with_trace = (op == 2 * i) == first_traced
            scope = tracer.traced_op(op) if with_trace else None
            scaled, wall, _ = runner.operation(op, scope)
            seconds[with_trace] = scaled
            if with_trace:
                op_scale[op] = scaled / wall
        pairs.append((seconds[False], seconds[True]))

    _loop(args.seconds, MIN_PAIRS, step)
    tracer.check_layers(workload.layers)
    layer = tracer.summarize(len(pairs), op_scale)
    layer["trace.overhead_frac"] = statistics.median(t / u for u, t in pairs) - 1.0
    TRACE_OUT.mkdir(exist_ok=True)
    tracer.write(TRACE_OUT / f"{args.workload}.json.gz")
    runner.log(f"{len(pairs)} untraced/traced pairs: "
               f"overhead {layer['trace.overhead_frac']:+.4f}")
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in sorted(layer.items())}
    timing = dict(_summary("untraced_s", [u for u, _ in pairs]),
                  **_summary("traced_s", [t for _, t in pairs]))
    return metrics, timing


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_yield", "_per_point")):
        return "ratio"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "bytes"
    return "count"


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_to_current_cpu() -> int | None:
    """Keep this process, and the interpreters it starts, on the CPU it runs
    on now, so that the host-speed probes and the program share one CPU.
    Returns that CPU, or None where the platform cannot say."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, IndexError, ValueError):
        return None
    return cpu


def main(argv=None) -> int:
    try:
        import_program()
    except (NoProgram, ImportError) as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    print(f"pinned to cpu {pin_to_current_cpu()}")
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
