"""Timing in reference-host seconds.

A shared host runs everything slower by up to 1.5x for stretches of a few
seconds (while a neighbour is busy), so wall times move with the host rather
than with the program. ``probe`` times four small fixed tasks that use
nothing of damagekit and returns the host's slowness: the mean of each
task's time over its time on the reference host when that host was not
slowed. ``HostClock`` probes before and after each timed call and divides
the call's wall time by the mean of the two slownesses. The result is the
time the call would take on the reference host at full speed. Probe time is
never counted.

The tasks differ because the host's slowdowns do not hit all code alike: an
integer loop, float formatting and parsing, building and reading a dict of
tuples, and a JSON round trip. Together they track the program's slowdowns
better than any one of them does.
"""

import json
import time


def _integers():
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def _floats():
    return sum(float(text) for text in [f"{i * 0.37:.3f}" for i in range(15_000)])


def _table():
    rows = {str(i): (i, i * 0.5) for i in range(15_000)}
    return sum(rows[str(i)][1] for i in range(0, 15_000, 3))


def _json():
    doc = [{"id": f"b{i}", "ring": [[i * 0.1, i * 0.2], [i * 0.3, 1.5]]}
           for i in range(2_000)]
    return len(json.loads(json.dumps(doc)))


# Each task and its time in seconds on the reference host when not slowed.
PROBES = ((_integers, 0.0072), (_floats, 0.0061), (_table, 0.0056), (_json, 0.0093))


def probe() -> float:
    """The host's slowness now: 1.0 on the reference host at full speed."""
    slowness = 0.0
    for task, reference in PROBES:
        start = time.perf_counter()
        task()
        slowness += (time.perf_counter() - start) / reference
    return slowness / len(PROBES)


def scale(seconds: float, before: float, after: float) -> float:
    """Wall seconds between two probes, in reference-host seconds."""
    return seconds * 2.0 / (before + after)


class HostClock:
    """Sums the wall and reference-host times of the calls it times."""

    def __init__(self):
        self.last = probe()
        self.wall = 0.0
        self.scaled = 0.0

    def time(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            after = probe()
            self.wall += seconds
            self.scaled += scale(seconds, self.last, after)
            self.last = after
