"""Machine-speed calibration for the timed metrics.

On a shared host the speed of the CPU drifts: on the two-vCPU machine this
benchmark was defined on, a fixed loop ran up to 25 % slower for tens of
seconds at a time, and process CPU time drifted with wall time, so the
drift is contention, not scheduling.  Medians within a run cannot remove a
drift that lasts as long as the run.

So a fixed calibration loop, which uses no sinepath code, is read before the
first and after every timed unit: each solve of the solve workloads, each
``sinepath bench`` subprocess of ``plan-paired`` and each set-up probe.  Each
unit's times are scaled by ``REFERENCE_S / mean(reading before, reading
after)``: they are reported at the speed at which the loop takes
``REFERENCE_S`` CPU seconds.  A faster sinepath shows in full, because the
loop does not change with it.

Two details matter on that host.  One pass of the loop swings by up to a
third from the next, so a reading is the median of ``PASSES`` passes.  And
contention slows some instruction mixes more than others, so the loop does
what a colony step does, prefix sums and counts over 50 rows, at the row width
of the workload's subsets (``LOOP``): over five minutes of alternating
solves, the loop at the matching width cut the unit-to-unit spread of
``bench51-m4`` solves from 34 % to 10 %, against 14 % for a mixed loop.

The loop samples one core, so it corrects only single-threaded units: the
plan runs with one worker.  With two worker threads on both cores, scaling by
one core's speed made the spread of the plan medians wider (15-17 % against
8-12 % unscaled).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.05
PASSES = 3
# Per workload: the colony row width of its subsets (51 nodes over 4 robots,
# 50 nodes over 2 or 4 robots, 2000 nodes over 8 robots), and whether half of
# a pass is a plain Python loop instead, for plan-paired, whose units spend
# about a third of their time starting an interpreter and importing.
LOOP = {"bench51-m4": (13, False), "plan-paired": (13, True), "rand2000-m8": (250, False)}
# Loop iterations that take about REFERENCE_S at each width.
_ITERS = {13: 4400, 250: 800}
_PY_ITERS = 280000

_rng = np.random.default_rng(0)
_TARGET = _rng.random(50)
_ROWS = {width: _rng.random((50, width)) for width in _ITERS}


def sample(width: int, python: bool) -> float:
    """CPU seconds of one pass of the calibration loop at ``width``, half of
    it a plain Python loop when ``python`` is set."""
    rows = _ROWS[width]
    t0 = time.process_time()
    for _ in range(_ITERS[width] // 2 if python else _ITERS[width]):
        (np.cumsum(rows, axis=1) <= _TARGET[:, None]).sum(axis=1)
    total = 0
    for i in range(_PY_ITERS if python else 0):
        total += i * i
    return time.process_time() - t0


class Calibrator:
    """Scale factor for each timed unit of a workload from the loop readings around it."""

    def __init__(self, workload: str):
        self.loop = LOOP[workload]
        self.last = self.reading()

    def reading(self) -> float:
        return statistics.median(sample(*self.loop) for _ in range(PASSES))

    def factor(self) -> float:
        """Call right after a unit: reads the loop again and returns the
        unit's factor, from the readings before and after it."""
        before, self.last = self.last, self.reading()
        return REFERENCE_S / ((before + self.last) / 2)
