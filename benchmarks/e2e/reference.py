"""Timing at reference speed.

The benchmark runs on small shared hosts whose speed drifts: for minutes
at a time every process can run at half speed, and no statistic over
one run's samples removes a slowdown that lasts the whole run.  So every
timed call here runs between two calls of :func:`reference_loop`, a
fixed piece of work that uses no ``repro`` code, and each call's time is
also reported *at reference speed*: divided by the mean of the two
reference loops beside it and multiplied by :data:`REFERENCE_S`, what
the loop takes on the calibration machine at full speed.  A slowdown
that lasts longer than one call and its two reference loops slows both
alike and cancels; a change to the library moves only the call.  A call
of seconds is split into laps, each between two reference loops.  The
serving workload, whose requests wake process after process, uses
:class:`Echo`'s reference, which adds such wake-ups to the loop.
"""

from __future__ import annotations

import heapq
import os
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

#: Seconds :func:`reference_loop` takes on the calibration machine at
#: full speed (README, *Reference speed*).
REFERENCE_S = 0.008
#: One-byte round trips to the helper in :meth:`Echo.reference`, and the
#: seconds they take on the calibration machine at full speed.
ECHO_TRIPS = 100
ECHO_S = 0.0016
_ECHO_LOOP = "import os\nwhile b := os.read(0, 1):\n    os.write(1, b)\n"

_RNG = np.random.default_rng(0)
_LARGE = _RNG.random(60_000)
_SMALL = _RNG.random((16, 16))
_ORDER = _RNG.permutation(16)
_TASKS = 5_000
_PREDS = [sorted({int(_RNG.integers(t)) for _ in range(3)}) if t else [] for t in range(_TASKS)]
_SUCCS: list[list[int]] = [[] for _ in range(_TASKS)]
for _task, _preds in enumerate(_PREDS):
    for _pred in _preds:
        _SUCCS[_pred].append(_task)


def reference_loop() -> tuple:
    """The library's three kinds of work in fixed amounts: interpreted
    Python walking a task graph through a heap worklist, many numpy calls
    on tiny arrays (both as the search mappers' incremental evaluation
    does), and a few passes over a large array (as the 100k-task code
    makes)."""
    end = [0] * _TASKS
    heap = list(range(0, _TASKS, 5))
    queued = set(heap)
    while heap:
        task = heapq.heappop(heap)
        queued.discard(task)
        start = 0
        for pred in _PREDS[task]:
            if end[pred] + pred % 7 > start:
                start = end[pred] + pred % 7
        if start + 1 == end[task]:
            continue
        end[task] = start + 1
        for succ in _SUCCS[task]:
            if succ not in queued:
                queued.add(succ)
                heapq.heappush(heap, succ)
    total = 0.0
    for i in range(500):
        row = _SMALL[_ORDER[i % 16]]
        total += float((row[_ORDER] - row).min())
    large = _LARGE
    for _ in range(2):
        large = np.sort(large * 1.0001)
        large = np.cumsum(large) / large.sum()
    return end, total, large


class Echo:
    """A helper process that sends back every byte it reads.

    On a busy host every wake-up of a process waits for a vCPU, and a
    serving cycle, which hands each request from process to process,
    slows about 1.7 times as much as :func:`reference_loop` does;
    :meth:`reference` adds round trips to the helper, which wake it and
    this process in turn, so that the reference slows about as much as
    the cycle.
    """

    def __enter__(self) -> Echo:
        self.helper = subprocess.Popen(
            [sys.executable, "-c", _ECHO_LOOP],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        try:
            self.helper.stdin.write(b"x")  # wait until the helper has started
            self.helper.stdout.read(1)
        except BaseException:
            self.helper.kill()
            self.helper.wait()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.helper.stdin.close()  # the helper reads end of file and exits
        self.helper.wait()
        self.helper.stdout.close()

    def reference(self) -> None:
        reference_loop()
        out, back = self.helper.stdin.fileno(), self.helper.stdout.fileno()
        for _ in range(ECHO_TRIPS):
            os.write(out, b"x")
            os.read(back, 1)

    def timings(self) -> Timings:
        """Timings against this reference."""
        return Timings(self.reference, REFERENCE_S + ECHO_S)


def timed(func, *args):
    start = time.perf_counter()
    value = func(*args)
    return value, time.perf_counter() - start


@dataclass
class Timings:
    """Wall seconds of timed calls.  A call is one or more laps, and the
    reference loop runs between laps: ``refs[i]`` ran just before lap
    ``i`` and ``refs[i + 1]`` just after it.  A long call is split into
    laps so that no lap outlasts the host's fast and slow phases."""

    reference: Callable[[], object] = reference_loop
    reference_s: float = REFERENCE_S  # the reference's seconds at full speed
    laps: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    firsts: list[int] = field(default_factory=list)  # each call's first lap
    mark: float = 0.0

    def __post_init__(self) -> None:
        self.refs.append(timed(self.reference)[1])

    def start(self) -> None:
        """Start a call and its first lap."""
        self.firsts.append(len(self.laps))
        self.mark = time.perf_counter()

    def lap(self) -> None:
        """End the current lap, run the reference loop, start the next lap."""
        self.laps.append(time.perf_counter() - self.mark)
        self.refs.append(timed(self.reference)[1])
        self.mark = time.perf_counter()

    def time(self, func, *args):
        """Time ``func(*args)`` as one call of one lap; returns its value."""
        self.start()
        value = func(*args)
        self.lap()
        return value

    def _per_call(self, laps: list[float]) -> list[float]:
        ends = [*self.firsts[1:], len(laps)]
        return [sum(laps[first:end]) for first, end in zip(self.firsts, ends)]

    def seconds(self) -> list[float]:
        """Wall seconds of each call."""
        return self._per_call(self.laps)

    def at_reference_speed(self) -> list[float]:
        """Seconds of each call at reference speed."""
        return self._per_call(
            [
                took * self.reference_s * 2.0 / (before + after)
                for took, before, after in zip(self.laps, self.refs, self.refs[1:])
            ]
        )

    def median(self) -> float:
        """Median seconds of a call at reference speed."""
        return statistics.median(self.at_reference_speed())


def measure(op, seconds: float, min_ops: int, timings: Timings | None = None) -> Timings:
    """Call ``op()`` back to back; stop once ``min_ops`` ran and the next
    call would overrun ``seconds`` of measured time.  An ``op`` that
    splits its call into laps passes the ``timings`` it calls
    :meth:`Timings.lap` on."""
    timings = Timings() if timings is None else timings
    while True:
        timings.time(op)
        done = timings.seconds()
        if len(done) >= min_ops and sum(done) + done[-1] > seconds:
            return timings


def set_up(build, repeats: int, release=None, timings: Timings | None = None):
    """Time ``build()`` ``repeats`` times; ``release(value)`` runs
    untimed on each value but the last before the next build.  Returns
    the last value and the timings."""
    timings = Timings() if timings is None else timings
    value = None
    for _ in range(repeats):
        if value is not None and release is not None:
            release(value)
        value = None  # drop the previous value before building the next
        value = timings.time(build)
    return value, timings
