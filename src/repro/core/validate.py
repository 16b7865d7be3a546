"""Independent schedule validation.

:func:`verify_schedule` re-derives every constraint of the paper's
execution model from first principles and raises
:class:`ScheduleViolation` on the first breach.  It deliberately shares
no code with the evaluator it checks — the whole point is an independent
oracle for tests, for users consuming externally produced schedules, and
for debugging model changes.

Checked constraints:

1. durations: ``end[i] - start[i] == task_size[i]`` for every task;
2. release: entry tasks start at time >= 0;
3. precedence + communication: for every problem edge ``(u, v)``,
   ``start[v] >= end[u] + w(u, v) * dist(host(u), host(v))``, with the
   clustered weight ``w`` (0 inside a cluster);
4. tightness (optional): every task starts *exactly* when its last
   input arrives (the paper's as-soon-as-possible semantics) — disable
   for schedules from models that may insert idle time (e.g. the
   serialized simulator).

A breach is reported at the first offending edge in ``graph.edges()``
order, then at the lowest-numbered offending task.
"""

from __future__ import annotations

import numpy as np

from ..topology.base import SystemGraph
from .assignment import Assignment
from .clustered import ClusteredGraph
from .evaluate import Schedule

__all__ = ["ScheduleViolation", "verify_schedule", "verify_times"]


class ScheduleViolation(AssertionError):
    """A schedule breaks the execution model's constraints."""


def verify_times(
    clustered: ClusteredGraph,
    system: SystemGraph,
    assignment: Assignment,
    start: np.ndarray,
    end: np.ndarray,
    *,
    require_asap: bool = True,
) -> None:
    """Validate raw start/end vectors against the paper's model."""
    graph = clustered.graph
    n = graph.num_tasks
    start = np.asarray(start)
    end = np.asarray(end)
    if start.shape != (n,) or end.shape != (n,):
        raise ScheduleViolation(
            f"start/end must have shape ({n},), got {start.shape}/{end.shape}"
        )
    if (start < 0).any():
        bad = int(np.argmax(start < 0))
        raise ScheduleViolation(f"task {bad} starts before time 0")
    durations = end - start
    if not np.array_equal(durations, graph.task_sizes):
        bad = int(np.argmax(durations != graph.task_sizes))
        raise ScheduleViolation(
            f"task {bad} runs for {int(durations[bad])} units, "
            f"size is {int(graph.task_sizes[bad])}"
        )

    labels = clustered.clustering.labels
    hosts = assignment.placement[labels]
    srcs, dsts, weights = graph.edge_arrays()
    clustered_w = np.where(labels[srcs] == labels[dsts], 0, weights)
    arrival = end[srcs] + clustered_w * system.shortest[hosts[srcs], hosts[dsts]]
    late = start[dsts] < arrival
    if late.any():
        i = int(np.argmax(late))
        src, dst = int(srcs[i]), int(dsts[i])
        raise ScheduleViolation(
            f"edge ({src} -> {dst}): task {dst} starts at "
            f"{int(start[dst])} before its input arrives at {int(arrival[i])}"
        )

    if require_asap:
        ready = np.zeros(n, dtype=arrival.dtype)
        np.maximum.at(ready, dsts, arrival)
        idle = start != ready
        if idle.any():
            t = int(np.argmax(idle))
            if graph.in_indptr[t] == graph.in_indptr[t + 1]:
                raise ScheduleViolation(
                    f"entry task {t} idles until {int(start[t])} "
                    "(as-soon-as-possible semantics requires 0)"
                )
            raise ScheduleViolation(
                f"task {t} starts at {int(start[t])} but its inputs are "
                f"complete at {int(ready[t])} (as-soon-as-possible violated)"
            )


def verify_schedule(schedule: Schedule, *, require_asap: bool = True) -> None:
    """Validate a :class:`Schedule` object (see :func:`verify_times`).

    Additionally checks the stored per-edge ``comm`` costs and
    ``total_time`` against independent recomputation.
    """
    clustered = schedule.clustered
    system = schedule.system
    labels = clustered.clustering.labels
    hosts = schedule.assignment.placement[labels]
    srcs, dsts, weights = clustered.graph.in_edge_arrays()
    expected_comm = np.where(labels[srcs] == labels[dsts], 0, weights) * (
        system.shortest[hosts[srcs], hosts[dsts]]
    )
    if not np.array_equal(schedule.comm, expected_comm):
        raise ScheduleViolation("stored comm costs disagree with the topology")
    if schedule.total_time != int(schedule.end.max()):
        raise ScheduleViolation(
            f"total_time {schedule.total_time} != max(end) {int(schedule.end.max())}"
        )
    verify_times(
        clustered,
        system,
        schedule.assignment,
        schedule.start,
        schedule.end,
        require_asap=require_asap,
    )
