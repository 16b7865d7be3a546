"""Analytic list scheduling with serialized processors.

The paper's model lets independent tasks on one processor overlap; a
real 1991 MIMD node runs one task at a time.  This module computes
serialized schedules *analytically* (no event queue) with a pluggable
priority policy:

* ``"fifo"`` — ready tasks start in ready-time order (ties by id); the
  same policy as the discrete-event simulator's
  ``serialize_processors`` mode.  The two agree exactly except when
  several tasks become ready at the *same instant* on the same
  processor: the DES breaks that tie by event-arrival order (a product
  of message routing), this scheduler by task id.  The test suite
  asserts exact agreement on collision-free instances and agreement on
  the vast majority of random ones.
* ``"blevel"`` — classic HLFET: among ready tasks, the one with the
  largest bottom level (longest weighted path to an exit) goes first —
  usually beats FIFO on critical-path-bound workloads.  The bottom
  levels come from the one level sweep, run over the reversed DAG
  (:func:`bottom_levels`).

Communication remains the paper's, contention-free: each edge costs
:func:`~repro.core.evaluate.communication_costs`.  The result is a plain
start/end pair that :func:`repro.core.validate.verify_times` accepts with
``require_asap=False``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..topology.base import SystemGraph
from .assignment import Assignment
from .clustered import ClusteredGraph
from .evaluate import communication_costs

__all__ = ["ListSchedule", "list_schedule", "bottom_levels"]


@dataclass(frozen=True)
class ListSchedule:
    """A serialized schedule (one task at a time per processor)."""

    start: np.ndarray
    end: np.ndarray
    makespan: int
    policy: str


def bottom_levels(clustered: ClusteredGraph) -> np.ndarray:
    """Longest path (sizes + clustered comm) from each task to an exit:
    :meth:`~repro.core.taskgraph.TaskGraph.bottom_levels`, the level sweep
    over the reversed DAG, with the clustered weights."""
    return clustered.graph.bottom_levels(clustered.cross_out_weights)


def list_schedule(
    clustered: ClusteredGraph,
    system: SystemGraph,
    assignment: Assignment,
    policy: str = "fifo",
) -> ListSchedule:
    """Serialized list schedule under the given priority policy."""
    if policy not in ("fifo", "blevel"):
        raise ValueError(f"policy must be 'fifo' or 'blevel', got {policy!r}")
    graph = clustered.graph
    n = graph.num_tasks
    comm = communication_costs(clustered, system, assignment)
    in_ptr, in_src = graph.in_indptr, graph.in_indices
    sizes = graph.task_sizes
    labels = clustered.clustering.labels
    host = assignment.placement[labels]
    priority = (
        -bottom_levels(clustered)
        if policy == "blevel"
        else np.zeros(n, dtype=np.int64)
    )

    start = np.full(n, -1, dtype=np.int64)
    end = np.full(n, -1, dtype=np.int64)
    pending = np.diff(in_ptr)
    busy = np.zeros(system.num_nodes, dtype=bool)
    queues: list[list[tuple[int, int, int]]] = [
        [] for _ in range(system.num_nodes)
    ]

    # Event heap: (time, kind, seq, payload); kind 0 = task finished
    # (payload = task; its processor becomes free), kind 1 = task ready
    # (payload = task).  Finish events at time T precede ready events at
    # T, matching the DES dispatch order.
    events: list[tuple[int, int, int, int]] = []
    seq = 0

    def push_ready(task: int, time: int) -> None:
        nonlocal seq
        heapq.heappush(events, (time, 1, seq, task))
        seq += 1

    def begin_task(task: int, time: int) -> None:
        nonlocal seq
        p = int(host[task])
        busy[p] = True
        start[task] = time
        end[task] = time + int(sizes[task])
        heapq.heappush(events, (int(end[task]), 0, seq, task))
        seq += 1

    for t in range(n):
        if pending[t] == 0:
            push_ready(t, 0)

    while events:
        time, kind, _, payload = heapq.heappop(events)
        if kind == 1:  # task(s) became ready
            # Batch every ready event at this instant so the priority
            # policy chooses among *all* simultaneously ready tasks
            # (without batching, the first event would grab an idle
            # processor regardless of priority).
            ready_now = [payload]
            while events and events[0][0] == time and events[0][1] == 1:
                ready_now.append(heapq.heappop(events)[3])
            touched = set()
            for task in ready_now:
                p = int(host[task])
                key = (
                    (time, task, task)
                    if policy == "fifo"
                    else (int(priority[task]), time, task)
                )
                heapq.heappush(queues[p], key)
                touched.add(p)
            for p in touched:
                if not busy[p] and queues[p]:
                    _, _, nxt = heapq.heappop(queues[p])
                    begin_task(nxt, time)
        else:  # task finished: release successors, then dispatch the queue
            task = payload
            p = int(host[task])
            busy[p] = False
            for succ in graph.successors(task).tolist():
                pending[succ] -= 1
                if pending[succ] == 0:
                    lo, hi = in_ptr[succ], in_ptr[succ + 1]
                    arrive = int((end[in_src[lo:hi]] + comm[lo:hi]).max())
                    push_ready(int(succ), max(arrive, time))
            if queues[p]:
                _, _, nxt = heapq.heappop(queues[p])
                begin_task(nxt, time)

    return ListSchedule(
        start=start, end=end, makespan=int(end.max()), policy=policy
    )
