"""Discrete-event simulation of a mapped program on a MIMD machine.

The analytic evaluator (:mod:`repro.core.evaluate`) *is* the paper's
model; this engine re-executes the mapped program event by event so the
model's assumptions can be relaxed one at a time:

* ``SimConfig()`` (defaults) — the **paper model**: infinitely wide
  processors (independent tasks on one processor overlap) and
  contention-free links (a message takes ``weight x hops`` regardless of
  traffic).  In this mode the simulation provably reproduces the
  analytic schedule exactly, and the test suite asserts it.
* ``serialize_processors=True`` — each processor executes one task at a
  time; ready tasks queue FIFO by ready time (ties by task id) — plain
  list scheduling.
* ``link_contention=True`` — each *directed* link carries one message at
  a time (store-and-forward, full-duplex physical links); messages wait
  for the next channel on their fixed shortest-path route.
* ``link_setup > 0`` — the classic alpha-beta cost model: every hop pays
  a fixed startup latency on top of the weight-proportional transfer
  time (``hop time = link_setup + weight``).  The paper's model is
  ``link_setup == 0``.
* ``fifo_depth=D`` (requires ``link_contention``) — each directed link
  owns a finite FIFO of ``D`` slots shared by queued and transmitting
  messages; a message arriving at a full FIFO *stalls at the sending
  node* (backpressure) until the oldest slot-holder drains.  Stall time
  is accounted per link and totalled in ``SimResult.fifo_stall_time``.

All relaxations can only delay events, so the simulated makespan is
always >= the analytic one — another tested invariant.  Ablation A4
measures how far the 1991 model drifts from these higher-fidelity
machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from ..core.assignment import Assignment
from ..core.clustered import ClusteredGraph
from ..topology.base import SystemGraph
from ..utils import MappingError
from .machine import MimdMachine
from .trace import SimTrace

__all__ = ["SimConfig", "SimResult", "simulate"]

# Event kinds: all inputs of a task have arrived, a task finished, a
# message finished crossing one link.
_READY, _FINISH, _HOP = 0, 1, 2


@dataclass(frozen=True)
class SimConfig:
    """Fidelity knobs; defaults reproduce the paper's analytic model."""

    serialize_processors: bool = False
    link_contention: bool = False
    link_setup: int = 0
    fifo_depth: int | None = None

    def __post_init__(self) -> None:
        if self.link_setup < 0:
            raise ValueError("link_setup must be >= 0")
        if self.fifo_depth is not None:
            if self.fifo_depth < 1:
                raise ValueError("fifo_depth must be >= 1")
            if not self.link_contention:
                raise ValueError("fifo_depth requires link_contention=True")

    def describe(self) -> str:
        parts = []
        parts.append("serialized" if self.serialize_processors else "overlapping")
        parts.append("contention" if self.link_contention else "contention-free")
        if self.link_setup:
            parts.append(f"setup={self.link_setup}")
        if self.fifo_depth is not None:
            parts.append(f"fifo={self.fifo_depth}")
        return "+".join(parts)


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulated execution.

    Attributes
    ----------
    start, end:
        Per-task start and finish times (read-only arrays).
    makespan:
        The latest finish time.
    trace:
        The task, transfer and stall records.
    max_link_utilization:
        The largest directed-link busy time (the sum of its hop times)
        over the makespan.
    fifo_stall_time:
        Total time messages waited at their sender for a slot in a full
        link FIFO; 0 unless ``fifo_depth`` is set.
    max_queue_depth:
        The most messages holding one directed link's slots (queued or
        transmitting) when a message arrived at it.

    Without ``link_contention`` no message waits for a link, but every
    hop is still booked on its link as if the link carried one message
    at a time (the grant only keeps the link statistics).  So
    ``max_queue_depth`` counts a virtual queue that no message waits
    in, and ``max_link_utilization`` can exceed 1: they are 98 and 4.10
    on the golden 300-task ``hypercube:3`` pin under ``SimConfig()``,
    where every hop starts at once.
    """

    config: SimConfig
    start: np.ndarray
    end: np.ndarray
    makespan: int
    trace: SimTrace
    max_link_utilization: float
    fifo_stall_time: int = 0
    max_queue_depth: int = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimResult(makespan={self.makespan}, "
            f"config={self.config.describe()!r})"
        )


def simulate(
    clustered: ClusteredGraph,
    system: SystemGraph,
    assignment: Assignment,
    config: SimConfig = SimConfig(),
) -> SimResult:
    """Run the mapped program to completion and return the schedule.

    One loop over a heap of ``(time, seq, kind, payload)`` events; the
    unique ``seq`` fires simultaneous events in the order they were
    pushed.  A finished task sends one message per out-edge, ``(src_task,
    dst_task, route, weight, hop)``, and a ``_HOP`` event carries one
    message: it crosses link ``route[hop] -> route[hop + 1]`` next and
    is delivered once ``hop`` reaches the route's end, at once for a
    successor on the same processor (a one-node route).  Each serialized
    processor queues its ready tasks in a heap of ``(ready time, task)``.
    """
    graph = clustered.graph
    if clustered.num_clusters != system.num_nodes:
        raise MappingError("na must equal ns for simulation")
    n, ns = graph.num_tasks, system.num_nodes
    host = assignment.placement[clustered.clustering.labels].tolist()
    sizes = graph.task_sizes.tolist()
    out_ptr = graph.out_indptr.tolist()
    out_dst = graph.out_indices.tolist()
    cross_w = clustered.cross_out_weights.tolist()  # aligned with out_dst
    pending = np.diff(graph.in_indptr).tolist()
    link_w = system.link_weights.ravel().tolist()  # link a -> b at a * ns + b
    route_of = system.shortest_path
    serialize, contention = config.serialize_processors, config.link_contention
    setup = config.link_setup
    machine = MimdMachine(system, fifo_depth=config.fifo_depth)
    grant = machine.grant

    events: list[tuple[int, int, int, object]] = []
    seq = 0
    start = [-1] * n
    end = [-1] * n
    busy = [False] * ns
    ready: list[list[tuple[int, int]]] = [[] for _ in range(ns)]
    task_rows: list[tuple[int, int, int, int]] = []
    transfer_rows: list[tuple[int, int, tuple[int, int], int, int]] = []
    stall_rows: list[tuple[int, int, tuple[int, int], int, int]] = []

    for task in range(n):
        if not pending[task]:
            heappush(events, (0, seq, _READY, task))
            seq += 1
    while events:
        time, _, kind, payload = heappop(events)
        if kind == _HOP:
            messages = (payload,)
        elif kind == _FINISH:
            task = payload
            end[task] = time
            p = host[task]
            task_rows.append((task, p, start[task], time))
            if serialize:
                if ready[p]:
                    nxt = heappop(ready[p])[1]
                    start[nxt] = time
                    heappush(events, (time + sizes[nxt], seq, _FINISH, nxt))
                    seq += 1
                else:
                    busy[p] = False
            lo, hi = out_ptr[task], out_ptr[task + 1]
            messages = [
                (task, succ, route_of(p, host[succ]), weight, 0)
                for succ, weight in zip(out_dst[lo:hi], cross_w[lo:hi])
            ]
        else:  # _READY
            task = payload
            if serialize:
                p = host[task]
                if busy[p]:
                    heappush(ready[p], (time, task))
                    continue
                busy[p] = True
            start[task] = time
            heappush(events, (time + sizes[task], seq, _FINISH, task))
            seq += 1
            continue
        for src, dst, route, weight, hop in messages:
            if hop == len(route) - 1:
                pending[dst] -= 1
                if not pending[dst]:
                    heappush(events, (time, seq, _READY, dst))
                    seq += 1
                continue
            a, b = link = route[hop], route[hop + 1]
            k = a * ns + b
            duration = setup + weight * link_w[k]
            enqueue, begin = grant(k, time, duration)
            if not contention:
                begin = time  # the grant only keeps the link statistics
            elif enqueue > time:
                stall_rows.append((src, dst, link, time, enqueue))
            done = begin + duration
            transfer_rows.append((src, dst, link, begin, done))
            heappush(events, (done, seq, _HOP, (src, dst, route, weight, hop + 1)))
            seq += 1

    start_arr = np.array(start, dtype=np.int64)
    end_arr = np.array(end, dtype=np.int64)
    if (end_arr < 0).any():  # pragma: no cover - defensive
        stuck = np.flatnonzero(end_arr < 0).tolist()
        raise RuntimeError(f"simulation deadlocked; tasks never finished: {stuck}")
    start_arr.flags.writeable = False
    end_arr.flags.writeable = False
    makespan = max(end, default=0)
    return SimResult(
        config=config,
        start=start_arr,
        end=end_arr,
        makespan=makespan,
        trace=SimTrace(task_rows, transfer_rows, stall_rows),
        max_link_utilization=machine.max_link_utilization(makespan),
        fifo_stall_time=machine.fifo_stall_time(),
        max_queue_depth=machine.max_queue_depth(),
    )
