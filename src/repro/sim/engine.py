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

from dataclasses import dataclass, field

import numpy as np

from ..core.assignment import Assignment
from ..core.clustered import ClusteredGraph
from ..topology.base import SystemGraph
from ..utils import MappingError
from .events import EventKind, EventQueue
from .machine import MimdMachine
from .trace import SimTrace, StallRecord, TaskRecord, TransferRecord

__all__ = ["SimConfig", "SimResult", "simulate"]


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
    """Outcome of one simulated execution."""

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


@dataclass
class _Message:
    """A payload in flight along its fixed route."""

    src_task: int
    dst_task: int
    route: tuple[int, ...]
    hop_index: int  # next link to traverse is route[hop_index] -> route[hop_index+1]
    weight: int     # clustered edge weight (message size in time units/link-cost)


def simulate(
    clustered: ClusteredGraph,
    system: SystemGraph,
    assignment: Assignment,
    config: SimConfig = SimConfig(),
) -> SimResult:
    """Run the mapped program to completion and return the schedule."""
    graph = clustered.graph
    if clustered.num_clusters != system.num_nodes:
        raise MappingError("na must equal ns for simulation")
    n = graph.num_tasks
    labels = clustered.clustering.labels
    host = assignment.placement[labels]  # processor per task
    out_ptr, out_dst = graph.out_indptr, graph.out_indices
    cross_w = clustered.cross_out_weights  # aligned with out_dst
    machine = MimdMachine(system, fifo_depth=config.fifo_depth)
    machine.reset_links()

    queue = EventQueue()
    trace = SimTrace()

    start = np.full(n, -1, dtype=np.int64)
    end = np.full(n, -1, dtype=np.int64)
    pending_inputs = np.diff(graph.in_indptr)
    # Per-processor run state (serialization mode).
    proc_busy = np.zeros(system.num_nodes, dtype=bool)
    proc_queue: list[list[tuple[int, int]]] = [[] for _ in range(system.num_nodes)]

    def start_task(task: int, time: int) -> None:
        start[task] = time
        queue.push(time + int(graph.task_sizes[task]), EventKind.TASK_FINISH, task)

    def on_ready(task: int, time: int) -> None:
        p = int(host[task])
        if not config.serialize_processors:
            start_task(task, time)
            return
        if proc_busy[p]:
            proc_queue[p].append((time, task))
        else:
            proc_busy[p] = True
            start_task(task, time)

    def deliver(task: int, time: int) -> None:
        pending_inputs[task] -= 1
        if pending_inputs[task] == 0:
            queue.push(time, EventKind.TASK_READY, task)

    def launch_message(msg: _Message, time: int) -> None:
        """Send ``msg`` across its next link (or deliver at the end)."""
        if msg.hop_index >= len(msg.route) - 1:
            deliver(msg.dst_task, time)
            return
        a = msg.route[msg.hop_index]
        b = msg.route[msg.hop_index + 1]
        duration = config.link_setup + msg.weight * int(system.link_weights[a, b])
        if config.link_contention:
            grant = machine.acquire(a, b, time, duration)
            begin = grant.start
            if grant.stall:
                trace.stalls.append(
                    StallRecord(
                        src_task=msg.src_task,
                        dst_task=msg.dst_task,
                        link=(a, b),
                        start=time,
                        end=grant.enqueue,
                    )
                )
        else:
            begin = time
            machine.acquire_link(a, b, time, duration)  # stats only
        arrive = begin + duration
        trace.transfers.append(
            TransferRecord(
                src_task=msg.src_task,
                dst_task=msg.dst_task,
                link=(a, b),
                start=begin,
                end=arrive,
            )
        )
        msg.hop_index += 1
        queue.push(arrive, EventKind.HOP_ARRIVE, msg)

    for t in range(n):
        if pending_inputs[t] == 0:
            queue.push(0, EventKind.TASK_READY, t)

    makespan = 0
    while queue:
        event = queue.pop()
        time = event.time
        if event.kind is EventKind.TASK_READY:
            on_ready(int(event.payload), time)
        elif event.kind is EventKind.TASK_FINISH:
            task = int(event.payload)
            end[task] = time
            makespan = max(makespan, time)
            p = int(host[task])
            trace.tasks.append(
                TaskRecord(task=task, processor=p, start=int(start[task]), end=time)
            )
            if config.serialize_processors:
                if proc_queue[p]:
                    proc_queue[p].sort()  # FIFO by ready time, tie by task id
                    _, nxt = proc_queue[p].pop(0)
                    start_task(nxt, time)
                else:
                    proc_busy[p] = False
            lo, hi = int(out_ptr[task]), int(out_ptr[task + 1])
            for succ, weight in zip(out_dst[lo:hi].tolist(), cross_w[lo:hi].tolist()):
                if host[succ] == p:
                    deliver(succ, time)
                    continue
                route = system.shortest_path(p, int(host[succ]))
                launch_message(
                    _Message(task, succ, route, hop_index=0, weight=weight),
                    time,
                )
        elif event.kind is EventKind.HOP_ARRIVE:
            launch_message(event.payload, time)  # type: ignore[arg-type]

    if (end < 0).any():  # pragma: no cover - defensive
        stuck = np.flatnonzero(end < 0).tolist()
        raise RuntimeError(f"simulation deadlocked; tasks never finished: {stuck}")

    start.flags.writeable = False
    end.flags.writeable = False
    return SimResult(
        config=config,
        start=start,
        end=end,
        makespan=makespan,
        trace=trace,
        max_link_utilization=machine.max_link_utilization(makespan),
        fifo_stall_time=machine.fifo_stall_time(),
        max_queue_depth=machine.max_queue_depth(),
    )
