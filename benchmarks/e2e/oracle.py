"""Correctness checks the benchmark applies to every outcome it times.

* Every assignment must be a bijection clusters <-> processors.
* Outcomes of at most :data:`SCHEDULE_LIMIT` tasks are re-evaluated with
  :func:`repro.core.evaluate.evaluate_assignment` and validated by the
  independent schedule oracle :func:`repro.core.validate.verify_schedule`.
* Larger outcomes (the dense schedule would not fit in memory) get their
  makespan recomputed by :func:`csr_makespan`, a level-by-level pass
  written here that shares no code with ``total_time``.

Each check returns an error message, or ``None`` when the outcome holds.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluate import evaluate_assignment
from repro.core.validate import ScheduleViolation, verify_schedule

#: Largest task count checked through the dense schedule oracle.
SCHEDULE_LIMIT = 20_000


def bijection_error(assi, size: int) -> str | None:
    """``assi[processor] = cluster`` must be a permutation of ``0..size-1``."""
    arr = np.asarray(assi, dtype=np.int64)
    if arr.shape != (size,) or not np.array_equal(np.sort(arr), np.arange(size)):
        return f"assignment is not a bijection over {size} processors"
    return None


def csr_makespan(clustered, system, placement: np.ndarray) -> int:
    """Makespan of ``placement[cluster] = processor``, from raw CSR arrays.

    Kahn's algorithm one frontier at a time: a task's start is the latest
    arrival over its in-edges, where an edge between different clusters
    costs its weight times the hop distance between their processors.
    """
    graph = clustered.graph
    n = graph.num_tasks
    src, dst, weight = (np.asarray(a, dtype=np.int64) for a in graph.edge_arrays())
    labels = np.asarray(clustered.clustering.labels, dtype=np.int64)
    hosts = np.asarray(placement, dtype=np.int64)[labels]
    cross = labels[src] != labels[dst]
    cost = np.where(cross, weight * np.asarray(system.shortest)[hosts[src], hosts[dst]], 0)
    order = np.argsort(src, kind="stable")
    src, dst, cost = src[order], dst[order], cost[order]
    first = np.searchsorted(src, np.arange(n + 1))
    sizes = np.asarray(graph.task_sizes, dtype=np.int64)
    indegree = np.bincount(dst, minlength=n)
    start = np.zeros(n, dtype=np.int64)
    end = np.zeros(n, dtype=np.int64)
    frontier = np.flatnonzero(indegree == 0)
    done = 0
    while frontier.size:
        end[frontier] = start[frontier] + sizes[frontier]
        done += frontier.size
        counts = first[frontier + 1] - first[frontier]
        edges = np.repeat(first[frontier] - np.cumsum(counts) + counts, counts) + np.arange(
            counts.sum()
        )
        targets = dst[edges]
        np.maximum.at(start, targets, end[src[edges]] + cost[edges])
        np.subtract.at(indegree, targets, 1)
        frontier = np.unique(targets[indegree[targets] == 0])
    if done != n:
        raise ValueError("task graph has a cycle")
    return int(end.max())


def comm_volume(clustered, system, placement: np.ndarray) -> int:
    """Hop-weighted communication volume over inter-cluster edges."""
    src, dst, weight = clustered.graph.edge_arrays()
    labels = np.asarray(clustered.clustering.labels, dtype=np.int64)
    hosts = np.asarray(placement, dtype=np.int64)[labels]
    cross = labels[src] != labels[dst]
    dist = np.asarray(system.shortest)[hosts[src[cross]], hosts[dst[cross]]]
    return int((np.asarray(weight, dtype=np.int64)[cross] * dist).sum())


def outcome_error(clustered, system, assignment, total_time: int, lower_bound: int) -> str | None:
    """Check one outcome against the independent oracles."""
    error = bijection_error(assignment.assi, system.num_nodes)
    if error:
        return error
    if lower_bound > total_time:
        return f"lower bound {lower_bound} exceeds total time {total_time}"
    if clustered.num_tasks <= SCHEDULE_LIMIT:
        schedule = evaluate_assignment(clustered, system, assignment)
        try:
            verify_schedule(schedule)
        except ScheduleViolation as exc:
            return f"schedule oracle: {exc}"
        expected = schedule.total_time
    else:
        expected = csr_makespan(clustered, system, assignment.placement)
    if expected != total_time:
        return f"reported total time {total_time}, oracle says {expected}"
    return None


def same_outcome(a: dict, b: dict) -> bool:
    """Bit-identity of two outcome dicts (wall time excluded)."""
    keys = ("mapper", "assignment", "total_time", "lower_bound", "evaluations", "extras")
    return all(a.get(key) == b.get(key) for key in keys)
