"""Total-time evaluation of an assignment (paper Sec. 4.3.4).

Identical recurrence to the ideal schedule, but communication costs come
from the assignment-dependent ``comm`` matrix instead of ``clus_edge``:

    ``start[i] = max_j (end[j] + comm[j][i])``  over problem-graph preds j
    ``end[i]   = start[i] + task_size[i]``
    ``total_time = max_i end[i]``

The model is the paper's: store-and-forward shortest-path communication,
no link contention, and no serialization of independent tasks sharing a
processor (the discrete-event simulator in :mod:`repro.sim` offers
higher-fidelity variants).

The returned :class:`Schedule` carries everything downstream consumers
need (Gantt rendering, per-task slack, comparison against the ideal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..topology.base import SystemGraph
from ..utils import MappingError
from .assignment import Assignment, communication_matrix
from .clustered import ClusteredGraph
from .taskgraph import sweep_finish_times

__all__ = ["Schedule", "evaluate_assignment", "total_time"]


@dataclass(frozen=True)
class Schedule:
    """A complete schedule of a clustered graph under one assignment.

    Attributes
    ----------
    clustered, system, assignment:
        The inputs the schedule was computed from.
    comm:
        Task-pair communication matrix (the paper's ``comm[np][np]``).
    start, end:
        Start / end time per task (Fig. 23-d).
    total_time:
        Makespan (= ``max(end)``), the paper's single quality measure.
    """

    clustered: ClusteredGraph
    system: SystemGraph
    assignment: Assignment
    comm: np.ndarray
    start: np.ndarray
    end: np.ndarray
    total_time: int

    def latest_tasks(self) -> np.ndarray:
        """Tasks finishing at the makespan."""
        return np.flatnonzero(self.end == self.total_time)

    def processor_of(self, task: int) -> int:
        """Host processor of ``task`` under this schedule's assignment."""
        cluster = self.clustered.cluster_of(task)
        return self.assignment.system_of(cluster)

    def tasks_on(self, system_node: int) -> np.ndarray:
        """Tasks hosted on ``system_node``, ordered by start time."""
        cluster = self.assignment.cluster_on(system_node)
        members = self.clustered.clustering.members(cluster)
        return members[np.argsort(self.start[members], kind="stable")]

    def processor_busy_time(self) -> np.ndarray:
        """Sum of task sizes per processor (pure work, ignoring gaps)."""
        sizes = self.clustered.task_sizes
        labels = self.clustered.clustering.labels
        per_cluster = np.bincount(
            labels, weights=sizes, minlength=self.clustered.num_clusters
        )
        out = np.zeros(self.system.num_nodes, dtype=np.int64)
        out[self.assignment.placement] = per_cluster.astype(np.int64)
        return out

    def communication_volume(self) -> int:
        """Total hop-weighted communication (sum of ``comm``)."""
        return int(self.comm.sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule(total_time={self.total_time}, "
            f"system={self.system.name!r})"
        )


def evaluate_assignment(
    clustered: ClusteredGraph, system: SystemGraph, assignment: Assignment
) -> Schedule:
    """Run the paper's algorithms I-III of Sec. 4.3.4 and build a Schedule."""
    graph = clustered.graph
    comm = communication_matrix(clustered, system, assignment)
    n = graph.num_tasks
    sizes = graph.task_sizes

    start = np.zeros(n, dtype=np.int64)
    end = np.zeros(n, dtype=np.int64)
    for t in graph.topological_order.tolist():
        preds = graph.predecessors(t)
        s = 0
        if preds.size:
            s = int((end[preds] + comm[preds, t]).max())
        start[t] = s
        end[t] = s + sizes[t]

    comm.flags.writeable = False
    start.flags.writeable = False
    end.flags.writeable = False
    return Schedule(
        clustered=clustered,
        system=system,
        assignment=assignment,
        comm=comm,
        start=start,
        end=end,
        total_time=int(end.max()),
    )


def total_time(
    clustered: ClusteredGraph, system: SystemGraph, assignment: Assignment
) -> int:
    """Makespan only — the hot path of the refinement loop.

    Same recurrence as :func:`evaluate_assignment` (bit-identical result)
    but vectorized: tasks are processed level by level over the graph's
    cached :class:`~repro.core.taskgraph.SchedulePlan`, each level one
    gather plus a segmented max, and the O(np^2) communication matrix is
    never built — per-edge costs come straight from the clustered CSR
    weights and the topology distance matrix.
    """
    if clustered.num_clusters != system.num_nodes:
        raise MappingError(
            f"{clustered.num_clusters} clusters cannot map onto "
            f"{system.num_nodes} system nodes (na must equal ns)"
        )
    if assignment.size != system.num_nodes:
        raise MappingError(
            f"assignment covers {assignment.size} nodes, system has "
            f"{system.num_nodes}"
        )
    graph = clustered.graph
    plan = graph.schedule_plan()
    hosts = assignment.placement[clustered.clustering.labels]
    dist = system.shortest
    cost = clustered.plan_weights() * dist[hosts[plan.src], hosts[plan.dst]]
    end = sweep_finish_times(plan, graph.task_sizes, cost)
    return int(end.max())
