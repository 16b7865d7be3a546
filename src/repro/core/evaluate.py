"""Total-time evaluation of an assignment (paper Sec. 4.3.4).

Identical recurrence to the ideal schedule, but communication costs come
from the assignment-dependent ``comm`` costs instead of the clustered
weights:

    ``start[i] = max_j (end[j] + comm[j][i])``  over problem-graph preds j
    ``end[i]   = start[i] + task_size[i]``
    ``total_time = max_i end[i]``

The model is the paper's: store-and-forward shortest-path communication,
no link contention, and no serialization of independent tasks sharing a
processor (the discrete-event simulator in :mod:`repro.sim` offers
higher-fidelity variants).

``comm`` holds one cost per edge (:func:`communication_costs`).
:func:`evaluate_assignment` and :func:`total_time` run the same level
sweep (:func:`~repro.core.taskgraph.sweep_finish_times`) over it; the
independent checks are
:func:`~repro.core.validate.verify_schedule` and the scalar recurrence
the tests keep as their oracle.

The returned :class:`Schedule` carries everything downstream consumers
need (Gantt rendering, per-task slack, comparison against the ideal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..topology.base import SystemGraph
from ..utils import MappingError
from .assignment import Assignment
from .clustered import ClusteredGraph
from .taskgraph import sweep_finish_times

__all__ = ["Schedule", "communication_costs", "evaluate_assignment", "total_time"]


@dataclass(frozen=True)
class Schedule:
    """A complete schedule of a clustered graph under one assignment.

    Attributes
    ----------
    clustered, system, assignment:
        The inputs the schedule was computed from.
    comm:
        Communication cost per problem edge, aligned with
        ``graph.in_edge_arrays()`` (the entries of the paper's
        ``comm[np][np]``, Fig. 23-c; see :func:`communication_costs`).
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
        """Total hop-weighted communication (sum of the ``comm`` costs)."""
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
    comm = communication_costs(clustered, system, assignment)
    end = _finish_times(clustered, comm)
    start = end - clustered.graph.task_sizes

    for arr in (comm, start, end):
        arr.flags.writeable = False
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
    """Makespan only: the sweep of :func:`evaluate_assignment` without the
    :class:`Schedule` around it."""
    comm = communication_costs(clustered, system, assignment)
    return int(_finish_times(clustered, comm).max())


def communication_costs(
    clustered: ClusteredGraph, system: SystemGraph, assignment: Assignment
) -> np.ndarray:
    """The paper's ``comm`` (Sec. 4.3.4 algorithm I, Fig. 23-c), one cost
    per edge aligned with ``graph.in_edge_arrays()``.

    Each inter-cluster message pays its clustered weight once per hop of
    the shortest path between the host processors (store-and-forward,
    contention-free); an intra-cluster edge costs 0 because its
    clustered weight is 0.
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
    hosts = assignment.placement[clustered.clustering.labels]
    srcs, dsts, _ = clustered.graph.in_edge_arrays()
    return clustered.cross_in_weights * system.shortest[hosts[srcs], hosts[dsts]]


def _finish_times(clustered: ClusteredGraph, comm: np.ndarray) -> np.ndarray:
    """End time per task: one level sweep over the cached
    :class:`~repro.core.taskgraph.SchedulePlan`, each level one gather
    plus a segmented max, with the per-edge ``comm`` costs in plan order."""
    graph = clustered.graph
    plan = graph.schedule_plan()
    return sweep_finish_times(plan, graph.task_sizes, comm[plan.eperm])
