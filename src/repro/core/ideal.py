"""The ideal graph: schedule on the fully connected closure, lower bound.

Paper Sec. 2.1 (Fig. 6) and Sec. 4.1.  Mapping the clustered problem graph
onto the *system graph closure* (a complete graph, Fig. 5-b) makes every
inter-cluster communication cost exactly its clustered weight — there is a
unique, assignment-independent schedule:

    ``i_start[i] = max_j (i_end[j] + clus_edge[j][i])``  over predecessors j
    ``i_end[i]   = i_start[i] + task_size[i]``

Predecessors are the graph's in-edges (intra-cluster precedence
survives; the clustered weight is 0 for those).  The makespan of this
schedule is the paper's **lower bound** (Theorem 3): no assignment onto
the real topology can finish earlier, and any assignment matching it is
optimal — that is the refinement termination condition.

Both :func:`ideal_schedule` and :func:`lower_bound` compute ``i_end`` by
the one level sweep (:func:`~repro.core.taskgraph.sweep_finish_times`)
with the clustered weight as the edge cost; the scalar form of the
recurrence lives in the tests as the oracle.

The paper's *ideal edge matrix* ``i_edge[j][i] = i_start[i] - i_end[j]``
is kept as one entry per problem edge and feeds the critical-edge
analysis: an edge whose ``i_edge`` equals its clustered weight has no
slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustered import ClusteredGraph
from .taskgraph import sweep_finish_times

__all__ = ["IdealSchedule", "ideal_schedule", "lower_bound"]


@dataclass(frozen=True)
class IdealSchedule:
    """The assignment-independent schedule on the closure (Fig. 6).

    Attributes
    ----------
    clustered:
        The clustered graph the schedule was derived from.
    i_start, i_end:
        Start / end time per task (the paper's ``i_start`` / ``i_end``,
        Fig. 22-b).
    i_edge:
        ``i_start[i] - i_end[j]`` for every problem edge ``j -> i``, one
        entry per edge aligned with ``graph.in_edge_arrays()`` (the
        entries of the paper's Fig. 22-a matrix).
    total_time:
        Makespan = ``max(i_end)``; the **lower bound** of Theorem 3.
    """

    clustered: ClusteredGraph
    i_start: np.ndarray
    i_end: np.ndarray
    i_edge: np.ndarray
    total_time: int

    def latest_tasks(self) -> np.ndarray:
        """Tasks terminating last (the paper's *latest tasks*, Sec. 2.1)."""
        return np.flatnonzero(self.i_end == self.total_time)

    def slack(self, src: int, dst: int) -> int:
        """Slack of problem edge ``src -> dst``: its ``i_edge`` minus its
        clustered weight.

        A slack of zero is the *tightness* precondition of Theorems 1–2.
        """
        gap = int(self.i_start[dst] - self.i_end[src])
        return gap - self.clustered.comm_weight(src, dst)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IdealSchedule(tasks={self.i_start.size}, "
            f"total_time={self.total_time})"
        )


def ideal_schedule(clustered: ClusteredGraph) -> IdealSchedule:
    """Derive the ideal schedule (paper Sec. 4.1, algorithms I–III).

    The paper's algorithm I visits tasks whose predecessors are all done;
    the schedule plan groups them into exactly those waves, so algorithm
    II is one level sweep (:func:`_ideal_end`).
    """
    graph = clustered.graph
    i_end = _ideal_end(clustered)
    i_start = i_end - graph.task_sizes

    # Algorithm III: i_edge[j][i] = i_start[i] - i_end[j] on problem edges.
    srcs, dsts, _ = graph.in_edge_arrays()
    i_edge = i_start[dsts] - i_end[srcs]

    i_start.flags.writeable = False
    i_end.flags.writeable = False
    i_edge.flags.writeable = False
    return IdealSchedule(
        clustered=clustered,
        i_start=i_start,
        i_end=i_end,
        i_edge=i_edge,
        total_time=int(i_end.max()),
    )


def lower_bound(clustered: ClusteredGraph) -> int:
    """The paper's lower bound: the ideal-graph makespan (algorithm II).

    The same sweep as :func:`ideal_schedule` without the per-edge
    ``i_edge`` and the :class:`IdealSchedule` around it.
    """
    return int(_ideal_end(clustered).max())


def _ideal_end(clustered: ClusteredGraph) -> np.ndarray:
    """``i_end`` per task: the level sweep with clustered edge weights."""
    graph = clustered.graph
    plan = graph.schedule_plan()
    return sweep_finish_times(plan, graph.task_sizes, clustered.plan_weights())
