"""Reconstructions of the paper's concrete example instances.

The scanned source garbles several figure matrices, so these are
*reconstructions*: instances engineered to satisfy every fact the paper's
prose and legible figure fragments state.  The running example
reproduces, exactly:

* task weights ``(1,1,2,3,3,1,3,2,2,3,1)`` and the full ideal start/end
  time vectors of Fig. 22-b (``i_start = 0,2,3,1,6,7,7,7,12,10,13``,
  ``i_end = 1,3,5,4,9,8,10,9,14,13,14`` — 1-based task order),
* lower bound 14 with latest tasks {9, 11},
* tasks 1 and 4 sharing a cluster (Sec. 4.1's worked derivation),
* problem edge weights the text quotes: (1,2)=1, (1,3)=2, (1,4)=2,
  (5,9)=1 with slack 2, (6,11)=1, and the critical edge (7,9)=2,
* the critical abstract edge matrix of Fig. 20-b: edges (0,1) weight 3
  and (0,2) weight 6, critical degree 9 for abstract node 0,
* ``mca[1] = 11`` (Fig. 20-c reads ``mca = [13, 11, 13, 3]``; the
  reconstruction gives ``[14, 11, 16, 7]`` — the ideal schedule and the
  critical structure pin the instance down, ``mca`` does not, and only
  entry 1 could be matched simultaneously),
* the 4-node ring system graph of Fig. 5-a / Fig. 21 (degrees all 2,
  shortest-path row (0,1,2,1)),
* the assignment of Fig. 23 (``assi = [0, 1, 3, 2]``) achieving total
  time 14 — i.e. hitting the lower bound, so the mapping is optimal and
  refinement terminates immediately (Fig. 24 and Sec. 4.3.4's closing
  remark).

The Sec. 2.2 counterexample instances (Figs. 7-17) are reconstructed to
*exhibit the phenomena* — a cardinality-optimal assignment that is not
time-optimal, and a (Lee) communication-cost-optimal assignment that is
not time-optimal — which the experiments verify by exhaustive search
rather than by trusting unreadable digits.
"""

from __future__ import annotations

import numpy as np

from ..core.clustered import ClusteredGraph, Clustering
from ..core.taskgraph import TaskGraph
from ..topology.base import SystemGraph
from ..topology.generators import hypercube, ring

__all__ = [
    "running_example_task_graph",
    "running_example_clustering",
    "running_example_clustered",
    "running_example_system",
    "running_example_assignment_vector",
    "RUNNING_EXAMPLE_LOWER_BOUND",
    "RUNNING_EXAMPLE_I_START",
    "RUNNING_EXAMPLE_I_END",
    "bokhari_counterexample_task_graph",
    "bokhari_counterexample_system",
    "lee_counterexample_task_graph",
    "lee_counterexample_phases",
    "lee_counterexample_system",
    "singleton_clustering",
]

#: Lower bound (ideal makespan) of the running example — paper Fig. 6/22-b.
RUNNING_EXAMPLE_LOWER_BOUND = 14

#: Ideal start times, 0-based task order (paper Fig. 22-b, 1-based there).
RUNNING_EXAMPLE_I_START = (0, 2, 3, 1, 6, 7, 7, 7, 12, 10, 13)

#: Ideal end times, 0-based task order (paper Fig. 22-b).
RUNNING_EXAMPLE_I_END = (1, 3, 5, 4, 9, 8, 10, 9, 14, 13, 14)


def running_example_task_graph() -> TaskGraph:
    """The 11-task problem graph of Fig. 2 (reconstruction).

    Edges are written 1-based as in the paper, converted to 0-based ids.
    """
    sizes = [1, 1, 2, 3, 3, 1, 3, 2, 2, 3, 1]
    edges_1based = [
        (1, 2, 1),
        (1, 3, 2),
        (1, 4, 2),   # intra-cluster in Fig. 3 (tasks 1 and 4 share cluster 0)
        (2, 5, 1),
        (2, 6, 2),
        (2, 8, 4),
        (3, 6, 1),
        (3, 7, 2),
        (3, 8, 2),
        (4, 5, 2),
        (4, 6, 3),
        (4, 7, 2),
        (5, 9, 1),   # slack 2 in the ideal graph, exactly as Sec. 2.1 argues
        (5, 10, 1),
        (6, 9, 2),
        (6, 11, 1),  # quoted in Sec. 2.1's discussion of stretched edges
        (7, 9, 2),   # THE critical edge e79 of Sec. 2.1
        (7, 10, 2),
        (8, 9, 1),
        (10, 11, 1),
    ]
    edges = [(u - 1, v - 1, w) for u, v, w in edges_1based]
    return TaskGraph(sizes, edges, name="paper-fig2")


def running_example_clustering() -> Clustering:
    """The 4-cluster partition of Fig. 3/19-b (reconstruction).

    Cluster 0 = {1, 4, 7, 10, 11}, 1 = {2, 5}, 2 = {3, 6, 9}, 3 = {8}
    (1-based task ids).
    """
    groups_1based = [[1, 4, 7, 10, 11], [2, 5], [3, 6, 9], [8]]
    groups = [[t - 1 for t in g] for g in groups_1based]
    return Clustering.from_groups(groups, num_tasks=11)


def running_example_clustered() -> ClusteredGraph:
    """Fig. 3's clustered problem graph, ready for the mapping pipeline."""
    return ClusteredGraph(running_example_task_graph(), running_example_clustering())


def running_example_system() -> SystemGraph:
    """The 4-node ring of Fig. 5-a (adjacency matrix of Fig. 21-a)."""
    g = ring(4)
    g.name = "paper-fig5a"
    return g


def running_example_assignment_vector() -> np.ndarray:
    """The paper's Fig. 23-b assignment: ``assi = [0, 1, 3, 2]``.

    (System node -> abstract node; achieves the lower bound of 14.)
    """
    return np.asarray([0, 1, 3, 2], dtype=np.int64)


# ----------------------------------------------------------------------
# Sec. 2.2 counterexamples
# ----------------------------------------------------------------------

def bokhari_counterexample_task_graph() -> TaskGraph:
    """An 8-task DAG in the mould of Fig. 7 (reconstruction).

    Nine edges; task 3 (1-based) has undirected degree 4, so — exactly as
    the paper argues — on the degree-3 system graph at least one of its
    edges must span two system edges.  The structure makes the phenomenon
    *provable*, not accidental:

    * the underlying undirected graph contains two odd cycles, the
      triangle {3,4,5} and the 5-cycle {3,5,7,2,6}; the 3-cube is
      bipartite, so any assignment of cardinality 8 (a single non-adjacent
      edge) must stretch an edge lying on *both* cycles — and their only
      common edge is (3,5);
    * (3,5) carries weight 7 with zero slack in the ideal schedule, so
      every cardinality-optimal assignment pays +7 on the makespan;
    * the slack-rich edges (3,6), (4,5), (2,6) and (2,7) can be stretched
      for free, so a cardinality-7 assignment reaches the lower bound.

    Experiment E4 certifies all of this by exhaustive search over the
    8! assignments.
    """
    sizes = [1, 6, 3, 2, 3, 2, 3, 3]
    edges_1based = [
        (1, 3, 2),
        (2, 6, 3),
        (2, 7, 2),
        (3, 4, 3),
        (3, 5, 7),  # the critical edge all cardinality-8 assignments stretch
        (3, 6, 1),
        (4, 5, 1),
        (4, 8, 3),
        (5, 7, 3),
    ]
    edges = [(u - 1, v - 1, w) for u, v, w in edges_1based]
    return TaskGraph(sizes, edges, name="paper-fig7")


def bokhari_counterexample_system() -> SystemGraph:
    """The 8-node, degree-3 system graph of Fig. 8 (a 3-cube)."""
    g = hypercube(3)
    g.name = "paper-fig8"
    return g


def lee_counterexample_task_graph() -> TaskGraph:
    """The 8-task DAG of Fig. 13 (reconstruction).

    Edge weights recovered from the phase tables of Figs. 15/17 (cost =
    weight x hop count, so weights are identifiable from the two
    assignments): (1,3)=3, (2,3)=3, (2,7)=2, (3,4)=4, (3,5)=2, (4,6)=1,
    (5,8)=3.  Task sizes are chosen so the phenomenon is structural:
    task 3 has degree 4, so one of its edges must stretch; the minimum
    phase cost (11, matching the paper's Fig. 15) is achievable only by
    stretching (3,5), which sits on the zero-slack chain 3 -> 5 -> 8 and
    costs +2 on the makespan, while stretching (1,3) instead is free
    (task 2 is the late predecessor of task 3) but raises the phase cost.
    """
    sizes = [1, 4, 3, 3, 3, 2, 2, 4]
    edges_1based = [
        (1, 3, 3),
        (2, 3, 3),
        (2, 7, 2),
        (3, 4, 4),
        (3, 5, 2),
        (4, 6, 1),
        (5, 8, 3),
    ]
    edges = [(u - 1, v - 1, w) for u, v, w in edges_1based]
    return TaskGraph(sizes, edges, name="paper-fig13")


def lee_counterexample_phases() -> list[list[tuple[int, int]]]:
    """The paper's four communication phases for Fig. 13 (0-based edges).

    Phase 1: (1,3), (2,3), (2,7); phase 2: (3,4), (3,5); phase 3: (4,6);
    phase 4: (5,8) — as tabulated in Fig. 15.
    """
    phases_1based = [
        [(1, 3), (2, 3), (2, 7)],
        [(3, 4), (3, 5)],
        [(4, 6)],
        [(5, 8)],
    ]
    return [[(u - 1, v - 1) for u, v in phase] for phase in phases_1based]


def lee_counterexample_system() -> SystemGraph:
    """Same machine as the Bokhari example (Fig. 8's degree-3 graph)."""
    return bokhari_counterexample_system()


def singleton_clustering(graph: TaskGraph) -> Clustering:
    """Each task in its own cluster (``np == na``), as in both Sec. 2.2
    examples where the clustered problem graph equals the problem graph."""
    return Clustering(np.arange(graph.num_tasks), num_clusters=graph.num_tasks)
