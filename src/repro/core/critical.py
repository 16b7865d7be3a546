"""Critical problem edges, critical abstract edges, critical degrees.

Paper Sec. 2.1 (definitions 2-5) and Sec. 4.2 (Theorems 1-2 and the three
algorithms).  An ideal edge is *critical* when increasing the weight of
the corresponding clustered problem edge by any amount would lengthen the
ideal makespan.  Theorems 1-2 turn this into a backward reachability
computation:

* start from the *latest tasks* (max ``i_end``),
* an edge ``j -> i`` into a marked task is critical iff it is **tight**
  (``i_edge[j][i] == clus_edge[j][i]``, i.e. zero slack),
* the tail of a critical edge becomes marked, and the search recurses.

Interpretation note: the paper's algorithm step 2(a) finds predecessors
"in the matrix clus_edge", which read literally skips intra-cluster
edges (their ``clus_edge`` entry is 0).
But a tight intra-cluster edge transfers delay exactly like a tight
inter-cluster one (Lemma 1 applies with ``clus_edge == i_edge == 0``), so
skipping them would fail to mark upstream inter-cluster edges whose delay
provably reaches the latest task *through* a cluster.  We therefore
propagate through every tight problem edge by default and expose
``propagate_through_intra=False`` for the literal reading.  Intra-cluster
edges never contribute weight to critical *abstract* edges either way
(both endpoints share a cluster).

Critical abstract edge weights are the sums of critical problem edge
weights between cluster pairs (algorithm II); critical degrees are row
sums (algorithm III, the last column of ``c_abs_edge`` in Fig. 20-b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abstract import AbstractGraph
from .clustered import ClusteredGraph
from .ideal import IdealSchedule, ideal_schedule

__all__ = ["CriticalityAnalysis", "analyze_criticality"]


@dataclass(frozen=True)
class CriticalityAnalysis:
    """All criticality artifacts for one clustered graph.

    Attributes
    ----------
    ideal:
        The ideal schedule the analysis is based on.
    crit_edge:
        ``crit_edge[j, i] = clus_edge[j, i]`` for every critical problem
        edge ``j -> i``, else 0 (the paper's ``crit_edge[np][np]``,
        Fig. 22-c).  Note a critical *intra*-cluster edge stores weight 0,
        matching its clustered weight.
    crit_mask:
        Boolean matrix marking critical problem edges (including tight
        intra-cluster edges when propagation crossed them).  This
        disambiguates "critical with weight 0" from "not critical".
    c_abs_edge:
        Critical abstract edge weights, symmetric ``na x na`` (Fig. 20-b
        without its trailing degree column).
    critical_degree:
        Per-abstract-node sum of incident critical abstract weights (the
        trailing column of the paper's ``c_abs_edge[na][na+1]``).
    on_critical_path:
        Boolean per task: reachable backward from a latest task through
        critical edges (or itself latest).
    """

    ideal: IdealSchedule
    crit_edge: np.ndarray
    crit_mask: np.ndarray
    c_abs_edge: np.ndarray
    critical_degree: np.ndarray
    on_critical_path: np.ndarray

    def critical_problem_edges(self) -> list[tuple[int, int]]:
        """Sorted ``(src, dst)`` pairs of critical problem edges."""
        srcs, dsts = np.nonzero(self.crit_mask)
        return sorted(zip(srcs.tolist(), dsts.tolist()))

    def critical_abstract_edges(self) -> list[tuple[int, int]]:
        """Sorted ``(a, b)`` with ``a < b`` of critical abstract edges."""
        sym = np.triu(self.c_abs_edge, 1)
        srcs, dsts = np.nonzero(sym)
        return sorted(zip(srcs.tolist(), dsts.tolist()))

    def clusters_with_critical_edges(self) -> np.ndarray:
        """Abstract nodes incident to at least one critical abstract edge."""
        return np.flatnonzero(self.critical_degree > 0)

    def is_abstract_edge_critical(self, a: int, b: int) -> bool:
        return bool(self.c_abs_edge[a, b] > 0)


def analyze_criticality(
    clustered: ClusteredGraph,
    ideal: IdealSchedule | None = None,
    *,
    propagate_through_intra: bool = True,
) -> CriticalityAnalysis:
    """Compute critical problem/abstract edges and critical degrees.

    Parameters
    ----------
    clustered:
        The clustered problem graph.
    ideal:
        Pre-computed ideal schedule (derived if omitted).
    propagate_through_intra:
        When True (default), criticality propagates backward through tight
        intra-cluster edges as well; see the module docstring.
    """
    if ideal is None:
        ideal = ideal_schedule(clustered)
    graph = clustered.graph
    n = graph.num_tasks
    clus = clustered.clus_edge
    labels = clustered.clustering.labels
    na = clustered.num_clusters

    crit_mask = np.zeros((n, n), dtype=bool)
    on_path = np.zeros(n, dtype=bool)

    # Backward sweep from the latest tasks (paper algorithm I, Sec. 4.2).
    frontier = ideal.latest_tasks().tolist()
    on_path[frontier] = True
    while frontier:
        v = frontier.pop()
        for u in graph.predecessors(v).tolist():
            tight = ideal.i_edge[u, v] == clus[u, v]
            if not tight:
                continue
            intra = labels[u] == labels[v]
            if intra and not propagate_through_intra:
                continue
            if not crit_mask[u, v]:
                crit_mask[u, v] = True
                if not on_path[u]:
                    on_path[u] = True
                    frontier.append(u)

    crit_edge = np.where(crit_mask, clus, 0).astype(np.int64)

    # Algorithm II: lift to critical abstract edges (inter-cluster only,
    # which holds automatically since intra entries of crit_edge are 0 —
    # but we also guard on the labels for clarity).
    c_abs = np.zeros((na, na), dtype=np.int64)
    srcs, dsts = np.nonzero(crit_mask)
    for s, d in zip(srcs.tolist(), dsts.tolist()):
        a, b = int(labels[s]), int(labels[d])
        if a == b:
            continue
        w = int(clus[s, d])
        c_abs[a, b] += w
        c_abs[b, a] += w

    # Algorithm III: critical degrees (row sums).
    degree = c_abs.sum(axis=1).astype(np.int64)

    for arr in (crit_edge, crit_mask, c_abs, degree, on_path):
        arr.flags.writeable = False
    return CriticalityAnalysis(
        ideal=ideal,
        crit_edge=crit_edge,
        crit_mask=crit_mask,
        c_abs_edge=c_abs,
        critical_degree=degree,
        on_critical_path=on_path,
    )
