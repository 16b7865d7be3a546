"""Dominant Sequence Clustering (DSC), Gerasoulis & Yang.

Reference [8] of the paper ("Clustering Task Graphs for Message Passing
Architectures") is the lineage that produced DSC: walk the tasks in a
priority order driven by the *dominant sequence* (the critical path of
the partially scheduled graph) and merge a task into the cluster of the
predecessor that minimizes its start time — zeroing that incoming edge —
whenever doing so does not delay the task.

This implementation follows the classic simplified DSC loop:

1. Compute ``blevel`` (longest path to an exit, inclusive) on the
   unclustered graph with the one level sweep, run over the reversed
   DAG (:meth:`~repro.core.taskgraph.TaskGraph.bottom_levels`); priority
   of a free task = ``tlevel + blevel``.
2. Repeatedly take the highest-priority free task (all predecessors
   examined; ties to the lowest id) from a heap that a task enters
   when its last predecessor is examined; try placing it in the cluster
   of each predecessor (zeroing that edge) and keep the choice
   minimizing its start time; a fresh singleton cluster is the fallback.
3. A free task's ``tlevel`` is taken as 0 when it is ranked, so its
   priority is its ``blevel``: the heap is keyed on ``(-blevel, id)``
   and the examination order is fixed by the bottom levels.  (Classic
   DSC raises the ``tlevel`` of successors as their predecessors are
   examined; this loop does not.)

DSC leaves the cluster count data-driven, so the driver then hands its
clusters, numbered by first appearance, to
:func:`~repro.clustering.base.merge_to_target`, the least-regression
merge it shares with the edge-zeroing clusterer.  DSC's candidates are
every cut cluster pair ``(lo, hi)``, in sorted order; a merge keeps the
lower id, so the ids stay in first-appearance order from round to round.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..core.clustered import Clustering
from ..core.taskgraph import TaskGraph
from .base import Clusterer, first_appearance, merge_to_target, validate_request

__all__ = ["DscClusterer"]


class DscClusterer(Clusterer):
    """Dominant Sequence Clustering down to exactly ``num_clusters``."""

    def cluster(
        self, graph: TaskGraph, rng: int | np.random.Generator | None = None
    ) -> Clustering:
        validate_request(graph, self.num_clusters)
        n = graph.num_tasks
        srcs, dsts, _ = graph.edge_arrays()

        def cut_pairs(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            a, b = labels[srcs], labels[dsts]
            cut = a != b
            pairs = np.unique(np.minimum(a, b)[cut] * n + np.maximum(a, b)[cut])
            return pairs // n, pairs % n

        labels = first_appearance(self._dsc_pass(graph))
        labels = merge_to_target(graph, labels, self.num_clusters, cut_pairs)
        return Clustering(labels, num_clusters=self.num_clusters)

    # ------------------------------------------------------------------
    @staticmethod
    def _dsc_pass(graph: TaskGraph) -> np.ndarray:
        n = graph.num_tasks
        sizes = graph.task_sizes.tolist()
        in_ptr = graph.in_indptr.tolist()
        in_src, in_w = graph.in_indices.tolist(), graph.in_weights.tolist()
        out_ptr, out_dst = graph.out_indptr.tolist(), graph.out_indices.tolist()

        # blevel: longest path (nodes + edges) from each task to an exit.
        blevel = graph.bottom_levels(graph.out_weights).tolist()

        labels = list(range(n))  # singleton start
        # cluster_end[c]: finish time of the last task placed in cluster c
        # (DSC clusters are linear chains, so one running end per cluster).
        cluster_end: dict[int, int] = {}
        end = [0] * n
        # waiting[t]: predecessors of t not yet examined; 0 means free.
        waiting = [in_ptr[t + 1] - in_ptr[t] for t in range(n)]
        free = [(-blevel[t], t) for t in range(n) if not waiting[t]]
        heapq.heapify(free)
        while free:
            _, t = heapq.heappop(free)
            preds = in_src[in_ptr[t] : in_ptr[t + 1]]
            weights = in_w[in_ptr[t] : in_ptr[t + 1]]  # aligned with preds
            arrive = [end[p] + w for p, w in zip(preds, weights)]
            # Default: stay a singleton; start = max over preds with comm.
            best_start, best_cluster = max(arrive, default=0), t
            for i, p in enumerate(preds):
                # Zero the edge (p, t): t joins p's cluster and runs after
                # the cluster's last task; the other preds still pay.
                c = labels[p]
                start = max([cluster_end[c], *arrive[:i], *arrive[i + 1 :]])
                if start < best_start:
                    best_start, best_cluster = start, c
            labels[t] = best_cluster
            end[t] = cluster_end[best_cluster] = best_start + sizes[t]
            for s in out_dst[out_ptr[t] : out_ptr[t + 1]]:
                waiting[s] -= 1
                if not waiting[s]:
                    heapq.heappush(free, (-blevel[s], s))
        return np.asarray(labels, dtype=np.int64)
