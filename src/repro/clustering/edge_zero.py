"""Sarkar-style edge-zeroing clustering.

The classic internalization heuristic (Sarkar 1989; the paper's refs
[8]/[10] build on the same idea): visit edges in order of decreasing
weight and merge the two endpoint clusters ("zero the edge") whenever
doing so does not increase the critical-path estimate of the clustered
graph — communication on internal edges costs nothing, so heavy edges
want to be internal unless merging serializes too much work.

Because the mapping stage needs *exactly* ``num_clusters`` clusters, the
zeroing pass stops dissolving at the target and, if the zero-improvement
condition leaves more clusters than requested, hands the rest to
:func:`~repro.clustering.base.merge_to_target`, the least-regression
merge it shares with DSC.  Its candidates are the cut cluster pairs in
heaviest-edge order, each pair at its first edge, oriented ``(src
cluster, dst cluster)``; the raw cluster ids are kept until then, so the
no-candidate fallback merges the two smallest surviving ids.
"""

from __future__ import annotations

import numpy as np

from ..core.clustered import Clustering
from ..core.taskgraph import TaskGraph
from .base import Clusterer, merge_to_target, merged_bounds, validate_request

__all__ = ["EdgeZeroClusterer"]


class EdgeZeroClusterer(Clusterer):
    """Edge zeroing down to exactly ``num_clusters`` clusters.

    The quality estimate for a candidate partition is the ideal-graph
    makespan (the same lower-bound machinery the mapper uses), which for
    a clustering equals Sarkar's "parallel time with zeroed edges"
    measure under the paper's execution model.
    """

    def cluster(
        self, graph: TaskGraph, rng: int | np.random.Generator | None = None
    ) -> Clustering:
        validate_request(graph, self.num_clusters)
        n, target = graph.num_tasks, self.num_clusters
        srcs, dsts, weights = graph.edge_arrays()
        # Heaviest first, ties by (src, dst): the edges' own order.
        heavy = np.argsort(-weights, kind="stable")
        srcs, dsts = srcs[heavy], dsts[heavy]

        # Pass 1: Sarkar's rule — zero heavy edges while the estimate does
        # not regress and the cluster count stays above the target.
        labels = np.arange(n, dtype=np.int64)  # singleton clusters
        # The singletons' bound: every edge is cut, so it is the critical path.
        current_cost, k = graph.critical_path_length(), n
        for s, d in zip(srcs.tolist(), dsts.tolist()):
            if k <= target:
                break
            a, b = labels[[s, d]]
            if a == b:
                continue
            cost = int(merged_bounds(graph, labels, a[None], b[None])[0])
            if cost <= current_cost:
                labels[labels == b] = a
                current_cost, k = cost, k - 1

        # Pass 2: force the target count with least-regression merges.
        def heavy_cut_pairs(lbl: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            a, b = lbl[srcs], lbl[dsts]
            cut = a != b
            a, b = a[cut], b[cut]
            pair = np.minimum(a, b) * n + np.maximum(a, b)
            first = np.sort(np.unique(pair, return_index=True)[1])
            return a[first], b[first]

        labels = merge_to_target(graph, labels, target, heavy_cut_pairs)
        return Clustering(labels, num_clusters=target)
