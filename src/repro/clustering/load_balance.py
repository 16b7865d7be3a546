"""Greedy load-balancing clusterer (LPT-style with affinity bonus).

Tasks are taken in order of decreasing size (the classic longest-
processing-time heuristic) and each goes to the cluster where it fits
"best": the least-loaded cluster, with ties and near-ties broken toward
the cluster holding the most communication partners — so the clusterer
balances work like LPT while recovering some locality like list
clustering (refs [9] of the paper survey exactly this family).
"""

from __future__ import annotations

import numpy as np

from ..core.clustered import Clustering
from ..core.taskgraph import TaskGraph
from .base import Clusterer, validate_request

__all__ = ["LoadBalanceClusterer"]


class LoadBalanceClusterer(Clusterer):
    """LPT load balancing with a communication-affinity tie-break.

    Parameters
    ----------
    num_clusters:
        Target cluster count.
    affinity_weight:
        How many units of load imbalance one unit of co-located
        communication weight is worth (0 = pure LPT).
    """

    def __init__(self, num_clusters: int, affinity_weight: float = 0.5) -> None:
        super().__init__(num_clusters)
        if affinity_weight < 0:
            raise ValueError("affinity_weight must be >= 0")
        self.affinity_weight = affinity_weight

    def cluster(
        self, graph: TaskGraph, rng: int | np.random.Generator | None = None
    ) -> Clustering:
        validate_request(graph, self.num_clusters)
        n, k = graph.num_tasks, self.num_clusters
        sizes = graph.task_sizes
        out_ptr, out_dst, out_w = graph.out_indptr, graph.out_indices, graph.out_weights
        in_ptr, in_src, in_w = graph.in_indptr, graph.in_indices, graph.in_weights

        order = np.argsort(-sizes, kind="stable")
        labels = np.full(n, -1, dtype=np.int64)
        load = np.zeros(k, dtype=np.float64)

        # Seed the k largest tasks on distinct clusters so none stays empty.
        for c, t in enumerate(order[:k].tolist()):
            labels[t] = c
            load[c] += sizes[t]

        for t in order[k:].tolist():
            out_lo, out_hi = out_ptr[t], out_ptr[t + 1]
            in_lo, in_hi = in_ptr[t], in_ptr[t + 1]
            partners = np.concatenate((out_dst[out_lo:out_hi], in_src[in_lo:in_hi]))
            weights = np.concatenate((out_w[out_lo:out_hi], in_w[in_lo:in_hi]))
            placed = labels[partners] >= 0
            affinity = np.bincount(
                labels[partners[placed]], weights=weights[placed], minlength=k
            )
            score = load - self.affinity_weight * affinity
            c = int(np.argmin(score))
            labels[t] = c
            load[c] += sizes[t]
        return Clustering(labels, num_clusters=k)
