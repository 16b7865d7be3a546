"""Linear (critical-path) clustering.

Kim & Browne-style linear clustering, the other classic the paper's
survey points at: repeatedly peel off the current *longest path* of the
remaining DAG (node + edge weights) and make it one cluster.  Linear
clusters never put two independent tasks together, so cluster-internal
execution is genuinely sequential — the clustering under which the
paper's no-serialization model is exact even on real machines.

The peeling naturally yields an unpredictable number of clusters, so the
driver stops opening new clusters when ``num_clusters - 1`` exist and
dumps the remainder into the last one, then rebalances if any target
cluster stayed empty.
"""

from __future__ import annotations

import numpy as np

from ..core.clustered import Clustering
from ..core.taskgraph import TaskGraph
from ..utils import as_rng
from .base import Clusterer, rebalance_empty_clusters, validate_request

__all__ = ["LinearClusterer"]


class LinearClusterer(Clusterer):
    """Longest-path peeling into exactly ``num_clusters`` clusters."""

    def cluster(
        self, graph: TaskGraph, rng: int | np.random.Generator | None = None
    ) -> Clustering:
        validate_request(graph, self.num_clusters)
        n, target = graph.num_tasks, self.num_clusters
        labels = np.full(n, -1, dtype=np.int64)
        remaining = np.ones(n, dtype=bool)
        topo = graph.topological_order.tolist()

        # The out-CSR and the task sizes, as lists read once per call.
        arrays = graph.out_indptr, graph.out_indices, graph.out_weights, graph.task_sizes
        csr = [array.tolist() for array in arrays]
        cluster_id = 0
        while remaining.any():
            if cluster_id == target - 1:
                labels[remaining] = cluster_id  # dump the tail
                break
            path = self._longest_path(remaining, topo, *csr)
            labels[path] = cluster_id
            remaining[path] = False
            cluster_id += 1

        gen = as_rng(rng) if rng is not None else None
        labels = rebalance_empty_clusters(labels, target, graph, gen)
        return Clustering(labels, num_clusters=target)

    @staticmethod
    def _longest_path(
        remaining: np.ndarray, topo: list[int], ptr: list[int], succ: list[int],
        weight: list[int], size: list[int],
    ) -> list[int]:
        """Longest (node+edge weight) path within the remaining subgraph,
        over the out-CSR ``ptr``/``succ``/``weight`` and the task sizes."""
        live = remaining.tolist()
        lowest = np.iinfo(np.int64).min
        dist, parent = [lowest] * len(live), [-1] * len(live)
        for t in topo:
            if not live[t]:
                continue
            if dist[t] == lowest:
                dist[t] = size[t]
            for i in range(ptr[t], ptr[t + 1]):
                s = succ[i]
                cand = dist[t] + weight[i] + size[s]
                if live[s] and cand > dist[s]:
                    dist[s] = cand
                    parent[s] = t
        end = int(np.argmax(np.where(remaining, dist, lowest)))
        path = [end]
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
        return path[::-1]
