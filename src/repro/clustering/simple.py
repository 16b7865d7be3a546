"""Simple clusterers: random (the paper's), round-robin, block, bands.

:class:`RandomClusterer` is what Sec. 5's experiments use ("a random
clustering program was developed"); it assigns tasks to clusters
uniformly at random, then repairs empties so every processor receives
work.  The others are cheap deterministic baselines.
"""

from __future__ import annotations

import numpy as np

from ..core.clustered import Clustering
from ..core.taskgraph import TaskGraph
from ..utils import as_rng
from .base import Clusterer, rebalance_empty_clusters, validate_request

__all__ = ["RandomClusterer", "RoundRobinClusterer", "BlockClusterer", "BandClusterer"]


class RandomClusterer(Clusterer):
    """Uniformly random cluster per task (the paper's experimental setup).

    Guaranteed non-empty: after the uniform draw, empty clusters steal
    the lightest task from the largest cluster.
    """

    def cluster(
        self, graph: TaskGraph, rng: int | np.random.Generator | None = None
    ) -> Clustering:
        validate_request(graph, self.num_clusters)
        gen = as_rng(rng)
        labels = gen.integers(0, self.num_clusters, size=graph.num_tasks)
        labels = rebalance_empty_clusters(
            labels.astype(np.int64), self.num_clusters, graph, gen
        )
        return Clustering(labels, num_clusters=self.num_clusters)


class RoundRobinClusterer(Clusterer):
    """Task ``t`` goes to cluster ``t mod na`` — ignores all structure.

    A deliberately structure-blind baseline: consecutive (usually
    dependent) tasks land on *different* clusters, maximizing cut.
    """

    def cluster(
        self, graph: TaskGraph, rng: int | np.random.Generator | None = None
    ) -> Clustering:
        validate_request(graph, self.num_clusters)
        labels = np.arange(graph.num_tasks) % self.num_clusters
        return Clustering(labels, num_clusters=self.num_clusters)


class BlockClusterer(Clusterer):
    """Contiguous blocks of task ids — the opposite bias to round-robin.

    When task ids follow generation order (layered generators emit
    breadth-first), blocks keep neighborhoods together.
    """

    def cluster(
        self, graph: TaskGraph, rng: int | np.random.Generator | None = None
    ) -> Clustering:
        validate_request(graph, self.num_clusters)
        n, k = graph.num_tasks, self.num_clusters
        # Split 0..n-1 into k blocks whose sizes differ by at most one.
        bounds = np.linspace(0, n, k + 1).astype(np.int64)
        labels = np.empty(n, dtype=np.int64)
        for c in range(k):
            labels[bounds[c] : bounds[c + 1]] = c
        return Clustering(labels, num_clusters=k)


class BandClusterer(Clusterer):
    """Topological bands: tasks at similar depth share a cluster.

    Depth = longest predecessor chain length.  Bands slice the DAG
    horizontally, so *every* dependence crosses clusters — a stress test
    for the mapping stage (maximal communication exposure with balanced
    per-band parallelism).
    """

    def cluster(
        self, graph: TaskGraph, rng: int | np.random.Generator | None = None
    ) -> Clustering:
        validate_request(graph, self.num_clusters)
        n, k = graph.num_tasks, self.num_clusters
        depth = graph.schedule_plan().depth()
        # Rank by (depth, id) and cut into k nearly equal bands; ranking
        # instead of raw depth keeps clusters non-empty even when the DAG
        # has fewer distinct depths than clusters.
        order = np.lexsort((np.arange(n), depth))
        bounds = np.linspace(0, n, k + 1).astype(np.int64)
        labels = np.empty(n, dtype=np.int64)
        for c in range(k):
            labels[order[bounds[c] : bounds[c + 1]]] = c
        return Clustering(labels, num_clusters=k)
