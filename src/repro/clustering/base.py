"""Clusterer protocol and shared helpers.

The paper assumes "an existing technique is first applied to produce a
clustering" (Sec. 1) and its experiments use a *random* clustering
program (Sec. 5).  This package provides that plus the era's standard
alternatives (refs [8]-[11] motivate them): round-robin, topological
bands, greedy load balancing, Sarkar-style edge zeroing, and linear
(critical-path) clustering — so the mapping stage can be studied under
clusterings of very different quality.

Every clusterer produces a :class:`~repro.core.clustered.Clustering`
with exactly ``num_clusters`` non-empty clusters.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..core.clustered import Clustering
from ..core.taskgraph import TaskGraph
from ..utils import GraphError

__all__ = ["Clusterer", "validate_request", "rebalance_empty_clusters"]


class Clusterer(ABC):
    """Base class: configure the target cluster count, then ``cluster()``.

    Parameters
    ----------
    num_clusters:
        Target number of clusters ``na``.  Must not exceed the task count
        of the graphs later passed to :meth:`cluster` (each cluster must
        receive at least one task).
    """

    def __init__(self, num_clusters: int) -> None:
        if num_clusters < 1:
            raise GraphError("num_clusters must be >= 1")
        self.num_clusters = num_clusters

    @abstractmethod
    def cluster(
        self, graph: TaskGraph, rng: int | np.random.Generator | None = None
    ) -> Clustering:
        """Partition ``graph``'s tasks into ``num_clusters`` groups."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_clusters={self.num_clusters})"


def validate_request(graph: TaskGraph, num_clusters: int) -> None:
    """Common precondition: at least one task per cluster."""
    if num_clusters > graph.num_tasks:
        raise GraphError(
            f"cannot split {graph.num_tasks} tasks into {num_clusters} "
            f"non-empty clusters"
        )


def rebalance_empty_clusters(
    labels: np.ndarray, num_clusters: int, graph: TaskGraph,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Repair a label vector so every cluster id in range is used.

    Steals one task from the largest cluster for each empty one (ties:
    lowest id; random with ``rng``).  Used by clusterers whose natural
    output may leave clusters empty (e.g. edge zeroing collapses hard).
    """
    labels = labels.copy()
    counts = np.bincount(labels, minlength=num_clusters)
    for empty in np.flatnonzero(counts == 0).tolist():
        donors = np.flatnonzero(counts == counts.max())
        donor = int(donors[0]) if rng is None else int(donors[rng.integers(donors.size)])
        members = np.flatnonzero(labels == donor)
        # Move the lightest task: perturbs the donor cluster least.
        victim = int(members[np.argmin(graph.task_sizes[members])])
        labels[victim] = empty
        counts[donor] -= 1
        counts[empty] += 1
    return labels
