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
from collections.abc import Callable

import numpy as np

from ..core.clustered import Clustering
from ..core.incremental import _BATCH_BYTES
from ..core.taskgraph import TaskGraph, sweep_finish_times
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
    output may leave clusters empty: ``random`` and ``linear``.
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


def first_appearance(labels: np.ndarray) -> np.ndarray:
    """Renumber cluster ids to ``0..k-1`` in order of first appearance."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def merged_bounds(
    graph: TaskGraph, labels: np.ndarray, keep: np.ndarray, absorb: np.ndarray
) -> np.ndarray:
    """Lower bound of each clustering that merges ``absorb[i]`` into ``keep[i]``.

    The bound is :func:`~repro.core.ideal.lower_bound`'s ideal-graph
    makespan: an edge costs its weight while its ends stay in different
    clusters.  A merge keeps the schedule plan and only zeroes the edges
    between the pair, so every candidate is one row of a batched
    :func:`~repro.core.taskgraph.sweep_finish_times`, swept in chunks of
    rows whose edge costs fit in ``_BATCH_BYTES``.
    """
    plan = graph.schedule_plan()
    src, dst = labels[plan.src][:, None], labels[plan.dst][:, None]
    cost = np.where(src != dst, graph.in_weights[plan.eperm][:, None], 0)
    rows = max(1, _BATCH_BYTES // (8 * max(1, cost.size)))
    out = np.empty(len(keep), dtype=np.int64)
    for lo in range(0, len(keep), rows):
        a, b = keep[lo : lo + rows], absorb[lo : lo + rows]
        inside = ((src == a) & (dst == b)) | ((src == b) & (dst == a))
        # An (edges, rows) C-ordered batch sweeps without a transposing copy.
        end = sweep_finish_times(plan, graph.task_sizes, np.where(inside, 0, cost).T)
        out[lo : lo + rows] = end.max(axis=1)
    return out


def merge_to_target(
    graph: TaskGraph, labels: np.ndarray, num_clusters: int,
    candidates: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Least-regression merges down to ``num_clusters``, first-appearance ids.

    Each round lists ``candidates(labels)``, the ``(keep, absorb)``
    cluster id arrays in the order ties are broken, scores them with one
    :func:`merged_bounds` call and merges the first pair of least bound;
    with no candidate left, the two lowest cluster ids merge.  The ids
    are then renumbered by first appearance, and if fewer than
    ``num_clusters`` clusters remain, the largest (lowest id on ties)
    gives the first half of its tasks to a new cluster until the count
    is met.
    """
    labels = labels.copy()
    k = np.unique(labels).size
    while k > num_clusters:
        keep, absorb = candidates(labels)
        if len(keep):
            best = int(np.argmin(merged_bounds(graph, labels, keep, absorb)))
            a, b = int(keep[best]), int(absorb[best])
        else:
            a, b = np.unique(labels)[:2].tolist()
        labels[labels == b] = a
        k -= 1
    labels = first_appearance(labels)
    while k < num_clusters:
        members = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
        labels[members[: members.size // 2]] = k
        k += 1
    return labels
