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
2. Repeatedly take the highest-priority unexamined task whose
   predecessors are all examined (ties to the lowest id); try placing
   it in the cluster of each predecessor (zeroing that edge) and keep
   the choice minimizing its start time (``tlevel``); a fresh singleton
   cluster is the fallback.
3. ``tlevel`` is written only when a task is examined, so a free task's
   ``tlevel`` is still 0 when it is ranked and its priority is its
   ``blevel``: the examination order is fixed by the bottom levels.
   (Classic DSC raises the ``tlevel`` of successors as their
   predecessors are examined; this loop does not.)

DSC leaves the cluster count data-driven, so the driver then merges the
smallest-communication cluster pairs (same policy as the edge-zeroing
clusterer) until exactly ``num_clusters`` remain.
"""

from __future__ import annotations

import numpy as np

from ..core.clustered import ClusteredGraph, Clustering
from ..core.ideal import lower_bound
from ..core.taskgraph import TaskGraph
from .base import Clusterer, validate_request

__all__ = ["DscClusterer"]


class DscClusterer(Clusterer):
    """Dominant Sequence Clustering down to exactly ``num_clusters``."""

    def cluster(
        self, graph: TaskGraph, rng: int | np.random.Generator | None = None
    ) -> Clustering:
        validate_request(graph, self.num_clusters)
        labels = self._dsc_pass(graph)
        labels = self._merge_to_target(graph, labels)
        return Clustering(labels, num_clusters=self.num_clusters)

    # ------------------------------------------------------------------
    def _dsc_pass(self, graph: TaskGraph) -> np.ndarray:
        n = graph.num_tasks
        sizes = graph.task_sizes
        in_ptr, in_w = graph.in_indptr, graph.in_weights

        # blevel: longest path (nodes + edges) from each task to an exit.
        blevel = graph.bottom_levels(graph.out_weights)

        labels = np.arange(n, dtype=np.int64)  # singleton start
        # cluster_end[c]: finish time of the last task placed in cluster c
        # (DSC clusters are linear chains, so one running end per cluster).
        cluster_end = {}
        tlevel = np.zeros(n, dtype=np.int64)
        end = np.zeros(n, dtype=np.int64)
        examined = np.zeros(n, dtype=bool)

        # Tasks in priority order; recomputing priorities lazily per step
        # keeps the implementation simple at O(n^2) — the same order the
        # paper's own algorithms run at.
        while not examined.all():
            free = [
                t
                for t in range(n)
                if not examined[t] and all(examined[p] for p in graph.predecessors(t))
            ]
            t = max(free, key=lambda x: (tlevel[x] + blevel[x], -x))
            preds = graph.predecessors(t)
            weights = in_w[in_ptr[t] : in_ptr[t + 1]]  # aligned with preds
            # Default: stay a singleton; start = max over preds with comm.
            best_start = int((end[preds] + weights).max()) if preds.size else 0
            best_cluster = int(labels[t])
            for p in preds.tolist():
                c = int(labels[p])
                # Zero the edge (p, t): t joins p's cluster and runs after
                # the cluster's current last task; other preds still pay.
                others = preds != p
                arrive = 0
                if others.any():
                    arrive = int((end[preds[others]] + weights[others]).max())
                start = max(int(cluster_end.get(c, end[p])), int(end[p]), arrive)
                if start < best_start:
                    best_start, best_cluster = start, c
            labels[t] = best_cluster
            tlevel[t] = best_start
            end[t] = best_start + int(sizes[t])
            cluster_end[best_cluster] = max(
                int(cluster_end.get(best_cluster, 0)), int(end[t])
            )
            examined[t] = True
        return labels

    # ------------------------------------------------------------------
    def _merge_to_target(self, graph: TaskGraph, labels: np.ndarray) -> np.ndarray:
        """Least-regression merges until exactly ``num_clusters`` remain."""
        target = self.num_clusters

        def canonical(lbl: np.ndarray) -> np.ndarray:
            _, first = np.unique(lbl, return_index=True)
            mapping = {int(lbl[i]): r for r, i in enumerate(np.sort(first))}
            return np.asarray([mapping[int(x)] for x in lbl], dtype=np.int64)

        labels = canonical(labels)
        k = int(labels.max()) + 1
        while k > target:
            best_lbl, best_cost = None, None
            pairs = set()
            for e in graph.edges():
                a, b = int(labels[e.src]), int(labels[e.dst])
                if a != b:
                    pairs.add((min(a, b), max(a, b)))
            if not pairs:
                pairs = {(0, 1)}
            for a, b in sorted(pairs):
                trial = labels.copy()
                trial[trial == b] = a
                trial = canonical(trial)
                cost = lower_bound(
                    ClusteredGraph(
                        graph, Clustering(trial, num_clusters=int(trial.max()) + 1)
                    )
                )
                if best_cost is None or cost < best_cost:
                    best_lbl, best_cost = trial, cost
            assert best_lbl is not None
            labels = best_lbl
            k = int(labels.max()) + 1
        # If DSC produced fewer clusters than requested, split the largest.
        while k < target:
            counts = np.bincount(labels, minlength=k)
            donor = int(np.argmax(counts))
            members = np.flatnonzero(labels == donor)
            labels[members[: members.size // 2]] = k
            k += 1
        return labels
