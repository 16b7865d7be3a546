"""Sarkar-style edge-zeroing clustering.

The classic internalization heuristic (Sarkar 1989; the paper's refs
[8]/[10] build on the same idea): visit edges in order of decreasing
weight and merge the two endpoint clusters ("zero the edge") whenever
doing so does not increase the critical-path estimate of the clustered
graph — communication on internal edges costs nothing, so heavy edges
want to be internal unless merging serializes too much work.

Because the mapping stage needs *exactly* ``num_clusters`` clusters, the
merge loop additionally stops dissolving below the target and, if the
zero-improvement condition leaves more clusters than requested, keeps
merging the cheapest pairs (smallest critical-path regression) until the
target is met.
"""

from __future__ import annotations

import numpy as np

from ..core.clustered import ClusteredGraph, Clustering
from ..core.ideal import lower_bound
from ..core.taskgraph import TaskGraph
from .base import Clusterer, validate_request

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

        labels = np.arange(n, dtype=np.int64)  # singleton clusters

        def canonical(lbl: np.ndarray) -> np.ndarray:
            """Renumber labels to 0..k-1 in order of first appearance."""
            _, first = np.unique(lbl, return_index=True)
            mapping = {int(lbl[i]): rank for rank, i in enumerate(np.sort(first))}
            return np.asarray([mapping[int(x)] for x in lbl], dtype=np.int64)

        def estimate(lbl: np.ndarray) -> int:
            c = canonical(lbl)
            return lower_bound(
                ClusteredGraph(graph, Clustering(c, num_clusters=int(c.max()) + 1))
            )

        current_cost = estimate(labels)
        edges = sorted(graph.edges(), key=lambda e: (-e.weight, e.src, e.dst))

        # Pass 1: Sarkar's rule — zero heavy edges while the estimate does
        # not regress and the cluster count stays above the target.
        for e in edges:
            if len(set(labels.tolist())) <= target:
                break
            a, b = labels[e.src], labels[e.dst]
            if a == b:
                continue
            trial = labels.copy()
            trial[trial == b] = a
            cost = estimate(trial)
            if cost <= current_cost:
                labels, current_cost = trial, cost

        # Pass 2: force the target count with least-regression merges.
        while len(set(labels.tolist())) > target:
            uniq = sorted(set(labels.tolist()))
            best_trial, best_cost = None, None
            # Prefer merging along remaining cut edges (cheap local moves);
            # fall back to arbitrary pairs for disconnected graphs.
            candidates: list[tuple[int, int]] = []
            for e in edges:
                a, b = int(labels[e.src]), int(labels[e.dst])
                if a != b:
                    candidates.append((a, b))
            if not candidates:
                candidates = [(uniq[0], uniq[1])]
            seen: set[tuple[int, int]] = set()
            for a, b in candidates:
                key = (min(a, b), max(a, b))
                if key in seen:
                    continue
                seen.add(key)
                trial = labels.copy()
                trial[trial == b] = a
                cost = estimate(trial)
                if best_cost is None or cost < best_cost:
                    best_trial, best_cost = trial, cost
            assert best_trial is not None
            labels, current_cost = best_trial, int(best_cost)

        # Pass 3: if zeroing overshot below the target (cannot happen with
        # the pass-1 guard, but kept as a safety net for subclasses), split
        # the largest clusters.
        final = canonical(labels)
        k = int(final.max()) + 1
        while k < target:
            counts = np.bincount(final, minlength=k)
            donor = int(np.argmax(counts))
            members = np.flatnonzero(final == donor)
            final[members[: members.size // 2]] = k
            k += 1
        return Clustering(final, num_clusters=target)
