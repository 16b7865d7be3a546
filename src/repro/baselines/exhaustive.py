"""Exhaustive (brute-force) search over assignments — the test oracle.

For small instances (``ns <= ~8``) all ``ns!`` assignments can be
enumerated.  The experiments use this to *prove* the Sec. 2.2
counterexample phenomena (the best cardinality-optimal assignment is
strictly slower than the global time-optimum) and the tests use it to
certify that the heuristic never beats the true optimum and that Theorem
3's termination only ever fires at the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from ..core.assignment import Assignment
from ..core.clustered import ClusteredGraph
from ..core.evaluate import total_time
from ..topology.base import SystemGraph
from ..utils import MappingError

__all__ = [
    "ExhaustiveResult",
    "exhaustive_optimum",
    "enumerate_assignments",
    "all_assignment_total_times",
    "invert_permutations",
]

_MAX_NODES = 9  # 9! = 362880 evaluations — the practical ceiling


@dataclass(frozen=True)
class ExhaustiveResult:
    """The certified optimum of one instance."""

    assignment: Assignment
    total_time: int
    evaluated: int
    optima_count: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExhaustiveResult(total_time={self.total_time}, "
            f"optima={self.optima_count}/{self.evaluated})"
        )


def enumerate_assignments(n: int):
    """Yield every :class:`Assignment` of ``n`` clusters (``n!`` of them)."""
    for perm in permutations(range(n)):
        yield Assignment(np.asarray(perm, dtype=np.int64))


def invert_permutations(perms: np.ndarray) -> np.ndarray:
    """``assi`` rows (``perms[r, system] = cluster``) as ``placement``
    rows (``cluster -> system``): each row's inverse permutation."""
    return np.argsort(perms, axis=1)


def all_assignment_total_times(
    clustered: ClusteredGraph,
    system: SystemGraph,
    max_nodes: int = _MAX_NODES,
) -> tuple[np.ndarray, np.ndarray]:
    """Total time of *every* assignment, evaluated batch-vectorized.

    Returns ``(perms, times)`` where ``perms[k]`` is the ``assi`` vector of
    the k-th assignment (``perms[k][system] = cluster``) and ``times[k]``
    its makespan.  The schedule recurrence runs once per task with all
    ``n!`` assignments as a vector lane, which is two to three orders of
    magnitude faster than evaluating assignments one by one — it is what
    makes the exhaustive counterexample proofs (experiments E4/E5) cheap
    enough for the test suite.
    """
    n = system.num_nodes
    if clustered.num_clusters != n:
        raise MappingError("na must equal ns for exhaustive evaluation")
    if n > max_nodes:
        raise MappingError(
            f"exhaustive search over {n}! assignments refused "
            f"(limit {max_nodes}); use the heuristic mappers instead"
        )
    perms = np.asarray(list(permutations(range(n))), dtype=np.int64)  # (P, n)
    placement = invert_permutations(perms)

    graph = clustered.graph
    labels = clustered.clustering.labels
    clus = clustered.clus_edge
    sizes = graph.task_sizes
    host = placement[:, labels]  # (P, np) system node per task per assignment

    end = np.zeros((perms.shape[0], graph.num_tasks), dtype=np.int64)
    shortest = system.shortest
    for t in graph.topological_order.tolist():
        preds = graph.predecessors(t)
        if preds.size == 0:
            end[:, t] = sizes[t]
            continue
        # comm[k, j] = clus[j, t] * dist(host[k, j], host[k, t])
        dist = shortest[host[:, preds], host[:, t][:, None]]
        start = (end[:, preds] + clus[preds, t][None, :] * dist).max(axis=1)
        end[:, t] = start + sizes[t]
    return perms, end.max(axis=1)


def exhaustive_optimum(
    clustered: ClusteredGraph,
    system: SystemGraph,
    max_nodes: int = _MAX_NODES,
) -> ExhaustiveResult:
    """Certified global optimum by full (vectorized) enumeration.

    Raises :class:`MappingError` when the instance exceeds ``max_nodes``
    (the factorial wall), to protect callers from accidental explosions.
    """
    perms, times = all_assignment_total_times(clustered, system, max_nodes)
    best_time = int(times.min())
    best_index = int(times.argmin())
    return ExhaustiveResult(
        assignment=Assignment(perms[best_index]),
        total_time=best_time,
        evaluated=perms.shape[0],
        optima_count=int((times == best_time).sum()),
    )
