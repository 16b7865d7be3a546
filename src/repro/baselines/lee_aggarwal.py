"""Lee & Aggarwal's communication-cost mapping [2] (IEEE ToC 1987).

Lee & Aggarwal group the problem edges into *phases* — sets of
communications assumed to start simultaneously — and score an assignment
by the sum over phases of the *maximum* communication cost in each phase,
where one edge's cost is its weight times the hop distance between the
host processors:

    ``cost(A) = sum_p max_{(i,j) in phase p} w_ij * dist(host(i), host(j))``

The paper's Sec. 2.2 (Figs. 13-17) shows this too is indirect: the
cost-optimal assignment A3 (11 units) has total time 23 while A4 (15
units) finishes in 21.

Phase construction: Lee & Aggarwal derive phases from the program's
communication structure.  For DAG workloads the natural reading — and
what reproduces the paper's Fig. 15 grouping for its example — is the
*topological level of the source task* (all edges leaving level-k tasks
form phase k); :func:`phases_by_level` implements that, and callers may
pass explicit phases instead (the counterexample uses the paper's own
grouping).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..core.assignment import Assignment
from ..core.clustered import ClusteredGraph
from ..core.taskgraph import TaskGraph
from ..topology.base import SystemGraph
from ..utils import GraphError, as_rng

__all__ = [
    "LeeCost",
    "LeeResult",
    "phases_by_level",
    "communication_cost",
    "lee_mapping",
]

Phases = list[list[tuple[int, int]]]

#: The hill climb scores the swaps ahead of its scan in batches: 8 after
#: each accepted swap, doubling while none improves, and never more than
#: fit a 1 MB ``(swaps, cross edges)`` int64 distance gather.  On a
#: 2-vCPU VM this took the 27 Lee maps of ``paper-sweep`` seeds 0-2 from
#: 300-365 to 91-136 ms; re-scoring every remaining swap after each
#: acceptance took 133 ms there, but twice the scalar scan's time on 1k
#: tasks on ``hypercube:4``, where acceptances come every few swaps.
_FIRST_BATCH = 8
_BATCH_BYTES = 1 << 20


@dataclass(frozen=True)
class LeeResult:
    """Outcome of the communication-cost search."""

    assignment: Assignment
    cost: int
    evaluations: int


def _phase_edges(
    graph: TaskGraph, phases: Phases | None
) -> tuple[np.ndarray, np.ndarray]:
    """Edge ids (into ``graph.edge_arrays()``) in phase order, and each
    one's phase: by default the source task's topological level (sorted
    stably, so edges keep their ``(src, dst)`` order inside a phase),
    else the listed pairs that are edges, in listing order."""
    srcs, dsts, _ = graph.edge_arrays()
    if phases is None:
        level = graph.schedule_plan().depth()[srcs]
        order = np.argsort(level, kind="stable")
        return order, level[order]
    n = graph.num_tasks
    pairs = np.asarray(list(chain.from_iterable(phases)), dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise GraphError(f"a phase names a task outside 0..{n - 1}")
    keys, wanted = srcs * n + dsts, pairs[:, 0] * n + pairs[:, 1]  # keys ascend
    pos = np.searchsorted(keys, wanted)
    hit = pos < keys.size
    hit[hit] = keys[pos[hit]] == wanted[hit]
    return pos[hit], np.repeat(np.arange(len(phases)), list(map(len, phases)))[hit]


def phases_by_level(graph: TaskGraph) -> Phases:
    """Group edges by the topological level of their source task.

    Level of a task = length (in tasks) of the longest chain of
    predecessors; all edges out of level-k tasks belong to phase k.
    Empty phases are dropped.
    """
    edge, phase = _phase_edges(graph, None)
    srcs, dsts, _ = graph.edge_arrays()
    pairs = list(zip(srcs[edge].tolist(), dsts[edge].tolist()))
    bounds = [*np.flatnonzero(np.diff(phase, prepend=-1)).tolist(), len(pairs)]
    return [pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class LeeCost:
    """Lee & Aggarwal's objective, laid out once to score batches: its one
    implementation, shared by the hill climb, :func:`communication_cost`
    and experiment E5 (the scalar per-phase loop is the tests' oracle).

    The cross-cluster phase edges are kept phase-sorted: the cluster at
    each end, the weight (from ``cross_out_weights``, so no dense
    matrix) and where each phase starts.  Intra-cluster edges weigh 0
    and are dropped, as are phases left empty.  ``phases`` defaults to
    :func:`phases_by_level`.
    """

    def __init__(
        self,
        clustered: ClusteredGraph,
        system: SystemGraph,
        phases: Phases | None = None,
    ) -> None:
        edge, phase = _phase_edges(clustered.graph, phases)
        weight = clustered.cross_out_weights[edge]
        cross = weight > 0
        srcs, dsts, _ = clustered.graph.edge_arrays()
        labels = clustered.clustering.labels
        self._src = labels[srcs[edge[cross]]]
        self._dst = labels[dsts[edge[cross]]]
        self._weight = weight[cross]
        self._starts = np.flatnonzero(np.diff(phase[cross], prepend=-1))
        self._dist = system.shortest

    def costs(self, placements: np.ndarray) -> np.ndarray:
        """The cost of each row of a ``(k, na)`` batch of placements
        (``placements[r, cluster] = system node``)."""
        if not self._weight.size:
            return np.zeros(len(placements), dtype=np.int64)
        dist = self._dist[placements[:, self._src], placements[:, self._dst]]
        return np.maximum.reduceat(self._weight * dist, self._starts, axis=1).sum(axis=1)

    def cost(self, assignment: Assignment) -> int:
        """One assignment's cost: a one-row :meth:`costs` batch."""
        return int(self.costs(assignment.placement[None, :])[0])


def communication_cost(
    clustered: ClusteredGraph,
    system: SystemGraph,
    assignment: Assignment,
    phases: Phases | None = None,
) -> int:
    """Lee & Aggarwal's objective for one assignment (intra-cluster
    edges contribute nothing regardless of phase)."""
    return LeeCost(clustered, system, phases).cost(assignment)


def lee_mapping(
    clustered: ClusteredGraph,
    system: SystemGraph,
    rng: int | np.random.Generator | None = None,
    phases: Phases | None = None,
    restarts: int = 4,
    max_passes: int = 20,
) -> LeeResult:
    """Minimize the phase-decomposed communication cost.

    Same search skeleton as the Bokhari baseline (pairwise-exchange hill
    climbing with restarts — Lee & Aggarwal's own refinement is pairwise
    exchange too, which the paper cites when rejecting it for refinement).
    """
    gen = as_rng(rng)
    objective = LeeCost(clustered, system, phases)
    n = system.num_nodes
    pairs = np.column_stack(np.triu_indices(n, 1))  # the scan's (a, b > a) order
    widest = max(1, _BATCH_BYTES // (8 * max(1, objective._weight.size)))
    best: Assignment | None = None
    best_cost = np.iinfo(np.int64).max
    evaluations = 0

    for _ in range(max(1, restarts)):
        current = Assignment.random(n, rng=gen)
        current_cost = objective.cost(current)
        evaluations += 1
        for _ in range(max_passes):
            # A first-improvement scan over the swaps: score a batch of the
            # next swaps of the current placement, accept the first that
            # improves and resume after it, counting what the scan scored.
            improved = False
            i, width = 0, _FIRST_BATCH
            while i < len(pairs):
                batch = pairs[i : i + min(width, widest)]
                candidates = np.repeat(current.placement[None, :], len(batch), axis=0)
                rows = np.arange(len(batch))
                candidates[rows, batch[:, 0]] = current.placement[batch[:, 1]]
                candidates[rows, batch[:, 1]] = current.placement[batch[:, 0]]
                costs = objective.costs(candidates)
                better = np.flatnonzero(costs < current_cost)
                if not better.size:
                    evaluations += len(batch)
                    i, width = i + len(batch), 2 * width
                    continue
                j = int(better[0])
                evaluations += j + 1
                i, width = i + j + 1, _FIRST_BATCH
                current, current_cost = Assignment.from_placement(candidates[j]), costs[j]
                improved = True
            if not improved:
                break
        if current_cost < best_cost:
            best, best_cost = current, current_cost
    assert best is not None
    return LeeResult(assignment=best, cost=int(best_cost), evaluations=evaluations)
