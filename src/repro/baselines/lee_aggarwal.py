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

import numpy as np

from ..core.assignment import Assignment
from ..core.clustered import ClusteredGraph
from ..core.taskgraph import TaskGraph
from ..topology.base import SystemGraph
from ..utils import as_rng

__all__ = [
    "LeeResult",
    "phases_by_level",
    "communication_cost",
    "lee_mapping",
]


@dataclass(frozen=True)
class LeeResult:
    """Outcome of the communication-cost search."""

    assignment: Assignment
    cost: int
    evaluations: int


def phases_by_level(graph: TaskGraph) -> list[list[tuple[int, int]]]:
    """Group edges by the topological level of their source task.

    Level of a task = length (in tasks) of the longest chain of
    predecessors; all edges out of level-k tasks belong to phase k.
    Empty phases are dropped.
    """
    level = graph.schedule_plan().depth()
    buckets: dict[int, list[tuple[int, int]]] = {}
    for e in graph.edges():
        buckets.setdefault(int(level[e.src]), []).append((e.src, e.dst))
    return [buckets[k] for k in sorted(buckets)]


def communication_cost(
    clustered: ClusteredGraph,
    system: SystemGraph,
    assignment: Assignment,
    phases: list[list[tuple[int, int]]] | None = None,
) -> int:
    """Lee & Aggarwal's objective for one assignment.

    Edges whose clustered weight is zero (intra-cluster) contribute
    nothing regardless of phase.
    """
    if phases is None:
        phases = phases_by_level(clustered.graph)
    labels = clustered.clustering.labels
    hosts = assignment.placement
    clus = clustered.clus_edge
    total = 0
    for phase in phases:
        worst = 0
        for i, j in phase:
            w = int(clus[i, j])
            if w == 0:
                continue
            d = int(system.shortest[hosts[labels[i]], hosts[labels[j]]])
            worst = max(worst, w * d)
        total += worst
    return total


def lee_mapping(
    clustered: ClusteredGraph,
    system: SystemGraph,
    rng: int | np.random.Generator | None = None,
    phases: list[list[tuple[int, int]]] | None = None,
    restarts: int = 4,
    max_passes: int = 20,
) -> LeeResult:
    """Minimize the phase-decomposed communication cost.

    Same search skeleton as the Bokhari baseline (pairwise-exchange hill
    climbing with restarts — Lee & Aggarwal's own refinement is pairwise
    exchange too, which the paper cites when rejecting it for refinement).
    """
    gen = as_rng(rng)
    if phases is None:
        phases = phases_by_level(clustered.graph)
    n = system.num_nodes
    best: Assignment | None = None
    best_cost = np.iinfo(np.int64).max
    evaluations = 0

    for _ in range(max(1, restarts)):
        current = Assignment.random(n, rng=gen)
        current_cost = communication_cost(clustered, system, current, phases)
        evaluations += 1
        for _ in range(max_passes):
            improved = False
            for a in range(n - 1):
                for b in range(a + 1, n):
                    candidate = current.swapped(a, b)
                    cost = communication_cost(clustered, system, candidate, phases)
                    evaluations += 1
                    if cost < current_cost:
                        current, current_cost = candidate, cost
                        improved = True
            if not improved:
                break
        if current_cost < best_cost:
            best, best_cost = current, current_cost
    assert best is not None
    return LeeResult(assignment=best, cost=int(best_cost), evaluations=evaluations)
