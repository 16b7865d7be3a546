"""Bokhari's cardinality-driven mapping [1] (S. H. Bokhari, 1981).

Bokhari evaluates an assignment by its *cardinality*: the number of
problem edges whose endpoints land on *adjacent* system nodes ("fall on
system edges").  His algorithm hill-climbs by pairwise exchanges and
escapes plateaus with probabilistic jumps (random restarts of the
assignment).

The paper's Sec. 2.2 shows cardinality is an *indirect* measure: a
cardinality-optimal assignment can lose on total time.  We implement the
objective and the search so experiment E4 can demonstrate that, and so
the baselines comparison (A5) can score it on total time.

Notes on fidelity: Bokhari's original works on undirected, unweighted
problem graphs with ``np <= ns``; our instances satisfy ``np == ns``
after clustering (each abstract node is one "problem node" from his point
of view).  Cardinality here counts *abstract* edges on system edges,
weighted optionally — with ``weighted=False`` (default) it is exactly his
count.

Cardinality is the pairwise objective ``sum w[x, y] * A[p(x), p(y)]``
with ``A`` the 0/1 adjacency ``system.sys_edge``, so the search runs on
:class:`~repro.core.incremental.CommVolumeDelta` with that matrix as its
metric; :func:`cardinality` is the closed-form recount it is checked
against, a one-row call of the batch form :func:`cardinalities` (E4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.abstract import AbstractGraph
from ..core.assignment import Assignment
from ..core.clustered import ClusteredGraph
from ..core.incremental import CommVolumeDelta
from ..topology.base import SystemGraph
from ..utils import as_rng

__all__ = ["BokhariResult", "cardinality", "cardinalities", "bokhari_mapping"]


@dataclass(frozen=True)
class BokhariResult:
    """Outcome of the cardinality search."""

    assignment: Assignment
    cardinality: int
    evaluations: int


def cardinality(
    abstract: AbstractGraph,
    system: SystemGraph,
    assignment: Assignment,
    weighted: bool = False,
) -> int:
    """Number (or total weight) of abstract edges mapped onto system edges."""
    return int(cardinalities(abstract, system, assignment.placement[None], weighted)[0])


def cardinalities(
    abstract: AbstractGraph,
    system: SystemGraph,
    placements: np.ndarray,
    weighted: bool = False,
) -> np.ndarray:
    """:func:`cardinality` of every row of a ``(k, na)`` batch of
    placements (``placements[r, cluster] = system node``)."""
    matrix = abstract.weights if weighted else abstract.abs_edge
    x, y = np.nonzero(np.triu(matrix, 1))
    on_link = system.sys_edge[placements[:, x], placements[:, y]] > 0
    return (on_link * matrix[x, y]).sum(axis=1)


def bokhari_mapping(
    clustered: ClusteredGraph,
    system: SystemGraph,
    rng: int | np.random.Generator | None = None,
    restarts: int = 4,
    max_passes: int = 20,
    weighted: bool = False,
) -> BokhariResult:
    """Pairwise-exchange hill climbing on cardinality with random restarts.

    Each pass tries every cluster pair exchange and keeps improvements
    (first-improvement order, as in the original's sequential scan);
    passes repeat until a full pass finds nothing, then the next restart
    begins from a fresh random assignment.  The best assignment over all
    restarts wins.
    """
    gen = as_rng(rng)
    abstract = AbstractGraph(clustered)
    pair_weights = abstract.weights if weighted else abstract.abs_edge
    n = system.num_nodes
    best: Assignment | None = None
    best_card = -1
    evaluations = 0

    for _ in range(max(1, restarts)):
        # Each candidate exchange is scored by its O(deg) cardinality
        # delta instead of the O(n^2) full recount.
        evaluator = CommVolumeDelta(
            pair_weights,
            system,
            Assignment.random(n, rng=gen),
            metric=system.sys_edge,
        )
        current_card = evaluator.volume
        evaluations += 1
        for _ in range(max_passes):
            improved = False
            for a in range(n - 1):
                for b in range(a + 1, n):
                    card = current_card + evaluator.delta_swap(a, b)
                    evaluations += 1
                    if card > current_card:
                        current_card = evaluator.swap(a, b)
                        improved = True
            if not improved:
                break
        if current_card > best_card:
            best, best_card = evaluator.assignment, current_card
    assert best is not None
    return BokhariResult(assignment=best, cardinality=best_card, evaluations=evaluations)
