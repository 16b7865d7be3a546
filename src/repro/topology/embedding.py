"""Graph-embedding quality measures: dilation, congestion, expansion.

The graph-embedding literature (from which Bokhari's cardinality comes)
judges a placement of a *guest* graph (here: the abstract graph) into a
*host* graph (the system graph) by:

* **dilation** of an edge — the number of host links its route crosses
  (hops, not the weighted cost on weighted machines); max/average
  dilation summarize the whole embedding.  Cardinality is exactly the
  number of dilation-1 edges.
* **congestion** of a host link — how many guest edges route through it
  (weighted by communication when requested); the bottleneck link bounds
  achievable bandwidth.
* **expansion** — host size / guest size (always 1 here since the paper
  forces ``na == ns``, but kept for generality).

These are diagnostics: the paper's argument is precisely that such
indirect measures do not determine total time — experiments E4/E5 prove
it — but they explain *why* a mapping behaves as it does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .base import SystemGraph

if TYPE_CHECKING:  # imported lazily to avoid a core <-> topology cycle
    from ..core.abstract import AbstractGraph
    from ..core.assignment import Assignment

__all__ = ["EmbeddingReport", "analyze_embedding", "edge_dilations", "link_congestion"]


@dataclass(frozen=True)
class EmbeddingReport:
    """Embedding quality of one assignment.

    ``congestion`` maps each *undirected* host link to the number of
    guest edges whose (deterministic shortest-path) route crosses it;
    ``weighted_congestion`` weighs each crossing by the guest edge's
    communication weight.
    """

    max_dilation: int
    avg_dilation: float
    dilation_one_edges: int        # == Bokhari's cardinality
    total_guest_edges: int
    max_congestion: int
    max_weighted_congestion: int
    expansion: float

    def __str__(self) -> str:
        return (
            f"dilation max {self.max_dilation} / avg {self.avg_dilation:.2f}, "
            f"{self.dilation_one_edges}/{self.total_guest_edges} edges on "
            f"single links, congestion max {self.max_congestion} "
            f"(weighted {self.max_weighted_congestion}), "
            f"expansion {self.expansion:.2f}"
        )


def edge_dilations(
    abstract: AbstractGraph, system: SystemGraph, assignment: Assignment
) -> dict[tuple[int, int], int]:
    """Hop count per abstract edge ``(a, b)`` with ``a < b``.

    Counts the links of the route ``hosts[a] -> hosts[b]`` that
    :func:`link_congestion` follows (:attr:`SystemGraph.route_hops`), so
    it equals the weighted distance only on unit-weight machines.
    """
    hosts = assignment.placement
    srcs, dsts = np.nonzero(np.triu(abstract.abs_edge, 1))
    hops = system.route_hops[hosts[srcs], hosts[dsts]]
    return dict(zip(zip(srcs.tolist(), dsts.tolist()), hops.tolist()))


def link_congestion(
    abstract: AbstractGraph,
    system: SystemGraph,
    assignment: Assignment,
    weighted: bool = False,
) -> dict[tuple[int, int], int]:
    """Guest-edge crossings per undirected host link.

    Each edge ``(a, b)`` with ``a < b`` is routed ``hosts[a] ->
    hosts[b]`` (:meth:`SystemGraph.route_loads`), the same deterministic
    routes the simulator uses, so congestion here predicts the
    simulator's contention hotspots.
    """
    hosts = assignment.placement
    srcs, dsts = np.nonzero(np.triu(abstract.abs_edge, 1))
    pair_loads = np.zeros((system.num_nodes,) * 2, dtype=np.int64)
    pair_loads[hosts[srcs], hosts[dsts]] = abstract.weights[srcs, dsts] if weighted else 1
    loads = system.route_loads(pair_loads)
    links = np.triu(loads + loads.T)
    us, vs = np.nonzero(links)
    return dict(zip(zip(us.tolist(), vs.tolist()), links[us, vs].tolist()))


def analyze_embedding(
    abstract: AbstractGraph, system: SystemGraph, assignment: Assignment
) -> EmbeddingReport:
    """Full embedding-quality report for one assignment."""
    dilations = edge_dilations(abstract, system, assignment)
    values = list(dilations.values())
    plain = link_congestion(abstract, system, assignment, weighted=False)
    weighted = link_congestion(abstract, system, assignment, weighted=True)
    return EmbeddingReport(
        max_dilation=max(values) if values else 0,
        avg_dilation=float(np.mean(values)) if values else 0.0,
        dilation_one_edges=sum(1 for d in values if d == 1),
        total_guest_edges=len(values),
        max_congestion=max(plain.values()) if plain else 0,
        max_weighted_congestion=max(weighted.values()) if weighted else 0,
        expansion=system.num_nodes / abstract.num_nodes,
    )
