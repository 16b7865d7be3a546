"""Closed-form (analytic) metrics over a mapped instance.

All of these score the clustered task edges (inter-cluster message
weights ``cross_out_weights`` over the graph's CSR edge arrays;
intra-cluster edges weigh 0) against the system's distances and routes,
never materializing the dense ``clus_edge`` and running no simulation:

* ``comm_volume`` — the paper's objective: message weight x shortest
  distance, summed over ordered task pairs.  Identical to
  ``Schedule.communication_volume()``.
* ``hop_bytes`` — message weight x *hop count* of the actual route.
  Equals comm_volume on unit-weight machines; diverges on weighted ones
  (where distance is cost, not hops).  See arXiv:2005.10413 for why this
  separates mappings that tie on total comm.
* ``link_traffic`` / ``max_congestion`` — traffic is routed over the
  deterministic shortest routes the simulator also takes, all pairs in
  one walk (:meth:`repro.topology.base.SystemGraph.route_loads`), giving
  ``weight x link_weight`` per directed link — exactly the busy time the
  simulator charges at ``link_setup=0``.  ``max_congestion`` is the most-loaded
  directed link: the static bottleneck that bounds any contention-aware
  makespan from below.
* ``avg_dilation`` — mean route hop count weighted by message size;
  how far the average byte travels.

Every metric here sets ``analytic = True`` and is therefore accepted as
a refinement objective (:func:`repro.core.multilevel.refine_metric`).
Metrics whose objective is a pairwise sum ``sum w[i,j] *
M[host_i, host_j]`` with symmetric ``M`` additionally expose
``pair_matrix`` so refinement can use O(degree) swap deltas.
"""

from __future__ import annotations

import numpy as np

from ..core.assignment import Assignment
from ..core.clustered import ClusteredGraph
from ..topology.base import SystemGraph
from ..utils import MappingError
from .base import register_metric

__all__ = [
    "AvgDilationMetric",
    "CommVolumeMetric",
    "HopBytesMetric",
    "MaxCongestionMetric",
    "link_traffic",
    "processor_traffic_matrix",
    "task_hosts",
]


def task_hosts(
    clustered: ClusteredGraph, system: SystemGraph, assignment: Assignment
) -> np.ndarray:
    """Host processor per task, validating the triple is consistent."""
    if clustered.num_clusters != assignment.size:
        raise MappingError(
            f"assignment covers {assignment.size} clusters, "
            f"instance has {clustered.num_clusters}"
        )
    if assignment.size != system.num_nodes:
        raise MappingError(
            f"assignment covers {assignment.size} nodes, "
            f"system has {system.num_nodes}"
        )
    return assignment.placement[clustered.clustering.labels]


def processor_traffic_matrix(
    clustered: ClusteredGraph, system: SystemGraph, assignment: Assignment
) -> np.ndarray:
    """Ordered processor-pair message weights: ``traffic[p, q]`` sums the
    clustered weights of all task messages sent from host ``p`` to ``q``."""
    host = task_hosts(clustered, system, assignment)
    ns = system.num_nodes
    traffic = np.zeros((ns, ns), dtype=np.int64)
    srcs, dsts, _ = clustered.graph.edge_arrays()
    np.add.at(traffic, (host[srcs], host[dsts]), clustered.cross_out_weights)
    np.fill_diagonal(traffic, 0)
    return traffic


def link_traffic(
    clustered: ClusteredGraph, system: SystemGraph, assignment: Assignment
) -> dict[tuple[int, int], int]:
    """Static traffic per directed link: ``weight x link_weight`` summed
    over every route crossing it.

    Routes are the ones the simulator takes, so this equals the
    simulator's per-link busy time at ``link_setup=0``.
    """
    traffic = processor_traffic_matrix(clustered, system, assignment)
    loads = system.route_loads(traffic) * system.link_weights
    tails, heads = np.nonzero(loads)
    return dict(zip(zip(tails.tolist(), heads.tolist()), loads[tails, heads].tolist()))


def _route_hops(
    clustered: ClusteredGraph, system: SystemGraph, assignment: Assignment
) -> tuple[np.ndarray, np.ndarray]:
    """(weights, hop counts) of every ordered inter-processor message."""
    traffic = processor_traffic_matrix(clustered, system, assignment)
    pairs = np.nonzero(traffic)
    return traffic[pairs], system.route_hops[pairs]


@register_metric("comm_volume")
class CommVolumeMetric:
    """The paper's hop-weighted communication volume."""

    analytic = True

    def compute(
        self,
        clustered: ClusteredGraph,
        system: SystemGraph,
        assignment: Assignment,
    ) -> dict[str, float]:
        host = task_hosts(clustered, system, assignment)
        srcs, dsts, _ = clustered.graph.edge_arrays()
        volume = (
            clustered.cross_out_weights * system.shortest[host[srcs], host[dsts]]
        ).sum()
        return {"comm_volume": float(volume)}

    def pair_matrix(self, system: SystemGraph) -> np.ndarray | None:
        return np.asarray(system.shortest)


@register_metric("hop_bytes")
class HopBytesMetric:
    """Message weight x route hop count (= comm_volume on unit links)."""

    analytic = True

    def compute(
        self,
        clustered: ClusteredGraph,
        system: SystemGraph,
        assignment: Assignment,
    ) -> dict[str, float]:
        weights, hops = _route_hops(clustered, system, assignment)
        return {"hop_bytes": float((weights * hops).sum())}

    def pair_matrix(self, system: SystemGraph) -> np.ndarray | None:
        # On unit-weight machines hop count == shortest distance, which
        # is symmetric; weighted-optimal routes may have direction-
        # dependent hop counts, so no O(deg) delta there.
        if system.is_weighted:
            return None
        return np.asarray(system.shortest)


@register_metric("max_congestion")
class MaxCongestionMetric:
    """Traffic on the most-loaded directed link (static bottleneck)."""

    analytic = True

    def compute(
        self,
        clustered: ClusteredGraph,
        system: SystemGraph,
        assignment: Assignment,
    ) -> dict[str, float]:
        loads = link_traffic(clustered, system, assignment)
        return {"max_congestion": float(max(loads.values(), default=0))}


@register_metric("avg_dilation")
class AvgDilationMetric:
    """Mean route hop count per unit of message weight."""

    analytic = True

    def compute(
        self,
        clustered: ClusteredGraph,
        system: SystemGraph,
        assignment: Assignment,
    ) -> dict[str, float]:
        weights, hops = _route_hops(clustered, system, assignment)
        total = int(weights.sum())
        if total == 0:
            return {"avg_dilation": 0.0}
        return {"avg_dilation": float((weights * hops).sum()) / total}

    def pair_matrix(self, system: SystemGraph) -> np.ndarray | None:
        # Total weight is swap-invariant, so minimizing the hop-weighted
        # sum minimizes the ratio; valid only where hops are symmetric.
        if system.is_weighted:
            return None
        return np.asarray(system.shortest)
