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

Every metric here sets ``analytic = True`` and names the incremental
swap evaluator that a refinement on it runs
(:func:`repro.core.multilevel.refine_metric`): its ``evaluator``, called
as ``evaluator(traffic, system, assignment)``, builds it over a level's
directed traffic.  The pairwise sums ``sum t[x, y] * M[host_x,
host_y]`` run on :class:`~repro.core.incremental.CommVolumeDelta`'s
gain table, with ``M`` the distances for ``comm_volume`` and the route
hop counts, which may differ by direction on weighted machines, for
``hop_bytes`` and ``avg_dilation``; ``max_congestion`` runs on
:class:`~repro.core.incremental.LinkLoadDelta`'s link loads.
"""

from __future__ import annotations

import numpy as np

from ..core.assignment import Assignment
from ..core.clustered import ClusteredGraph
from ..core.incremental import CommVolumeDelta, LinkLoadDelta
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


def _hop_volume(
    traffic: np.ndarray, system: SystemGraph, assignment: Assignment
) -> CommVolumeDelta:
    """The hop-weighted sum's swap evaluator: the route hop counts,
    which may differ by direction on weighted machines, as its metric."""
    return CommVolumeDelta(traffic, system, assignment, metric=system.route_hops)


@register_metric("comm_volume")
class CommVolumeMetric:
    """The paper's hop-weighted communication volume."""

    analytic = True
    evaluator = CommVolumeDelta

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


@register_metric("hop_bytes")
class HopBytesMetric:
    """Message weight x route hop count (= comm_volume on unit links)."""

    analytic = True
    evaluator = staticmethod(_hop_volume)

    def compute(
        self,
        clustered: ClusteredGraph,
        system: SystemGraph,
        assignment: Assignment,
    ) -> dict[str, float]:
        weights, hops = _route_hops(clustered, system, assignment)
        return {"hop_bytes": float((weights * hops).sum())}


@register_metric("max_congestion")
class MaxCongestionMetric:
    """Traffic on the most-loaded directed link (static bottleneck)."""

    analytic = True
    evaluator = LinkLoadDelta

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
    # Total weight is swap-invariant, so minimizing the hop-weighted sum
    # minimizes the ratio.
    evaluator = staticmethod(_hop_volume)

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
