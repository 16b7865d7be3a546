"""Paper-faithful bundle of the internal matrix representation (Sec. 3).

The library's classes each own their data; this module assembles the
complete set the paper enumerates in Sec. 3 / Figs. 18-23 for one mapping
instance, keyed by the paper's names.  It exists for inspection, teaching
and the I/O layer — algorithms use the typed objects directly, whose
per-edge arrays (``i_edge``, ``crit_mask``, ``comm``) only this module
spreads into task x task matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..topology.base import SystemGraph
from .abstract import AbstractGraph
from .assignment import Assignment
from .clustered import ClusteredGraph
from .critical import CriticalityAnalysis, analyze_criticality
from .evaluate import evaluate_assignment
from .ideal import IdealSchedule, ideal_schedule

__all__ = ["PaperMatrices", "collect_matrices"]


@dataclass(frozen=True)
class PaperMatrices:
    """Every matrix of paper Sec. 3, under the paper's names.

    ``c_abs_edge`` includes the trailing critical-degree column, exactly as
    the paper's ``c_abs_edge[na][na+1]`` (Fig. 20-b).  ``assi``, ``comm``,
    ``start`` and ``end`` are only present when an assignment was supplied.

    ``route_prev`` is the one addition beyond the paper's set: the
    system's route-predecessor table
    (:attr:`repro.topology.base.SystemGraph.route_prev` —
    ``route_prev[s, v]`` is the node before ``v`` on the deterministic
    shortest route from ``s``), bundled so a dumped instance carries the
    concrete routes the simulator and congestion metrics will use, not
    just the distances.
    """

    prob_edge: np.ndarray       # Fig. 18
    task_size: np.ndarray       # Sec. 3.1(b)
    clus_edge: np.ndarray       # Fig. 19-a
    clus_pnode: np.ndarray      # Fig. 19-b (padded with -1)
    abs_edge: np.ndarray        # Fig. 20-a
    c_abs_edge: np.ndarray      # Fig. 20-b (with degree column)
    mca: np.ndarray             # Fig. 20-c
    sys_edge: np.ndarray        # Fig. 21-a
    shortest: np.ndarray        # Fig. 21-b
    deg: np.ndarray             # Fig. 21-c
    route_prev: np.ndarray      # routing predecessor matrix (not in paper)
    i_edge: np.ndarray          # Fig. 22-a
    i_start: np.ndarray         # Fig. 22-b
    i_end: np.ndarray           # Fig. 22-b
    crit_edge: np.ndarray       # Fig. 22-c
    assi: np.ndarray | None     # Fig. 23-b
    comm: np.ndarray | None     # Fig. 23-c
    start: np.ndarray | None    # Fig. 23-d
    end: np.ndarray | None      # Fig. 23-d

    def as_dict(self) -> dict[str, np.ndarray]:
        """All non-None matrices keyed by their paper names."""
        out: dict[str, np.ndarray] = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


def collect_matrices(
    clustered: ClusteredGraph,
    system: SystemGraph,
    assignment: Assignment | None = None,
    *,
    ideal: IdealSchedule | None = None,
    analysis: CriticalityAnalysis | None = None,
) -> PaperMatrices:
    """Assemble the Sec. 3 matrices for one instance.

    Pass a pre-computed ``ideal``/``analysis`` to avoid recomputation when
    they already exist (e.g. from a :class:`~repro.core.mapper.MappingResult`).
    """
    graph = clustered.graph
    prob_edge = graph.prob_edge  # refuses oversized instances up front
    srcs, dsts, _ = graph.in_edge_arrays()

    def dense(per_edge: np.ndarray) -> np.ndarray:
        mat = np.zeros_like(prob_edge)
        mat[srcs, dsts] = per_edge
        return mat

    abstract = AbstractGraph(clustered)
    if ideal is None:
        ideal = ideal_schedule(clustered)
    if analysis is None:
        analysis = analyze_criticality(clustered, ideal)

    na = clustered.num_clusters
    c_abs_with_degree = np.zeros((na, na + 1), dtype=np.int64)
    c_abs_with_degree[:, :na] = analysis.c_abs_edge
    c_abs_with_degree[:, na] = analysis.critical_degree

    assi = comm = start = end = None
    if assignment is not None:
        schedule = evaluate_assignment(clustered, system, assignment)
        assi = assignment.assi
        comm = dense(schedule.comm)
        start = schedule.start
        end = schedule.end

    return PaperMatrices(
        prob_edge=prob_edge,
        task_size=graph.task_sizes,
        clus_edge=clustered.clus_edge,
        clus_pnode=clustered.clustering.clus_pnode(),
        abs_edge=abstract.abs_edge,
        c_abs_edge=c_abs_with_degree,
        mca=abstract.mca,
        sys_edge=system.sys_edge,
        shortest=system.shortest,
        deg=system.deg,
        route_prev=system.route_prev,
        i_edge=dense(ideal.i_edge),
        i_start=ideal.i_start,
        i_end=ideal.i_end,
        crit_edge=dense(np.where(analysis.crit_mask, clustered.cross_in_weights, 0)),
        assi=assi,
        comm=comm,
        start=start,
        end=end,
    )
