"""High-level facade: the complete mapping strategy of the paper.

:class:`CriticalEdgeMapper` wires the full Fig. 1 pipeline together:

    clustered graph -> abstract graph -> ideal graph (lower bound)
                    -> critical edges  -> initial assignment
                    -> refinement (terminates at the lower bound)

and returns a :class:`MappingResult` holding every intermediate artifact
so experiments, tests and visualizations can inspect the pipeline without
recomputing it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..topology.base import SystemGraph
from ..utils import as_rng
from .abstract import AbstractGraph
from .assignment import Assignment
from .clustered import ClusteredGraph, Clustering
from .critical import CriticalityAnalysis, analyze_criticality
from .evaluate import Schedule, evaluate_assignment
from .ideal import IdealSchedule, ideal_schedule
from .initial import initial_assignment
from .refine import RefinementResult, refine_pairwise, refine_random
from .taskgraph import TaskGraph

__all__ = ["MappingResult", "CriticalEdgeMapper", "map_graph"]


@dataclass(frozen=True)
class MappingResult:
    """Everything produced by one end-to-end mapping run."""

    clustered: ClusteredGraph
    system: SystemGraph
    abstract: AbstractGraph
    ideal: IdealSchedule
    analysis: CriticalityAnalysis
    initial: Assignment
    initial_total_time: int
    refinement: RefinementResult
    schedule: Schedule

    @property
    def assignment(self) -> Assignment:
        """The final (best) assignment."""
        return self.refinement.assignment

    @property
    def total_time(self) -> int:
        """Makespan of the final assignment."""
        return self.refinement.total_time

    @property
    def lower_bound(self) -> int:
        return self.ideal.total_time

    @property
    def is_provably_optimal(self) -> bool:
        """True when the termination condition fired (Theorem 3)."""
        return self.refinement.reached_lower_bound

    def percent_over_lower_bound(self) -> float:
        """The paper's reporting metric: ``100 * total / lower_bound``.

        100.0 means the lower bound was met exactly.
        """
        return 100.0 * self.total_time / self.lower_bound

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MappingResult(total_time={self.total_time}, "
            f"lower_bound={self.lower_bound}, "
            f"optimal={self.is_provably_optimal})"
        )


class CriticalEdgeMapper:
    """The paper's mapping strategy, configurable for the ablations.

    Parameters
    ----------
    refinement:
        ``"random"`` (the paper's random re-placement), ``"pairwise"``
        (the rejected alternative), or ``"none"`` (initial assignment
        only; ablation A1).
    refinement_trials:
        Trial budget; ``None`` uses the paper's ``ns``.
    use_critical_guidance:
        When False, the initial assignment sees a zeroed criticality
        analysis and degenerates to intensity/degree-guided greedy
        placement (ablation A2).
    propagate_through_intra:
        Forwarded to :func:`~repro.core.critical.analyze_criticality`.
    tie_break:
        Forwarded to :func:`~repro.core.initial.initial_assignment`
        (``"affinity"`` default, ``"degree"`` for the literal paper rule).
    rng:
        Seed or generator for tie-breaking and refinement randomness.
    """

    def __init__(
        self,
        refinement: str = "random",
        refinement_trials: int | None = None,
        use_critical_guidance: bool = True,
        propagate_through_intra: bool = True,
        tie_break: str = "affinity",
        rng: int | np.random.Generator | None = None,
    ) -> None:
        if refinement not in ("random", "pairwise", "none"):
            raise ValueError(
                f"refinement must be 'random', 'pairwise' or 'none', got {refinement!r}"
            )
        self.refinement = refinement
        self.refinement_trials = refinement_trials
        self.use_critical_guidance = use_critical_guidance
        self.propagate_through_intra = propagate_through_intra
        self.tie_break = tie_break
        self._rng = as_rng(rng)

    def map(self, clustered: ClusteredGraph, system: SystemGraph) -> MappingResult:
        """Run the full pipeline of Fig. 1 on one instance."""
        abstract = AbstractGraph(clustered)
        ideal = ideal_schedule(clustered)
        analysis = analyze_criticality(
            clustered, ideal, propagate_through_intra=self.propagate_through_intra
        )
        guidance = analysis if self.use_critical_guidance else _blank_analysis(analysis)

        init = initial_assignment(
            abstract, guidance, system, rng=self._rng, tie_break=self.tie_break
        )
        init_schedule = evaluate_assignment(clustered, system, init)

        if self.refinement == "none":
            refinement = RefinementResult(
                assignment=init,
                total_time=init_schedule.total_time,
                lower_bound=ideal.total_time,
                reached_lower_bound=init_schedule.total_time == ideal.total_time,
                trials=0,
                improved=False,
            )
        else:
            refine = refine_random if self.refinement == "random" else refine_pairwise
            refinement = refine(
                clustered,
                system,
                analysis,
                init,
                rng=self._rng,
                max_trials=self.refinement_trials,
            )

        schedule = (
            init_schedule
            if refinement.assignment == init
            else evaluate_assignment(clustered, system, refinement.assignment)
        )
        return MappingResult(
            clustered=clustered,
            system=system,
            abstract=abstract,
            ideal=ideal,
            analysis=analysis,
            initial=init,
            initial_total_time=init_schedule.total_time,
            refinement=refinement,
            schedule=schedule,
        )


def _blank_analysis(analysis: CriticalityAnalysis) -> CriticalityAnalysis:
    """A zeroed copy of ``analysis`` (no critical edges) for ablation A2."""
    zero_mask = np.zeros_like(analysis.crit_mask)
    zero_abs = np.zeros_like(analysis.c_abs_edge)
    zero_deg = np.zeros_like(analysis.critical_degree)
    zero_path = np.zeros_like(analysis.on_critical_path)
    for arr in (zero_mask, zero_abs, zero_deg, zero_path):
        arr.flags.writeable = False
    return CriticalityAnalysis(
        ideal=analysis.ideal,
        crit_mask=zero_mask,
        c_abs_edge=zero_abs,
        critical_degree=zero_deg,
        on_critical_path=zero_path,
    )


def map_graph(
    graph: TaskGraph,
    clustering: Clustering,
    system: SystemGraph,
    rng: int | np.random.Generator | None = None,
    **mapper_kwargs: object,
) -> MappingResult:
    """One-call convenience wrapper: cluster binding + mapping.

    >>> from repro.workloads import layered_random_dag
    >>> from repro.clustering import RandomClusterer
    >>> from repro.topology import hypercube
    >>> g = layered_random_dag(num_tasks=40, rng=1)
    >>> c = RandomClusterer(num_clusters=8).cluster(g, rng=1)
    >>> result = map_graph(g, c, hypercube(3), rng=1)
    >>> result.total_time >= result.lower_bound
    True
    """
    clustered = ClusteredGraph(graph, clustering)
    mapper = CriticalEdgeMapper(rng=rng, **mapper_kwargs)  # type: ignore[arg-type]
    return mapper.map(clustered, system)
