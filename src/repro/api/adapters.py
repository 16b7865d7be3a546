"""Built-in mapper registrations: the paper's strategy and all baselines.

Each adapter is a thin, picklable wrapper that normalizes one of the
existing mapping entry points (:class:`~repro.core.mapper.CriticalEdgeMapper`,
:func:`~repro.baselines.annealing.anneal_mapping`, ...) to the uniform
:class:`~repro.api.outcome.MapOutcome`.  The wrapped functions keep their
original signatures and result types — the adapters call them, they do
not replace them.  Every adapter's ``map`` returns through
:func:`_timed_outcome`, the one place that times a run and builds its
outcome, so ``reached_lower_bound`` means ``total_time == lower_bound``
for every built-in mapper.

Registered names: ``critical``, ``random``, ``bokhari``, ``lee``,
``annealing``, ``quenching``, ``genetic``, ``tabu``, ``multilevel``,
``portfolio``.

``multilevel`` is the first *composing* mapper: its ``initial=`` /
``initial_params=`` parameters name another registered mapper that
solves the coarsest level of the hierarchy (see
:mod:`repro.core.multilevel`), so its parameter set nests a full
sub-mapper configuration — which the service fingerprint canonicalizes
recursively, keeping cache keys exact.  ``portfolio`` composes further:
it races a whole list of configured mappers (:mod:`repro.portfolio`)
and returns the winner's outcome.

The iterative adapters additionally pick up the process-wide anytime
reporter (:func:`repro.core.anytime.active_reporter`) installed by the
portfolio racer, threading it into their underlying algorithms; the
``anytime_label`` class attribute names the objective their checkpoint
values measure.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from ..baselines.annealing import anneal_mapping
from ..baselines.bokhari import bokhari_mapping
from ..baselines.genetic import genetic_mapping
from ..baselines.lee_aggarwal import lee_mapping
from ..baselines.random_map import average_random_mapping
from ..baselines.tabu import tabu_mapping
from ..core.anytime import active_reporter
from ..core.assignment import Assignment
from ..core.clustered import ClusteredGraph
from ..core.evaluate import total_time
from ..core.ideal import lower_bound
from ..core.mapper import CriticalEdgeMapper
from ..core.multilevel import analytic_metric, multilevel_map
from ..topology.base import SystemGraph
from ..utils import MappingError, Stopwatch
from .outcome import MapOutcome
from .registry import parse_choice, register_mapper

__all__ = [
    "CriticalEdgeAdapter",
    "RandomMappingAdapter",
    "BokhariAdapter",
    "LeeAggarwalAdapter",
    "AnnealingAdapter",
    "QuenchingAdapter",
    "GeneticAdapter",
    "TabuAdapter",
    "MultilevelAdapter",
    "PortfolioAdapter",
]


class _Run(NamedTuple):
    """What one adapter run found; :func:`_timed_outcome` adds the rest."""

    assignment: Assignment
    total_time: int
    lower_bound: int
    evaluations: int
    extras: dict[str, float] | None = None
    portfolio: dict[str, Any] | None = None


def _timed_outcome(mapper: str, run: Callable[[], _Run]) -> MapOutcome:
    """Time ``run`` and build the :class:`MapOutcome` of what it found.

    The run reached the bound exactly when its total time equals it
    (Theorem 3); the stopwatch covers the whole run, lower bound
    included.
    """
    with Stopwatch() as sw:
        found = run()
    return MapOutcome(
        mapper=mapper,
        assignment=found.assignment,
        total_time=found.total_time,
        lower_bound=found.lower_bound,
        evaluations=found.evaluations,
        reached_lower_bound=found.total_time == found.lower_bound,
        wall_time=sw.elapsed,
        extras=found.extras or {},
        portfolio=found.portfolio or {},
    )


@register_mapper("critical")
class CriticalEdgeAdapter:
    """The paper's critical-edge strategy (initial assignment + refinement)."""

    def __init__(
        self,
        refinement: str = "random",
        refinement_trials: int | None = None,
        use_critical_guidance: bool = True,
        propagate_through_intra: bool = True,
        tie_break: str = "affinity",
    ) -> None:
        self.refinement = refinement
        self.refinement_trials = refinement_trials
        self.use_critical_guidance = use_critical_guidance
        self.propagate_through_intra = propagate_through_intra
        self.tie_break = tie_break

    def map(
        self,
        clustered: ClusteredGraph,
        system: SystemGraph,
        rng: int | np.random.Generator | None = None,
    ) -> MapOutcome:
        def run() -> _Run:
            result = CriticalEdgeMapper(
                refinement=self.refinement,
                refinement_trials=self.refinement_trials,
                use_critical_guidance=self.use_critical_guidance,
                propagate_through_intra=self.propagate_through_intra,
                tie_break=self.tie_break,
                rng=rng,
            ).map(clustered, system)
            return _Run(
                result.assignment,
                result.total_time,
                result.lower_bound,
                result.refinement.trials,
                {"initial_total_time": float(result.initial_total_time)},
            )

        return _timed_outcome(self.name, run)


@register_mapper("random")
class RandomMappingAdapter:
    """Averaged random mapping (the paper's Sec. 5 comparison baseline).

    ``total_time``/``assignment`` report the best of the ``samples``
    draws; the paper's reported *mean* lands in ``extras["mean_total_time"]``.
    """

    def __init__(self, samples: int = 20) -> None:
        self.samples = samples

    def map(
        self,
        clustered: ClusteredGraph,
        system: SystemGraph,
        rng: int | np.random.Generator | None = None,
    ) -> MapOutcome:
        def run() -> _Run:
            bound = lower_bound(clustered)
            stats = average_random_mapping(
                clustered, system, samples=self.samples, rng=rng
            )
            return _Run(
                stats.best_assignment,
                stats.best_total_time,
                bound,
                stats.samples,
                {
                    "mean_total_time": stats.mean_total_time,
                    "worst_total_time": float(stats.worst_total_time),
                },
            )

        return _timed_outcome(self.name, run)


@register_mapper("bokhari")
class BokhariAdapter:
    """Bokhari's cardinality hill climbing, scored on total time."""

    def __init__(
        self, restarts: int = 4, max_passes: int = 20, weighted: bool = False
    ) -> None:
        self.restarts = restarts
        self.max_passes = max_passes
        self.weighted = weighted

    def map(
        self,
        clustered: ClusteredGraph,
        system: SystemGraph,
        rng: int | np.random.Generator | None = None,
    ) -> MapOutcome:
        def run() -> _Run:
            bound = lower_bound(clustered)
            result = bokhari_mapping(
                clustered,
                system,
                rng=rng,
                restarts=self.restarts,
                max_passes=self.max_passes,
                weighted=self.weighted,
            )
            return _Run(
                result.assignment,
                total_time(clustered, system, result.assignment),
                bound,
                result.evaluations,
                {"cardinality": float(result.cardinality)},
            )

        return _timed_outcome(self.name, run)


@register_mapper("lee")
class LeeAggarwalAdapter:
    """Lee & Aggarwal's communication-cost search, scored on total time."""

    def __init__(self, restarts: int = 4, max_passes: int = 20) -> None:
        self.restarts = restarts
        self.max_passes = max_passes

    def map(
        self,
        clustered: ClusteredGraph,
        system: SystemGraph,
        rng: int | np.random.Generator | None = None,
    ) -> MapOutcome:
        def run() -> _Run:
            bound = lower_bound(clustered)
            result = lee_mapping(
                clustered,
                system,
                rng=rng,
                restarts=self.restarts,
                max_passes=self.max_passes,
            )
            return _Run(
                result.assignment,
                total_time(clustered, system, result.assignment),
                bound,
                result.evaluations,
                {"communication_cost": float(result.cost)},
            )

        return _timed_outcome(self.name, run)


class _AnnealBase:
    """Shared plumbing of the annealing and quenching adapters."""

    quench = False
    anytime_label = "total_time"

    def __init__(
        self,
        initial_temperature: float | None = None,
        cooling: float = 0.95,
        moves_per_temperature: int | None = None,
        min_temperature: float = 0.1,
    ) -> None:
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.moves_per_temperature = moves_per_temperature
        self.min_temperature = min_temperature

    def map(
        self,
        clustered: ClusteredGraph,
        system: SystemGraph,
        rng: int | np.random.Generator | None = None,
    ) -> MapOutcome:
        def run() -> _Run:
            bound = lower_bound(clustered)
            result = anneal_mapping(
                clustered,
                system,
                rng=rng,
                lower_bound=bound,
                initial_temperature=self.initial_temperature,
                cooling=self.cooling,
                moves_per_temperature=self.moves_per_temperature,
                min_temperature=self.min_temperature,
                quench=self.quench,
                reporter=active_reporter(),
            )
            return _Run(result.assignment, result.total_time, bound, result.evaluations)

        return _timed_outcome(self.name, run)


@register_mapper("annealing")
class AnnealingAdapter(_AnnealBase):
    """Classic simulated annealing on the total-time objective (ref [3])."""


@register_mapper("quenching")
class QuenchingAdapter(_AnnealBase):
    """Zero-temperature annealing, i.e. randomized hill climbing (ref [14])."""

    quench = True


@register_mapper("genetic")
class GeneticAdapter:
    """Permutation GA (order crossover, tournament selection, elitism)."""

    anytime_label = "total_time"

    def __init__(
        self,
        population: int = 30,
        generations: int = 40,
        crossover_rate: float = 0.9,
        mutation_rate: float = 0.2,
        tournament: int = 3,
    ) -> None:
        self.population = population
        self.generations = generations
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate
        self.tournament = tournament

    def map(
        self,
        clustered: ClusteredGraph,
        system: SystemGraph,
        rng: int | np.random.Generator | None = None,
    ) -> MapOutcome:
        def run() -> _Run:
            bound = lower_bound(clustered)
            result = genetic_mapping(
                clustered,
                system,
                rng=rng,
                population=self.population,
                generations=self.generations,
                crossover_rate=self.crossover_rate,
                mutation_rate=self.mutation_rate,
                tournament=self.tournament,
                lower_bound=bound,
                reporter=active_reporter(),
            )
            return _Run(
                result.assignment,
                result.total_time,
                bound,
                result.evaluations,
                {"generations": float(result.generations)},
            )

        return _timed_outcome(self.name, run)


@register_mapper("multilevel")
class MultilevelAdapter:
    """Coarsen–map–refine on top of any registered sub-mapper.

    Contracts the abstract cluster graph (heavy-edge matching) and the
    machine in lockstep, maps the coarsest level with the ``initial``
    sub-mapper, then projects back level by level with KL/FM-style
    communication-volume refinement (:mod:`repro.core.multilevel`).

    Parameters
    ----------
    initial:
        Registry name of the mapper that solves the coarsest level
        (validated eagerly; near-misses get a suggestion).
    initial_params:
        Constructor parameters for the sub-mapper.
    max_levels:
        Hierarchy depth cap, counting the original resolution;
        ``max_levels=1`` disables coarsening entirely, making the result
        bit-identical to running ``initial`` directly.
    min_coarse_tasks:
        Stop coarsening once a level has at most this many nodes.
    refine_passes:
        KL/FM sweeps per level during uncoarsening (0 disables
        refinement; projection alone then decides the placement).
    refine_metric:
        Registry name of the analytic metric the refinement minimizes
        (default ``"comm_volume"``, the historical objective; see
        :func:`repro.core.multilevel.refine_metric`).  Simulator-backed
        metrics are rejected eagerly.
    """

    def __init__(
        self,
        initial: str = "critical",
        initial_params: Mapping[str, object] | None = None,
        max_levels: int = 12,
        min_coarse_tasks: int = 8,
        refine_passes: int = 4,
        refine_metric: str = "comm_volume",
    ) -> None:
        from .registry import get_mapper

        if max_levels < 1:
            raise MappingError(f"max_levels must be >= 1, got {max_levels}")
        if min_coarse_tasks < 1:
            raise MappingError(
                f"min_coarse_tasks must be >= 1, got {min_coarse_tasks}"
            )
        if refine_passes < 0:
            raise MappingError(f"refine_passes must be >= 0, got {refine_passes}")
        # Validate eagerly, like the sub-mapper: unknown or
        # simulator-backed objectives fail here, not mid-batch.
        analytic_metric(refine_metric)
        self.initial = initial
        self.initial_params = dict(initial_params or {})
        self.max_levels = max_levels
        self.min_coarse_tasks = min_coarse_tasks
        self.refine_passes = refine_passes
        self.refine_metric = refine_metric
        # Build the sub-mapper eagerly: unknown names and bad parameters
        # fail here, not in a worker process mid-batch.
        self._sub = get_mapper(initial, **self.initial_params)

    @property
    def anytime_label(self) -> str:
        """Checkpoint values measure the refinement objective."""
        return self.refine_metric

    def map(
        self,
        clustered: ClusteredGraph,
        system: SystemGraph,
        rng: int | np.random.Generator | None = None,
    ) -> MapOutcome:
        sub_outcomes: list[MapOutcome] = []

        def initial_mapper(
            coarse_clustered: ClusteredGraph,
            coarse_system: SystemGraph,
            coarse_rng: int | np.random.Generator | None,
        ) -> object:
            outcome = self._sub.map(coarse_clustered, coarse_system, rng=coarse_rng)
            sub_outcomes.append(outcome)
            return outcome.assignment

        def run() -> _Run:
            result = multilevel_map(
                clustered,
                system,
                initial_mapper,
                max_levels=self.max_levels,
                min_coarse_tasks=self.min_coarse_tasks,
                refine_passes=self.refine_passes,
                refine_metric=self.refine_metric,
                rng=rng,
                reporter=active_reporter(),
            )
            sub = sub_outcomes[0]
            # Without coarsening the sub-mapper solved the original
            # instance, so its exact makespan and bound are reused
            # bit-for-bit; otherwise the final assignment is evaluated
            # once at full resolution.
            if result.coarsened:
                time = total_time(clustered, system, result.assignment)
                bound = lower_bound(clustered)
            else:
                time, bound = sub.total_time, sub.lower_bound
            extras = {
                "levels": float(result.num_levels),
                "coarsest_nodes": float(result.coarsest_nodes),
                "refine_objective": float(result.comm_volume),
                "refine_probes": float(result.refine_probes),
                "refine_swaps": float(result.refine_swaps),
            }
            if self.refine_metric == "comm_volume":
                # Historical key: the objective *is* the communication volume.
                extras["comm_volume"] = float(result.comm_volume)
            return _Run(
                result.assignment,
                time,
                bound,
                sub.evaluations + result.refine_probes,
                extras,
            )

        return _timed_outcome(self.name, run)


@register_mapper("tabu")
class TabuAdapter:
    """Best-improvement tabu search over pairwise swaps."""

    anytime_label = "total_time"

    def __init__(self, iterations: int = 40, tenure: int | None = None) -> None:
        self.iterations = iterations
        self.tenure = tenure

    def map(
        self,
        clustered: ClusteredGraph,
        system: SystemGraph,
        rng: int | np.random.Generator | None = None,
    ) -> MapOutcome:
        def run() -> _Run:
            bound = lower_bound(clustered)
            result = tabu_mapping(
                clustered,
                system,
                rng=rng,
                iterations=self.iterations,
                tenure=self.tenure,
                lower_bound=bound,
                reporter=active_reporter(),
            )
            return _Run(
                result.assignment,
                result.total_time,
                bound,
                result.evaluations,
                {"iterations": float(result.iterations)},
            )

        return _timed_outcome(self.name, run)


@register_mapper("portfolio")
class PortfolioAdapter:
    """Race K configured mappers; return the winner's outcome.

    Arms run concurrently on the service's warm pool (or a private one
    inside a worker), stream anytime checkpoints, and dominated arms are
    stop-signaled early (:func:`repro.portfolio.racing.race`).  Kill
    decisions are keyed to checkpoint ordinals — never wall-clock — so
    the winner and the recorded diagnostics are bit-reproducible at any
    worker count, and the winner's assignment/makespan are bit-identical
    to running that arm alone with the same derived seed.

    Parameters
    ----------
    arms:
        The competitors: a list whose entries are a registry name, a
        ``{"name": ..., "params": {...}}`` mapping, or a ``(name,
        params)`` pair — at least two, and ``portfolio`` itself is
        rejected (a race must not nest a race).  The default ``"auto"``
        asks the default service's recommender for the learned best
        configurations of this instance's (workload, topology) family,
        padding with :data:`repro.portfolio.recommend.DEFAULT_ARMS` when
        history is thin; auto mode depends on mutable history, so the
        service never caches its results (``cacheable = False``).
    objective:
        What "better" means across arms: ``total_time`` (default) or
        ``comm_volume``.
    kill_ratio:
        An arm dies at a budget-doubling checkpoint when its best value
        exceeds this multiple of the best rival's (>= 1.0).
    max_auto_arms:
        Cap on history-derived arms in auto mode (>= 2).
    """

    def __init__(
        self,
        arms: object = "auto",
        objective: str = "total_time",
        kill_ratio: float = 1.5,
        max_auto_arms: int = 3,
    ) -> None:
        from ..portfolio.racing import OBJECTIVES

        if objective not in OBJECTIVES:
            raise MappingError(
                f"unknown portfolio objective {objective!r}; "
                f"available: {', '.join(OBJECTIVES)}"
            )
        if kill_ratio < 1.0:
            raise MappingError(f"kill_ratio must be >= 1.0, got {kill_ratio}")
        if max_auto_arms < 2:
            raise MappingError(f"max_auto_arms must be >= 2, got {max_auto_arms}")
        self.arms = arms if isinstance(arms, str) else self._normalize(arms)
        self.objective = objective
        self.kill_ratio = float(kill_ratio)
        self.max_auto_arms = int(max_auto_arms)
        if isinstance(self.arms, str):
            if self.arms != "auto":
                raise MappingError(
                    f"portfolio arms must be 'auto' or a list of arm specs, "
                    f"got {arms!r}"
                )
            # Auto arms come from recorded history, which changes as the
            # store grows — the service must not cache these outcomes.
            self.cacheable = False
            self._arms = None
        else:
            self._arms = self._build(self.arms)

    @staticmethod
    def _normalize(arms: object) -> list[tuple[str, dict[str, Any]]]:
        """Read the arm choices; a race needs two arms and no nested race."""
        if isinstance(arms, Mapping) or not isinstance(arms, (list, tuple)):
            raise MappingError(
                f"portfolio arms must be 'auto' or a list of arm specs, "
                f"got {arms!r}"
            )
        specs = [parse_choice(arm, "portfolio arm") for arm in arms]
        if any(name == "portfolio" for name, _params in specs):
            raise MappingError("a portfolio arm cannot itself be 'portfolio'")
        if len(specs) < 2:
            raise MappingError(
                f"a portfolio needs at least two arms, got {len(specs)}"
            )
        return specs

    @staticmethod
    def _build(specs: list[tuple[str, dict[str, Any]]]) -> list[object]:
        """Eagerly build every arm: bad names/params fail at construction."""
        from ..portfolio.racing import ArmSpec
        from .registry import get_mapper

        return [
            ArmSpec(name=name, params=params, mapper=get_mapper(name, **params))
            for name, params in specs
        ]

    def _auto_arms(
        self, clustered: ClusteredGraph, system: SystemGraph
    ) -> list[object]:
        """Arms for this instance's family key, mined from history."""
        from ..portfolio.recommend import (
            DEFAULT_ARMS,
            arms_from_payload,
            family_of,
        )
        from ..service.service import default_service

        payload = default_service().recommend(
            family_of(clustered.graph.name), family_of(system.name)
        )
        specs = (
            arms_from_payload(payload, max_arms=self.max_auto_arms)
            if payload
            else []
        )
        named = {name for name, _params in specs}
        for name, params in DEFAULT_ARMS:
            if len(specs) >= 2:
                break
            if name not in named:
                specs.append((name, dict(params)))
        return self._build(specs)

    def map(
        self,
        clustered: ClusteredGraph,
        system: SystemGraph,
        rng: int | np.random.Generator | None = None,
    ) -> MapOutcome:
        from ..portfolio.racing import race

        def run() -> _Run:
            arm_specs = (
                self._arms
                if self._arms is not None
                else self._auto_arms(clustered, system)
            )
            result = race(
                clustered,
                system,
                arm_specs,
                rng=rng,
                objective=self.objective,
                kill_ratio=self.kill_ratio,
            )
            win = result.outcome
            killed = sum(1 for arm in result.arms if arm["status"] == "killed")
            return _Run(
                win.assignment,
                win.total_time,
                win.lower_bound,
                win.evaluations,
                extras={
                    "winner_arm": float(result.winner),
                    "arms_total": float(len(arm_specs)),
                    "arms_killed": float(killed),
                },
                portfolio={
                    "objective": self.objective,
                    "kill_ratio": self.kill_ratio,
                    "winner": {
                        "arm": result.winner,
                        "mapper": arm_specs[result.winner].name,
                    },
                    "arms": result.arms,
                },
            )

        return _timed_outcome(self.name, run)
