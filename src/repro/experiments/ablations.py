"""Ablation experiments A1-A5 and the complexity check E8.

* A1 — initial assignment alone vs. with refinement.
* A2 — critical-edge guidance on vs. off (degree/intensity-only greedy).
* A3 — random re-placement vs. pairwise exchange refinement (the paper
  claims random re-placement "works better than pairwise exchanges").
* A4 — model fidelity: the analytic model vs. the DES with serialized
  processors and link contention.
* A5 — head-to-head against the baselines (random, Bokhari, Lee,
  annealing, quenching) on total time.
* E8 — empirical scaling of the mapping time against the paper's
  O(ns * np^2) bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api.components import build_workload, get_clusterer
from ..core.clustered import ClusteredGraph
from ..core.mapper import CriticalEdgeMapper
from ..sim.engine import SimConfig, simulate
from ..topology.base import SystemGraph
from ..topology.generators import hypercube, mesh2d, random_connected
from ..utils import Stopwatch, as_rng

__all__ = [
    "AblationRow",
    "BASELINE_LABELS",
    "run_refinement_ablation",
    "run_guidance_ablation",
    "run_exchange_ablation",
    "run_fidelity_ablation",
    "run_baseline_comparison",
    "run_scaling_study",
    "default_ablation_systems",
]


@dataclass(frozen=True)
class AblationRow:
    """One instance's outcomes under the variants being compared.

    ``values`` maps variant name -> total time (or makespan / runtime,
    depending on the study); ``lower_bound`` normalizes them.
    """

    instance: str
    lower_bound: int
    values: dict[str, float]


def default_ablation_systems(
    rng: int | np.random.Generator | None = None,
) -> list[SystemGraph]:
    """One machine per family, paper-scale."""
    gen = as_rng(rng)
    return [hypercube(3), mesh2d(3, 3), random_connected(8, rng=gen)]


def _instances(
    systems: list[SystemGraph],
    instances_per_system: int,
    gen: np.random.Generator,
    num_tasks: int = 120,
    workload: str = "layered_random",
    workload_params: dict | None = None,
    clusterer: str = "random",
):
    """Ablation instances, with the workload/clusterer axes registry-named.

    ``num_tasks`` only applies to the random-DAG generators; fixed-
    structure workloads (``fft``, ``cholesky``, ...) are sized entirely
    by ``workload_params``.
    """
    params = dict(workload_params or {})
    if workload in ("layered_random", "gnp", "series_parallel"):
        params.setdefault("num_tasks", num_tasks)
    for system in systems:
        for k in range(instances_per_system):
            graph = build_workload(workload, params, rng=gen)
            clustering = get_clusterer(
                clusterer, num_clusters=system.num_nodes
            ).cluster(graph, rng=gen)
            yield f"{system.name}#{k}", ClusteredGraph(graph, clustering), system


def run_refinement_ablation(
    rng: int | np.random.Generator | None = 7,
    systems: list[SystemGraph] | None = None,
    instances_per_system: int = 3,
) -> list[AblationRow]:
    """A1: does refinement improve on the initial assignment?"""
    gen = as_rng(rng)
    systems = systems or default_ablation_systems(gen)
    rows = []
    for name, clustered, system in _instances(systems, instances_per_system, gen):
        result = CriticalEdgeMapper(refinement="random", rng=gen).map(clustered, system)
        rows.append(
            AblationRow(
                instance=name,
                lower_bound=result.lower_bound,
                values={
                    "initial_only": float(result.initial_total_time),
                    "with_refinement": float(result.total_time),
                },
            )
        )
    return rows


def run_guidance_ablation(
    rng: int | np.random.Generator | None = 7,
    systems: list[SystemGraph] | None = None,
    instances_per_system: int = 3,
) -> list[AblationRow]:
    """A2: what do the critical edges buy over degree/intensity greedy?"""
    gen = as_rng(rng)
    systems = systems or default_ablation_systems(gen)
    rows = []
    for name, clustered, system in _instances(systems, instances_per_system, gen):
        seed = int(gen.integers(0, 2**31))
        guided = CriticalEdgeMapper(rng=seed).map(clustered, system)
        unguided = CriticalEdgeMapper(use_critical_guidance=False, rng=seed).map(
            clustered, system
        )
        rows.append(
            AblationRow(
                instance=name,
                lower_bound=guided.lower_bound,
                values={
                    "critical_guided": float(guided.total_time),
                    "unguided": float(unguided.total_time),
                },
            )
        )
    return rows


def run_exchange_ablation(
    rng: int | np.random.Generator | None = 7,
    systems: list[SystemGraph] | None = None,
    instances_per_system: int = 3,
) -> list[AblationRow]:
    """A3: random re-placement vs pairwise exchange (same trial budget)."""
    gen = as_rng(rng)
    systems = systems or default_ablation_systems(gen)
    rows = []
    for name, clustered, system in _instances(systems, instances_per_system, gen):
        seed = int(gen.integers(0, 2**31))
        random_ref = CriticalEdgeMapper(refinement="random", rng=seed).map(
            clustered, system
        )
        pairwise_ref = CriticalEdgeMapper(refinement="pairwise", rng=seed).map(
            clustered, system
        )
        rows.append(
            AblationRow(
                instance=name,
                lower_bound=random_ref.lower_bound,
                values={
                    "random_replacement": float(random_ref.total_time),
                    "pairwise_exchange": float(pairwise_ref.total_time),
                },
            )
        )
    return rows


def run_fidelity_ablation(
    rng: int | np.random.Generator | None = 7,
    systems: list[SystemGraph] | None = None,
    instances_per_system: int = 2,
) -> list[AblationRow]:
    """A4: how much do serialization and contention add to the makespan?"""
    gen = as_rng(rng)
    systems = systems or default_ablation_systems(gen)
    rows = []
    for name, clustered, system in _instances(systems, instances_per_system, gen):
        result = CriticalEdgeMapper(rng=gen).map(clustered, system)
        assignment = result.assignment
        paper = simulate(clustered, system, assignment)
        serial = simulate(
            clustered, system, assignment, SimConfig(serialize_processors=True)
        )
        contention = simulate(
            clustered, system, assignment, SimConfig(link_contention=True)
        )
        both = simulate(clustered, system, assignment, SimConfig(True, True))
        rows.append(
            AblationRow(
                instance=name,
                lower_bound=result.lower_bound,
                values={
                    "analytic_model": float(paper.makespan),
                    "serialized_cpus": float(serial.makespan),
                    "link_contention": float(contention.makespan),
                    "both": float(both.makespan),
                },
            )
        )
    return rows


#: Registry name -> report label, in the order A5 scores the mappers.
BASELINE_LABELS: dict[str, str] = {
    "critical": "critical_edge (ours)",
    "random": "random (mean)",
    "bokhari": "bokhari_cardinality",
    "lee": "lee_comm_cost",
    "annealing": "simulated_annealing",
    "quenching": "quenching",
    "genetic": "genetic",
    "tabu": "tabu",
}


def run_baseline_comparison(
    rng: int | np.random.Generator | None = 7,
    systems: list[SystemGraph] | None = None,
    instances_per_system: int = 2,
    mappers: dict[str, str] | None = None,
) -> list[AblationRow]:
    """A5: total time of every registered mapper on the same instances.

    ``mappers`` maps registry names to report labels and defaults to
    :data:`BASELINE_LABELS`.  The random baseline is scored by its *mean*
    total time (the paper's Sec. 5 convention); every other mapper by the
    total time of its best assignment.
    """
    from ..api import get_mapper
    from ..utils import MappingError

    gen = as_rng(rng)
    systems = systems or default_ablation_systems(gen)
    mappers = mappers if mappers is not None else BASELINE_LABELS
    if not mappers:
        raise MappingError("run_baseline_comparison needs at least one mapper")
    rows = []
    for name, clustered, system in _instances(systems, instances_per_system, gen):
        values: dict[str, float] = {}
        bound = 0
        for mapper_name, label in mappers.items():
            outcome = get_mapper(mapper_name).map(clustered, system, rng=gen)
            bound = outcome.lower_bound
            values[label] = float(
                outcome.extras.get("mean_total_time", outcome.total_time)
            )
        rows.append(AblationRow(instance=name, lower_bound=bound, values=values))
    return rows


def run_scaling_study(
    rng: int | np.random.Generator | None = 7,
    task_counts: tuple[int, ...] = (50, 100, 200, 400),
    processor_dims: tuple[int, ...] = (3, 4),
) -> list[dict[str, float]]:
    """E8: wall-clock scaling of one full mapping vs np and ns.

    The paper's bound is O(ns * np^2); the returned records include
    ``normalized = seconds / (ns * np^2)``, which should stay roughly
    flat as np grows.
    """
    gen = as_rng(rng)
    records = []
    for dim in processor_dims:
        system = hypercube(dim)
        ns = system.num_nodes
        for n in task_counts:
            graph = build_workload("layered_random", {"num_tasks": n}, rng=gen)
            clustering = get_clusterer("random", num_clusters=ns).cluster(
                graph, rng=gen
            )
            clustered = ClusteredGraph(graph, clustering)
            mapper = CriticalEdgeMapper(rng=gen)
            with Stopwatch() as sw:
                mapper.map(clustered, system)
            records.append(
                {
                    "np": float(n),
                    "ns": float(ns),
                    "seconds": sw.elapsed,
                    "normalized": sw.elapsed / (ns * n * n),
                }
            )
    return records
