"""Sensitivity study: how the unpublished workload knobs move the results.

The paper publishes only ranges for its random workloads (``np`` in
[30, 300], ``ns`` in [4, 40], "weights produced randomly").  Every
knob it leaves open gets a calibrated default, and these sweeps show
*which* of them the headline numbers are sensitive to.  Three sweeps:

* **communication weight ratio** — comm range vs. task-size range moves
  both columns up together and widens the random-vs-ours gap;
* **edge density** — extra edges per task; dense graphs push *every*
  mapper far from the (unreachable) bound;
* **problem size** (``np`` at fixed ``ns``) — small instances are where
  the termination condition fires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.random_map import average_random_mapping
from ..clustering.simple import RandomClusterer
from ..core.clustered import ClusteredGraph
from ..core.mapper import CriticalEdgeMapper
from ..topology.base import SystemGraph
from ..topology.generators import hypercube, mesh2d
from ..utils import as_rng
from ..workloads.random_dag import layered_random_dag

__all__ = [
    "SensitivityPoint",
    "sweep_comm_ratio",
    "sweep_edge_density",
    "sweep_problem_size",
    "format_sweep",
]


@dataclass(frozen=True)
class SensitivityPoint:
    """Aggregated outcome of one knob setting over several instances."""

    knob: str
    value: float
    ours_pct_mean: float
    random_pct_mean: float
    improvement_mean: float
    hit_rate: float
    instances: int


def _run_batch(
    systems: list[SystemGraph],
    instances: int,
    gen: np.random.Generator,
    *,
    knob: str,
    value: float,
    comm_hi: int = 5,
    extra_per_task: float = 0.5,
    num_tasks: int | None = None,
) -> SensitivityPoint:
    ours, rand, hits, count = [], [], 0, 0
    for system in systems:
        ns = system.num_nodes
        for _ in range(instances):
            n = num_tasks if num_tasks is not None else int(gen.integers(max(30, ns), 301))
            graph = layered_random_dag(
                num_tasks=n,
                comm_range=(1, comm_hi),
                extra_edges_per_task=extra_per_task,
                rng=gen,
            )
            clustering = RandomClusterer(ns).cluster(graph, rng=gen)
            clustered = ClusteredGraph(graph, clustering)
            result = CriticalEdgeMapper(rng=gen).map(clustered, system)
            stats = average_random_mapping(clustered, system, samples=10, rng=gen)
            ours.append(100 * result.total_time / result.lower_bound)
            rand.append(100 * stats.mean_total_time / result.lower_bound)
            hits += result.is_provably_optimal
            count += 1
    return SensitivityPoint(
        knob=knob,
        value=value,
        ours_pct_mean=float(np.mean(ours)),
        random_pct_mean=float(np.mean(rand)),
        improvement_mean=float(np.mean(rand) - np.mean(ours)),
        hit_rate=hits / count,
        instances=count,
    )


def _default_systems() -> list[SystemGraph]:
    return [hypercube(3), mesh2d(3, 3)]


def sweep_comm_ratio(
    rng: int | np.random.Generator | None = 5,
    comm_highs: tuple[int, ...] = (2, 5, 10),
    instances: int = 3,
) -> list[SensitivityPoint]:
    """Vary the communication weight ceiling (task sizes stay 1-10)."""
    gen = as_rng(rng)
    return [
        _run_batch(
            _default_systems(), instances, gen,
            knob="comm_hi", value=hi, comm_hi=hi,
        )
        for hi in comm_highs
    ]


def sweep_edge_density(
    rng: int | np.random.Generator | None = 5,
    densities: tuple[float, ...] = (0.25, 0.5, 1.5, 3.0),
    instances: int = 3,
) -> list[SensitivityPoint]:
    """Vary the extra edges per task (the DAG density)."""
    gen = as_rng(rng)
    return [
        _run_batch(
            _default_systems(), instances, gen,
            knob="extra_edges_per_task", value=d, extra_per_task=d,
        )
        for d in densities
    ]


def sweep_problem_size(
    rng: int | np.random.Generator | None = 5,
    task_counts: tuple[int, ...] = (40, 80, 160, 300),
    instances: int = 3,
) -> list[SensitivityPoint]:
    """Vary np at fixed machines (hits concentrate on small np)."""
    gen = as_rng(rng)
    return [
        _run_batch(
            _default_systems(), instances, gen,
            knob="num_tasks", value=n, num_tasks=n,
        )
        for n in task_counts
    ]


def format_sweep(points: list[SensitivityPoint], title: str) -> str:
    """Render one sweep as a table."""
    from ..analysis.tables import render_table

    body = [
        (
            p.value,
            f"{p.ours_pct_mean:.0f}%",
            f"{p.random_pct_mean:.0f}%",
            f"{p.improvement_mean:.0f}",
            f"{p.hit_rate:.0%}",
            p.instances,
        )
        for p in points
    ]
    return render_table(
        [points[0].knob, "ours", "random", "improvement", "bound hits", "n"],
        body,
        title=title,
    )
