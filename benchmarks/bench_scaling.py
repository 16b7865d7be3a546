"""Experiment E8: empirical complexity of the mapping pipeline.

The paper (Sec. 4.3.3) bounds the algorithms at O(np^2) per evaluation
and O(ns * np^2) for the whole refinement.  These benchmarks time the
two building blocks directly so pytest-benchmark's report exposes the
scaling, and the sweep artifact records seconds / (ns * np^2) and checks
that it does not grow as np quadruples.
"""

import pytest

from repro.analysis import render_table
from repro.clustering import RandomClusterer
from repro.core import Assignment, ClusteredGraph, CriticalEdgeMapper, total_time
from repro.topology import hypercube
from repro.utils import Stopwatch
from repro.workloads import layered_random_dag


def _instance(num_tasks: int, dim: int, seed: int = 0):
    system = hypercube(dim)
    graph = layered_random_dag(num_tasks=num_tasks, rng=seed)
    clustering = RandomClusterer(system.num_nodes).cluster(graph, rng=seed)
    return ClusteredGraph(graph, clustering), system


@pytest.mark.parametrize("num_tasks", [50, 100, 200, 400])
def test_evaluation_scaling(benchmark, num_tasks):
    """One total-time evaluation: the O(np^2) inner kernel."""
    clustered, system = _instance(num_tasks, dim=3)
    assignment = Assignment.random(system.num_nodes, rng=1)
    result = benchmark(total_time, clustered, system, assignment)
    assert result >= 0


@pytest.mark.parametrize("num_tasks", [50, 100, 200])
def test_full_mapping_scaling(benchmark, num_tasks):
    """The whole pipeline: O(ns * np^2) per the paper."""
    clustered, system = _instance(num_tasks, dim=3)
    mapper = CriticalEdgeMapper(rng=1)
    result = benchmark.pedantic(
        mapper.map, args=(clustered, system), rounds=3, iterations=1
    )
    assert result.total_time >= result.lower_bound


def _scaling_records() -> list[dict[str, float]]:
    """One timed ``CriticalEdgeMapper.map`` per (np, ns) point.

    One untimed map first: the process's first call pays one-time
    costs that would otherwise land on the smallest, most-amplified
    point of the normalized curve.
    """
    CriticalEdgeMapper(rng=0).map(*_instance(50, 3))
    records = []
    for dim in (3, 4):
        for num_tasks in (50, 100, 200, 400):
            clustered, system = _instance(num_tasks, dim)
            mapper = CriticalEdgeMapper(rng=0)
            with Stopwatch() as sw:
                mapper.map(clustered, system)
            ns = system.num_nodes
            records.append({
                "np": float(num_tasks),
                "ns": float(ns),
                "seconds": sw.elapsed,
                "normalized": sw.elapsed / (ns * num_tasks * num_tasks),
            })
    return records


def test_scaling_sweep_artifact(benchmark, record_artifact):
    records = benchmark.pedantic(_scaling_records, rounds=1, iterations=1)
    body = [
        (int(r["np"]), int(r["ns"]), f"{r['seconds']*1e3:.1f} ms",
         f"{r['normalized']*1e9:.2f}")
        for r in records
    ]
    table = render_table(
        ["np", "ns", "mapping time", "ns*np^2-normalized (ns units)"],
        body,
        title="E8 — mapping time vs paper's O(ns*np^2) bound",
    )
    record_artifact("e8_scaling", table)
    # The normalized constant must not blow up: at each ns, the
    # largest np's constant is at most 25x the smallest np's (generous
    # slack for constant factors).  One-sided: a constant that falls as
    # np grows is the bound holding with room to spare.
    by_ns: dict[int, dict[int, float]] = {}
    for r in records:
        by_ns.setdefault(int(r["ns"]), {})[int(r["np"])] = r["normalized"]
    for ns, by_np in by_ns.items():
        largest, smallest = by_np[max(by_np)], by_np[min(by_np)]
        assert largest <= 25 * smallest, (ns, by_np)
