"""Ablation A4: the 1991 analytic model vs. higher-fidelity machines.

The paper evaluates every mapping with a contention-free, infinitely-
wide-processor model.  This benchmark re-executes mapped programs on the
discrete-event simulator with serialized processors and link contention
and records (a) the absolute drift and (b) that the *comparison* the
paper cares about (critical-edge mapping vs. random mapping) survives.
"""

import numpy as np

from repro.analysis import render_table
from repro.baselines import random_mapping
from repro.clustering import RandomClusterer
from repro.core import ClusteredGraph, CriticalEdgeMapper
from repro.experiments import run_fidelity_ablation
from repro.sim import SimConfig, simulate
from repro.topology import hypercube
from repro.workloads import layered_random_dag

SEED = 7


def test_a4_fidelity(benchmark, record_artifact):
    rows = benchmark.pedantic(
        run_fidelity_ablation, kwargs={"rng": SEED}, rounds=1, iterations=1
    )
    variants = list(rows[0].values)
    body = [
        [r.instance] + [f"{r.values[v]:.0f}" for v in variants] for r in rows
    ]
    record_artifact(
        "a4_fidelity",
        render_table(["instance"] + variants, body, title="A4 — model fidelity"),
    )
    for row in rows:
        base = row.values["analytic_model"]
        assert row.values["serialized_cpus"] >= base
        assert row.values["link_contention"] >= base
        assert row.values["both"] >= base


def _ranking_trials() -> tuple[int, int, list[str]]:
    gen = np.random.default_rng(SEED)
    wins = 0
    total = 0
    lines = []
    for trial in range(6):
        system = hypercube(3)
        graph = layered_random_dag(num_tasks=100, comm_range=(1, 5), rng=gen)
        clustering = RandomClusterer(8).cluster(graph, rng=gen)
        clustered = ClusteredGraph(graph, clustering)
        ours = CriticalEdgeMapper(rng=gen).map(clustered, system)
        rand_assignment, _ = random_mapping(clustered, system, rng=gen)
        config = SimConfig(serialize_processors=True, link_contention=True)
        ours_span = simulate(clustered, system, ours.assignment, config).makespan
        rand_span = simulate(clustered, system, rand_assignment, config).makespan
        wins += ours_span <= rand_span
        total += 1
        lines.append(f"trial {trial}: ours {ours_span} vs random {rand_span}")
    return wins, total, lines


def test_a4_ranking_survives_fidelity(benchmark, record_artifact):
    """Ours vs random keeps its ordering for a majority of instances even
    under the harshest machine model (serialized + contention).

    The mapping was optimized for the paper's contention-free model, so
    some inversions under full contention are expected — the artifact
    records the exact win ratio.
    """
    wins, total, lines = benchmark.pedantic(_ranking_trials, rounds=1, iterations=1)
    record_artifact("a4_ranking", "\n".join(lines + [f"wins: {wins}/{total}"]))
    assert wins * 2 >= total  # majority survives


def test_simulator_throughput(benchmark):
    """Raw DES speed on a contended 200-task instance (harness health)."""
    system = hypercube(3)
    graph = layered_random_dag(num_tasks=200, rng=3)
    clustering = RandomClusterer(8).cluster(graph, rng=3)
    clustered = ClusteredGraph(graph, clustering)
    result = CriticalEdgeMapper(rng=3).map(clustered, system)
    config = SimConfig(serialize_processors=True, link_contention=True)
    sim = benchmark(simulate, clustered, system, result.assignment, config)
    assert sim.makespan >= result.total_time
