"""Integration tests: whole-pipeline scenarios across subsystems."""

import numpy as np
import pytest

from repro.baselines import average_random_mapping, exhaustive_optimum
from repro.clustering import (
    BandClusterer,
    LinearClusterer,
    RandomClusterer,
)
from repro.core import (
    Assignment,
    ClusteredGraph,
    CriticalEdgeMapper,
    collect_matrices,
    evaluate_assignment,
    map_graph,
)
from repro.io import load_instance, save_instance
from repro.sim import SimConfig, simulate
from repro.topology import hypercube, mesh2d, ring, torus2d
from repro.workloads import (
    cholesky_dag,
    fft_dag,
    gaussian_elimination_dag,
    layered_random_dag,
    wavefront_dag,
)


class TestDomainWorkloads:
    """Every domain DAG flows through the full pipeline sensibly."""

    @pytest.mark.parametrize(
        "graph",
        [
            gaussian_elimination_dag(8),
            cholesky_dag(4),
            wavefront_dag(5, 5),
            fft_dag(3),
        ],
        ids=["gauss", "cholesky", "wavefront", "fft"],
    )
    def test_pipeline_on_domain_dag(self, graph):
        system = mesh2d(2, 3)
        clustering = BandClusterer(system.num_nodes).cluster(graph, rng=0)
        result = map_graph(graph, clustering, system, rng=0)
        assert result.lower_bound <= result.total_time
        # DES in paper mode agrees end to end.
        sim = simulate(result.clustered, system, result.assignment)
        assert sim.makespan == result.total_time

    def test_structure_aware_clustering_helps_gauss(self):
        """Linear clustering should beat random clustering on the mapped
        total time for Gaussian elimination (communication-dominated)."""
        graph = gaussian_elimination_dag(10)
        system = mesh2d(2, 2)
        rnd = map_graph(
            graph, RandomClusterer(4).cluster(graph, rng=1), system, rng=1
        )
        lin = map_graph(
            graph, LinearClusterer(4).cluster(graph, rng=1), system, rng=1
        )
        assert lin.total_time <= rnd.total_time


class TestHeuristicQuality:
    def test_beats_random_mean_on_aggregate(self):
        """The paper's headline: our mapping beats averaged random mapping."""
        gains = []
        for seed in range(8):
            graph = layered_random_dag(num_tasks=90, comm_range=(1, 5), rng=seed)
            system = hypercube(3)
            clustering = RandomClusterer(8).cluster(graph, rng=seed)
            clustered = ClusteredGraph(graph, clustering)
            ours = CriticalEdgeMapper(rng=seed).map(clustered, system)
            rand = average_random_mapping(clustered, system, samples=20, rng=seed)
            gains.append(rand.mean_total_time - ours.total_time)
        assert np.mean(gains) > 0

    def test_close_to_exhaustive_on_small_instances(self):
        """Within 25% of the certified optimum on 5-processor instances."""
        ratios = []
        for seed in range(6):
            graph = layered_random_dag(num_tasks=25, rng=seed)
            system = ring(5)
            clustering = RandomClusterer(5).cluster(graph, rng=seed)
            clustered = ClusteredGraph(graph, clustering)
            ours = CriticalEdgeMapper(rng=seed).map(clustered, system)
            best = exhaustive_optimum(clustered, system)
            ratios.append(ours.total_time / best.total_time)
        assert np.mean(ratios) < 1.25

    def test_termination_condition_certifies_optimality(self):
        """Whenever the lower bound is hit, exhaustive search confirms it
        is a true optimum (Theorem 3 in action)."""
        confirmed = 0
        for seed in range(20):
            graph = layered_random_dag(num_tasks=24, comm_range=(1, 3), rng=seed)
            system = mesh2d(2, 3)
            clustering = RandomClusterer(6).cluster(graph, rng=seed)
            clustered = ClusteredGraph(graph, clustering)
            result = CriticalEdgeMapper(rng=seed).map(clustered, system)
            if result.is_provably_optimal:
                best = exhaustive_optimum(clustered, system)
                assert best.total_time == result.total_time
                confirmed += 1
        # The config was chosen so at least one run hits the bound.
        assert confirmed >= 1


class TestPersistenceWorkflow:
    def test_save_map_reload_revalidate(self, tmp_path):
        """Archive an instance + solution, reload, and re-verify the time."""
        graph = layered_random_dag(num_tasks=50, rng=3)
        system = torus2d(2, 3)
        clustering = RandomClusterer(6).cluster(graph, rng=3)
        result = map_graph(graph, clustering, system, rng=3)

        path = tmp_path / "solved.json"
        save_instance(path, graph, system, clustering, result.assignment)
        g2, s2, c2, a2 = load_instance(path)
        schedule = evaluate_assignment(ClusteredGraph(g2, c2), s2, a2)
        assert schedule.total_time == result.total_time


class TestMatricesConsistency:
    def test_collect_matches_components(self):
        graph = layered_random_dag(num_tasks=30, rng=4)
        system = hypercube(2)
        clustering = RandomClusterer(4).cluster(graph, rng=4)
        clustered = ClusteredGraph(graph, clustering)
        result = CriticalEdgeMapper(rng=4).map(clustered, system)
        matrices = collect_matrices(
            clustered,
            system,
            result.assignment,
            ideal=result.ideal,
            analysis=result.analysis,
        )
        assert np.array_equal(matrices.i_start, result.ideal.i_start)
        assert np.array_equal(matrices.start, result.schedule.start)
        assert matrices.c_abs_edge[:, -1].tolist() == (
            result.analysis.critical_degree.tolist()
        )
        # comm = clus_edge * hops for every pair.
        labels = clustering.labels
        hosts = result.assignment.placement[labels]
        hops = system.shortest[np.ix_(hosts, hosts)]
        assert np.array_equal(matrices.comm, clustered.clus_edge * hops)


class TestFidelityOrdering:
    def test_modes_ordered_against_paper_model(self):
        graph = layered_random_dag(num_tasks=70, rng=5)
        system = mesh2d(2, 4)
        clustering = RandomClusterer(8).cluster(graph, rng=5)
        clustered = ClusteredGraph(graph, clustering)
        a = Assignment.random(8, rng=5)
        base = simulate(clustered, system, a).makespan
        serial = simulate(
            clustered, system, a, SimConfig(serialize_processors=True)
        ).makespan
        contention = simulate(
            clustered, system, a, SimConfig(link_contention=True)
        ).makespan
        assert serial >= base and contention >= base
