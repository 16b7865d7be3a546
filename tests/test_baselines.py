"""Unit tests for the repro.baselines package."""

import numpy as np
import pytest

from repro.api import build_topology
from repro.baselines import (
    LeeCost,
    all_assignment_total_times,
    anneal_mapping,
    average_random_mapping,
    bokhari_mapping,
    cardinality,
    communication_cost,
    enumerate_assignments,
    exhaustive_optimum,
    lee_mapping,
    phases_by_level,
    random_mapping,
)
from repro.core import (
    AbstractGraph,
    Assignment,
    ClusteredGraph,
    Clustering,
    TaskGraph,
    lower_bound,
    total_time,
)
from repro.topology import chain, complete, hypercube, mesh2d, ring, star
from repro.utils import GraphError, MappingError
from repro.workloads import (
    bokhari_counterexample_system,
    bokhari_counterexample_task_graph,
    layered_random_dag,
    lee_counterexample_phases,
    lee_counterexample_system,
    lee_counterexample_task_graph,
    singleton_clustering,
)
from tests.conftest import (
    TOPOLOGY_SPECS,
    oracle_all_total_times,
    oracle_bokhari_mapping,
    oracle_lee_cost,
    oracle_phases_by_level,
    random_instance,
    weighted_ring4,
)


def _lee_case(case: str):
    """``(clustered, system, phases)`` for one Lee-objective oracle case."""
    if case in TOPOLOGY_SPECS:
        system = build_topology(TOPOLOGY_SPECS[case], rng=0)
        return (*random_instance(7, num_tasks=4 * system.num_nodes, system=system), None)
    if case == "weighted":
        return (*random_instance(7, num_tasks=20, system=weighted_ring4()), None)
    fig13 = lee_counterexample_task_graph()
    paper = ClusteredGraph(fig13, singleton_clustering(fig13))
    if case == "fig15-phases":
        return paper, lee_counterexample_system(), lee_counterexample_phases()
    if case == "listed-non-edges":
        # Reversed edges, absent pairs and a phase of non-edges weigh 0.
        phases = lee_counterexample_phases()
        phases[1] += [(2, 0), (0, 7)]
        phases.append([(5, 6), (7, 4)])
        return paper, lee_counterexample_system(), phases
    if case == "intra-cluster":
        graph = TaskGraph([2, 3, 1, 2], [(0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 3, 1)])
        return ClusteredGraph(graph, Clustering([0, 0, 1, 1])), chain(2), None
    assert case == "no-cross-edge"
    graph = TaskGraph([1, 1, 1, 1], [(0, 1, 3), (2, 3, 2)])
    return ClusteredGraph(graph, Clustering([0, 0, 1, 1])), chain(2), None


class TestRandomMapping:
    def test_single_sample(self, diamond_clustered, ring4):
        assignment, t = random_mapping(diamond_clustered, ring4, rng=0)
        assert t == total_time(diamond_clustered, ring4, assignment)

    def test_average_stats_consistent(self, diamond_clustered, ring4):
        stats = average_random_mapping(diamond_clustered, ring4, samples=15, rng=0)
        assert stats.samples == 15
        assert stats.best_total_time <= stats.mean_total_time <= stats.worst_total_time
        assert (
            total_time(diamond_clustered, ring4, stats.best_assignment)
            == stats.best_total_time
        )

    def test_deterministic_by_seed(self, diamond_clustered, ring4):
        a = average_random_mapping(diamond_clustered, ring4, samples=5, rng=3)
        b = average_random_mapping(diamond_clustered, ring4, samples=5, rng=3)
        assert a.mean_total_time == b.mean_total_time

    def test_bad_samples(self, diamond_clustered, ring4):
        with pytest.raises(ValueError):
            average_random_mapping(diamond_clustered, ring4, samples=0)


class TestCardinality:
    def test_complete_system_maximal(self, diamond_clustered):
        ab = AbstractGraph(diamond_clustered)
        card = cardinality(ab, complete(4), Assignment.identity(4))
        assert card == ab.num_edges()  # every abstract edge on a system edge

    def test_chain_counts_adjacent_only(self, diamond_clustered):
        ab = AbstractGraph(diamond_clustered)
        # identity on chain 0-1-2-3: edges (0,1),(2,3) adjacent; (0,2),(1,3) not.
        card = cardinality(ab, chain(4), Assignment.identity(4))
        assert card == 2

    def test_weighted_variant(self, diamond_clustered):
        ab = AbstractGraph(diamond_clustered)
        w = cardinality(ab, chain(4), Assignment.identity(4), weighted=True)
        assert w == 1 + 1  # weights of (0,1) and (2,3)

    def test_bokhari_search_maximizes(self, medium_instance):
        clustered, system = medium_instance
        ab = AbstractGraph(clustered)
        result = bokhari_mapping(clustered, system, rng=0, restarts=2)
        # The hill climb must at least beat a fresh random assignment on average.
        rand_card = np.mean(
            [
                cardinality(ab, system, Assignment.random(8, rng=s))
                for s in range(20)
            ]
        )
        assert result.cardinality >= rand_card
        assert result.evaluations > 0

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize(
        "system",
        [chain(3), ring(4), star(5), hypercube(3), mesh2d(2, 3)],
        ids=["chain3", "ring4", "star5", "hypercube3", "mesh2x3"],
    )
    def test_batched_rows_match_the_scalar_pass(self, system, weighted):
        """Scoring a cluster's remaining partners in one batch, committing
        the first improvement and rescanning after it, gives the
        per-pair pass's assignment, cardinality and evaluations."""
        for seed in range(3):
            clustered, system = random_instance(
                seed, num_tasks=5 * system.num_nodes, system=system
            )
            want, _ = oracle_bokhari_mapping(clustered, system, rng=seed, weighted=weighted)
            got = bokhari_mapping(clustered, system, rng=seed, weighted=weighted)
            assert got == want, seed

    def test_rows_with_several_commits(self):
        """Rows that commit more than once: each rescan starts right
        after the committed partner, against the new placement."""
        multi = 0
        for seed in range(3):
            clustered, system = random_instance(seed, num_tasks=40)
            want, events = oracle_bokhari_mapping(clustered, system, rng=seed, weighted=True)
            assert bokhari_mapping(clustered, system, rng=seed, weighted=True) == want
            multi += events["multi_commit_rows"]
        assert multi > 0


class TestLee:
    def test_phases_by_level_cover_all_edges(self, medium_instance):
        clustered, _ = medium_instance
        phases = phases_by_level(clustered.graph)
        counted = sum(len(p) for p in phases)
        assert counted == clustered.graph.num_edges

    def test_phases_by_level_order(self, diamond_graph):
        phases = phases_by_level(diamond_graph)
        assert phases[0] == [(0, 1), (0, 2)]
        assert set(phases[1]) == {(1, 3), (2, 3)}

    def test_cost_on_closure_is_sum_of_phase_maxima(self, diamond_clustered):
        cost = communication_cost(
            diamond_clustered, complete(4), Assignment.identity(4)
        )
        # phase 0 max(1, 2) + phase 1 max(2, 1) = 4, all distances 1.
        assert cost == 4

    def test_cost_scales_with_distance(self, diamond_clustered):
        near = communication_cost(diamond_clustered, complete(4), Assignment.identity(4))
        far = communication_cost(diamond_clustered, chain(4), Assignment.identity(4))
        assert far >= near

    def test_intra_cluster_edges_free(self, diamond_graph):
        cg = ClusteredGraph(diamond_graph, Clustering([0, 0, 1, 1]))
        cost = communication_cost(cg, chain(2), Assignment.identity(2))
        # Only (0,2) w2 and (1,3) w2 cross; both in different phases? No:
        # phases by level: level0 edges (0,1),(0,2) -> max(0, 2); level1
        # edges (1,3),(2,3) -> max(2, 0) = 2. Total 4.
        assert cost == 4

    @pytest.mark.parametrize(
        "case",
        [
            *sorted(TOPOLOGY_SPECS),
            "weighted",
            "fig15-phases",
            "listed-non-edges",
            "intra-cluster",
            "no-cross-edge",
        ],
    )
    def test_cost_matches_the_scalar_oracle(self, case):
        """The batch objective, and its one-row form, equal the scalar
        per-phase loop on random placements."""
        clustered, system, phases = _lee_case(case)
        n = system.num_nodes
        assignments = [Assignment.random(n, rng=s) for s in range(12)]
        costs = LeeCost(clustered, system, phases).costs(
            np.stack([a.placement for a in assignments])
        )
        expected = [oracle_lee_cost(clustered, system, a, phases) for a in assignments]
        assert costs.tolist() == expected
        assert [
            communication_cost(clustered, system, a, phases) for a in assignments
        ] == expected
        if case == "no-cross-edge":
            assert expected == [0] * 12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_phases_by_level_matches_the_oracle(self, seed):
        graph = layered_random_dag(num_tasks=60, rng=seed)
        assert phases_by_level(graph) == oracle_phases_by_level(graph)

    def test_phase_naming_a_missing_task_raises(self, diamond_clustered):
        with pytest.raises(GraphError, match="outside"):
            LeeCost(diamond_clustered, ring(4), [[(0, 1)], [(2, 4)]])

    def test_lee_search_minimizes(self, medium_instance):
        clustered, system = medium_instance
        result = lee_mapping(clustered, system, rng=0, restarts=2)
        rand_cost = np.mean(
            [
                communication_cost(clustered, system, Assignment.random(8, rng=s))
                for s in range(20)
            ]
        )
        assert result.cost <= rand_cost


class TestAnnealing:
    def test_respects_lower_bound_and_consistency(self):
        clustered, system = random_instance(0)
        bound = lower_bound(clustered)
        result = anneal_mapping(clustered, system, rng=0, lower_bound=bound)
        assert result.total_time >= bound
        assert result.total_time == total_time(clustered, system, result.assignment)

    def test_early_stop_at_bound(self):
        from repro.workloads import running_example_clustered, running_example_system

        clustered = running_example_clustered()
        system = running_example_system()
        bound = lower_bound(clustered)
        result = anneal_mapping(clustered, system, rng=0, lower_bound=bound)
        assert result.reached_lower_bound
        assert result.total_time == bound

    def test_quench_only_improves(self):
        clustered, system = random_instance(1)
        start = Assignment.random(system.num_nodes, rng=5)
        start_time = total_time(clustered, system, start)
        result = anneal_mapping(
            clustered, system, rng=1, initial=start, quench=True
        )
        assert result.total_time <= start_time

    def test_beats_random_mean_usually(self):
        wins = 0
        for seed in range(6):
            clustered, system = random_instance(seed)
            ann = anneal_mapping(clustered, system, rng=seed)
            stats = average_random_mapping(clustered, system, samples=10, rng=seed)
            wins += ann.total_time <= stats.mean_total_time
        assert wins >= 5

    def test_single_node_system(self):
        g = TaskGraph([1, 2], [(0, 1, 1)])
        cg = ClusteredGraph(g, Clustering([0, 0]))
        from repro.topology import SystemGraph

        system = SystemGraph(np.zeros((1, 1), dtype=int))
        result = anneal_mapping(cg, system, rng=0)
        assert result.total_time == 3

    @pytest.mark.parametrize("quench", [False, True], ids=["annealing", "quenching"])
    @pytest.mark.parametrize(
        "params,message",
        [
            ({"cooling": 1.0}, r"cooling must be in \(0, 1\), got 1.0"),
            ({"cooling": 1.5}, r"cooling must be in \(0, 1\), got 1.5"),
            ({"cooling": 0.0}, r"cooling must be in \(0, 1\), got 0.0"),
            ({"min_temperature": -1}, "min_temperature must be > 0, got -1"),
            ({"min_temperature": 0.0}, "min_temperature must be > 0, got 0.0"),
            ({"min_temperature": float("nan")}, "min_temperature must be > 0, got nan"),
        ],
        ids=["cooling-1", "cooling-1.5", "cooling-0", "min-temp-neg", "min-temp-0",
             "min-temp-nan"],
    )
    def test_schedules_that_never_end_raise(self, params, message, quench):
        """Cooling >= 1 and a negative minimum temperature used to run
        forever, and a zero minimum until the temperature underflowed
        (about 14,500 levels)."""
        clustered, system = random_instance(0, num_tasks=60)
        with pytest.raises(MappingError, match=message):
            anneal_mapping(clustered, system, rng=0, quench=quench, **params)


class TestExhaustive:
    def test_enumerates_factorial(self):
        assert sum(1 for _ in enumerate_assignments(4)) == 24

    def test_vectorized_matches_scalar(self, diamond_clustered, ring4):
        perms, times = all_assignment_total_times(diamond_clustered, ring4)
        assert perms.shape == (24, 4)
        for k in range(24):
            assert times[k] == total_time(
                diamond_clustered, ring4, Assignment(perms[k])
            )

    @staticmethod
    def _assert_rows_match_oracle(clustered, system):
        perms, times = all_assignment_total_times(clustered, system)
        want_perms, want_times = oracle_all_total_times(clustered, system)
        assert np.array_equal(perms, want_perms)
        assert np.array_equal(times, want_times)

    def test_rows_match_oracle_on_diamond(self, diamond_clustered, ring4):
        self._assert_rows_match_oracle(diamond_clustered, ring4)

    @pytest.mark.parametrize("experiment", ["e4", "e5"])
    def test_counterexample_rows_match_oracle(self, experiment):
        """All ``8!`` rows of the Sec. 2.2 counterexample instances."""
        graph, system = {
            "e4": (bokhari_counterexample_task_graph(), bokhari_counterexample_system()),
            "e5": (lee_counterexample_task_graph(), lee_counterexample_system()),
        }[experiment]
        clustered = ClusteredGraph(graph, singleton_clustering(graph))
        self._assert_rows_match_oracle(clustered, system)

    @pytest.mark.parametrize(
        "spec,seed", [("ring:6", 0), ("ring:7", 1), ("hypercube:3", 2), ("mesh2d:2x4", 3)]
    )
    def test_random_rows_match_oracle(self, spec, seed):
        system = build_topology(spec)
        clustered, _ = random_instance(
            seed, num_tasks=5 * system.num_nodes, system=system
        )
        self._assert_rows_match_oracle(clustered, system)

    def test_optimum_certified(self, diamond_clustered, ring4):
        result = exhaustive_optimum(diamond_clustered, ring4)
        assert result.evaluated == 24
        assert result.total_time == total_time(
            diamond_clustered, ring4, result.assignment
        )
        _, times = all_assignment_total_times(diamond_clustered, ring4)
        assert result.total_time == times.min()
        assert result.optima_count == int((times == times.min()).sum())

    def test_heuristic_never_beats_exhaustive(self):
        from repro.core import CriticalEdgeMapper

        for seed in range(4):
            clustered, system = random_instance(seed, num_tasks=20, system=ring(6))
            best = exhaustive_optimum(clustered, system)
            ours = CriticalEdgeMapper(rng=seed).map(clustered, system)
            assert ours.total_time >= best.total_time

    def test_size_limit(self):
        clustered, system = random_instance(0, num_tasks=40, system=hypercube(4))
        with pytest.raises(MappingError, match="refused"):
            exhaustive_optimum(clustered, system)
