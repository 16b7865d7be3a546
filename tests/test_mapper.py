"""Unit tests for repro.core.mapper (the end-to-end facade)."""

import pytest

from repro.core import (
    CriticalEdgeMapper,
    evaluate_assignment,
    map_graph,
    total_time,
)
from repro.clustering import RandomClusterer
from repro.topology import hypercube, ring
from repro.workloads import layered_random_dag
from tests.conftest import random_instance


class TestCriticalEdgeMapper:
    def test_result_consistency(self):
        for seed in range(6):
            clustered, system = random_instance(seed)
            result = CriticalEdgeMapper(rng=seed).map(clustered, system)
            assert result.total_time == total_time(
                clustered, system, result.assignment
            )
            assert result.total_time >= result.lower_bound
            assert result.schedule.total_time == result.total_time
            assert result.initial_total_time == total_time(
                clustered, system, result.initial
            )
            assert result.total_time <= result.initial_total_time

    def test_percent_over_lower_bound(self):
        clustered, system = random_instance(0)
        result = CriticalEdgeMapper(rng=0).map(clustered, system)
        pct = result.percent_over_lower_bound()
        assert pct >= 100.0
        assert pct == pytest.approx(100.0 * result.total_time / result.lower_bound)

    def test_optimality_flag_matches_bound(self):
        for seed in range(6):
            clustered, system = random_instance(seed)
            result = CriticalEdgeMapper(rng=seed).map(clustered, system)
            assert result.is_provably_optimal == (
                result.total_time == result.lower_bound
            )

    def test_refinement_none(self):
        clustered, system = random_instance(1)
        result = CriticalEdgeMapper(refinement="none", rng=1).map(clustered, system)
        assert result.refinement.trials == 0
        assert result.assignment == result.initial

    def test_refinement_variants_all_valid(self):
        clustered, system = random_instance(2)
        for refinement in ("random", "pairwise", "none"):
            result = CriticalEdgeMapper(refinement=refinement, rng=2).map(
                clustered, system
            )
            assert result.total_time >= result.lower_bound

    def test_invalid_refinement_rejected(self):
        with pytest.raises(ValueError, match="refinement"):
            CriticalEdgeMapper(refinement="hillclimb")

    def test_unguided_ablation_runs(self):
        clustered, system = random_instance(3)
        result = CriticalEdgeMapper(use_critical_guidance=False, rng=3).map(
            clustered, system
        )
        # The blank analysis must wipe the guidance...
        assert result.total_time >= result.lower_bound
        # ...but the reported analysis is still the true one.
        assert result.analysis.crit_mask.any()

    def test_deterministic_with_seed(self):
        clustered, system = random_instance(4)
        a = CriticalEdgeMapper(rng=99).map(clustered, system)
        b = CriticalEdgeMapper(rng=99).map(clustered, system)
        assert a.assignment == b.assignment
        assert a.total_time == b.total_time

    def test_schedule_not_recomputed_when_refinement_kept_initial(self):
        clustered, system = random_instance(5)
        result = CriticalEdgeMapper(refinement="none", rng=5).map(clustered, system)
        expected = evaluate_assignment(clustered, system, result.initial)
        assert result.schedule.total_time == expected.total_time

    def test_worked_example_is_optimal(self):
        from repro.workloads import running_example_clustered, running_example_system

        result = CriticalEdgeMapper(rng=0).map(
            running_example_clustered(), running_example_system()
        )
        assert result.is_provably_optimal
        assert result.total_time == 14
        assert result.refinement.trials == 0


class TestMapGraphConvenience:
    def test_map_graph(self):
        graph = layered_random_dag(num_tasks=40, rng=1)
        clustering = RandomClusterer(num_clusters=8).cluster(graph, rng=1)
        result = map_graph(graph, clustering, hypercube(3), rng=1)
        assert result.total_time >= result.lower_bound

    def test_map_graph_forwards_kwargs(self):
        graph = layered_random_dag(num_tasks=40, rng=1)
        clustering = RandomClusterer(num_clusters=4).cluster(graph, rng=1)
        result = map_graph(
            graph, clustering, ring(4), rng=1, refinement="none"
        )
        assert result.refinement.trials == 0
