"""Edge cases and failure injection across subsystems.

Degenerate instances (single task, single processor, no edges, maximal
clustering), boundary parameters, and interactions between the fidelity
knobs — the inputs most likely to expose off-by-one and empty-collection
bugs.
"""

import numpy as np
import pytest

from repro.baselines import anneal_mapping, average_random_mapping
from repro.core import (
    Assignment,
    ClusteredGraph,
    Clustering,
    CriticalEdgeMapper,
    DeltaEvaluator,
    TaskGraph,
    analyze_criticality,
    evaluate_assignment,
    ideal_schedule,
    list_schedule,
    lower_bound,
    total_time,
    verify_schedule,
)
from repro.utils import GraphError, MappingError
from repro.core.refine import refine_random
from repro.sim import SimConfig, simulate
from repro.topology import SystemGraph, chain, complete, ring
from repro.workloads import layered_random_dag


def _one_node_system() -> SystemGraph:
    return SystemGraph(np.zeros((1, 1), dtype=int))


class TestDegenerateInstances:
    def test_single_task_single_processor(self):
        g = TaskGraph([7])
        cg = ClusteredGraph(g, Clustering([0]))
        system = _one_node_system()
        result = CriticalEdgeMapper(rng=0).map(cg, system)
        assert result.total_time == 7
        assert result.is_provably_optimal

    def test_single_task_pipeline_everything(self):
        g = TaskGraph([3])
        cg = ClusteredGraph(g, Clustering([0]))
        system = _one_node_system()
        a = Assignment.identity(1)
        assert total_time(cg, system, a) == 3
        assert simulate(cg, system, a).makespan == 3
        assert list_schedule(cg, system, a).makespan == 3
        ev = DeltaEvaluator(cg, system, a)
        assert ev.total_time == 3

    def test_edgeless_graph_bound_is_max_task(self):
        g = TaskGraph([2, 9, 4, 1])
        cg = ClusteredGraph(g, Clustering([0, 1, 2, 3]))
        assert lower_bound(cg) == 9
        # Any assignment achieves it (no communication at all).
        result = CriticalEdgeMapper(rng=0).map(cg, ring(4))
        assert result.total_time == 9
        assert result.is_provably_optimal

    def test_no_critical_edges_on_edgeless_graph(self):
        g = TaskGraph([2, 9, 4])
        cg = ClusteredGraph(g, Clustering([0, 1, 2]))
        an = analyze_criticality(cg)
        assert not an.crit_mask.any()
        assert an.on_critical_path.tolist() == [False, True, False]

    def test_all_tasks_one_cluster_one_processor(self):
        g = layered_random_dag(num_tasks=20, rng=0)
        cg = ClusteredGraph(g, Clustering([0] * 20))
        system = _one_node_system()
        result = CriticalEdgeMapper(rng=0).map(cg, system)
        # All comm internal: bound equals node-weight critical path.
        assert result.is_provably_optimal

    def test_two_tasks_two_processors(self):
        g = TaskGraph([1, 1], [(0, 1, 5)])
        cg = ClusteredGraph(g, Clustering([0, 1]))
        system = chain(2)
        result = CriticalEdgeMapper(rng=0).map(cg, system)
        assert result.total_time == 1 + 5 + 1
        assert result.is_provably_optimal


class TestDegenerateGraphValidation:
    """Degenerate task graphs must fail loudly with typed errors — or
    evaluate correctly — never crash with a raw numpy traceback."""

    def test_empty_task_list_rejected(self):
        with pytest.raises(GraphError, match="at least one task"):
            TaskGraph([])

    def test_self_loop_triple_rejected_regardless_of_weight(self):
        # Regression: a zero-weight self-loop used to report the
        # misleading "must have positive weight" instead of "self-loop".
        with pytest.raises(GraphError, match="self-loop"):
            TaskGraph([1, 1], [(0, 0, 2)])
        with pytest.raises(GraphError, match="self-loop"):
            TaskGraph([1, 1], [(0, 0, 0)])

    def test_zero_weight_edge_triple_rejected_with_guidance(self):
        with pytest.raises(GraphError, match="zero"):
            TaskGraph([1, 1], [(0, 1, 0)])

    def test_zero_matrix_entries_mean_no_edge(self):
        # The matrix form's explicit convention: 0 == absent, and the
        # edgeless graph scores as pure independent work everywhere.
        g = TaskGraph([2, 5], np.zeros((2, 2), dtype=int))
        assert g.num_edges == 0
        cg = ClusteredGraph(g, Clustering([0, 1]))
        system = chain(2)
        a = Assignment.identity(2)
        assert total_time(cg, system, a) == 5
        verify_schedule(evaluate_assignment(cg, system, a))
        assert DeltaEvaluator(cg, system, a).total_time == 5

    def test_single_task_through_delta_evaluator(self):
        g = TaskGraph([4])
        cg = ClusteredGraph(g, Clustering([0]))
        ev = DeltaEvaluator(cg, _one_node_system(), Assignment.identity(1))
        assert ev.total_time == 4
        assert ev.comm_volume == 0
        assert ev.loads().tolist() == [4]
        assert ev.probe_swap(0, 0) == 4
        assert ev.verify()

    def test_mismatched_assignment_raises_mapping_error(self):
        # Regression: the incremental evaluator used to crash with IndexError.
        g = TaskGraph([1, 1, 1], [(0, 1, 2), (1, 2, 2)])
        cg = ClusteredGraph(g, Clustering([0, 1, 2]))
        with pytest.raises(MappingError, match="assignment covers"):
            DeltaEvaluator(cg, chain(3), Assignment.identity(2))

    def test_cluster_count_must_match_system(self):
        g = TaskGraph([1, 1, 1], [(0, 1, 2), (1, 2, 2)])
        cg = ClusteredGraph(g, Clustering([0, 1, 2]))
        with pytest.raises(MappingError, match="na must equal ns"):
            DeltaEvaluator(cg, chain(2), Assignment.identity(2))
        with pytest.raises(MappingError, match="na must equal ns"):
            total_time(cg, chain(2), Assignment.identity(2))


class TestRefinementBoundaries:
    def test_zero_trial_budget(self):
        g = layered_random_dag(num_tasks=30, rng=1)
        cg = ClusteredGraph(g, Clustering(np.arange(30) % 5, num_clusters=5))
        system = ring(5)
        from repro.core import AbstractGraph, initial_assignment

        an = analyze_criticality(cg)
        init = initial_assignment(AbstractGraph(cg), an, system, rng=1)
        result = refine_random(cg, system, an, init, rng=1, max_trials=0)
        assert result.trials == 0
        assert result.assignment == init

    def test_all_clusters_pinned_leaves_nothing_movable(self):
        """A fully critical 3-cluster chain on a triangle: every cluster
        pinned, refinement is a no-op."""
        g = TaskGraph([1, 1, 1], [(0, 1, 2), (1, 2, 2)])
        cg = ClusteredGraph(g, Clustering([0, 1, 2]))
        system = complete(3)
        from repro.core import AbstractGraph, initial_assignment

        an = analyze_criticality(cg)
        init = initial_assignment(AbstractGraph(cg), an, system, rng=0)
        result = refine_random(cg, system, an, init, rng=0)
        # On the closure the initial assignment hits the bound anyway.
        assert result.reached_lower_bound


class TestSimKnobInteractions:
    def test_setup_with_contention(self):
        g = layered_random_dag(num_tasks=40, rng=2)
        cg = ClusteredGraph(g, Clustering(np.arange(40) % 4, num_clusters=4))
        system = ring(4)
        a = Assignment.random(4, rng=2)
        plain = simulate(cg, system, a, SimConfig(link_contention=True))
        with_setup = simulate(
            cg, system, a, SimConfig(link_contention=True, link_setup=2)
        )
        assert with_setup.makespan >= plain.makespan

    def test_setup_monotone(self):
        g = layered_random_dag(num_tasks=40, rng=3)
        cg = ClusteredGraph(g, Clustering(np.arange(40) % 4, num_clusters=4))
        system = ring(4)
        a = Assignment.random(4, rng=3)
        spans = [
            simulate(cg, system, a, SimConfig(link_setup=s)).makespan
            for s in (0, 1, 3)
        ]
        assert spans == sorted(spans)

    def test_all_knobs_together_run_clean(self):
        g = layered_random_dag(num_tasks=50, rng=4)
        cg = ClusteredGraph(g, Clustering(np.arange(50) % 6, num_clusters=6))
        system = ring(6)
        a = Assignment.random(6, rng=4)
        sim = simulate(cg, system, a, SimConfig(True, True, link_setup=2))
        assert sim.makespan >= total_time(cg, system, a)
        assert len(sim.trace.tasks) == 50


class TestAnnealingBoundaries:
    def test_two_node_instance(self):
        g = TaskGraph([1, 1], [(0, 1, 3)])
        cg = ClusteredGraph(g, Clustering([0, 1]))
        system = chain(2)
        result = anneal_mapping(cg, system, rng=0)
        assert result.total_time == 5  # both assignments equivalent

    def test_zero_moves(self):
        g = layered_random_dag(num_tasks=20, rng=5)
        cg = ClusteredGraph(g, Clustering(np.arange(20) % 4, num_clusters=4))
        result = anneal_mapping(
            cg, ring(4), rng=5, moves_per_temperature=0, min_temperature=0.99,
            initial_temperature=1.0,
        )
        assert result.total_time >= lower_bound(cg)


class TestIdealScheduleEdgeCases:
    def test_heavier_clustering_of_same_instance(self):
        """Fully-clustered graphs have no inter-cluster edges at all."""
        g = layered_random_dag(num_tasks=25, rng=6)
        cg = ClusteredGraph(g, Clustering([0] * 25))
        ideal = ideal_schedule(cg)
        an = analyze_criticality(cg)
        # All critical edges are intra-cluster: zero abstract weight.
        assert an.c_abs_edge.sum() == 0
        assert ideal.total_time == lower_bound(cg)

    def test_evaluate_on_closure_equals_ideal_always(self):
        for seed in range(4):
            g = layered_random_dag(num_tasks=30, rng=seed)
            cg = ClusteredGraph(g, Clustering(np.arange(30) % 6, num_clusters=6))
            ideal = ideal_schedule(cg)
            sched = evaluate_assignment(
                cg, complete(6), Assignment.random(6, rng=seed)
            )
            assert sched.total_time == ideal.total_time


class TestRandomMappingDegenerate:
    def test_single_processor_stats(self):
        g = TaskGraph([2, 3])
        cg = ClusteredGraph(g, Clustering([0, 0]))
        stats = average_random_mapping(cg, _one_node_system(), samples=3, rng=0)
        assert stats.best_total_time == stats.worst_total_time == 3
