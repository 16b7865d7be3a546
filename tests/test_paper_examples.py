"""Tests for repro.workloads.paper_examples — every fact the paper states."""

from itertools import permutations

import numpy as np
import pytest

from repro.core import (
    AbstractGraph,
    Assignment,
    ClusteredGraph,
    CriticalEdgeMapper,
    analyze_criticality,
    evaluate_assignment,
    ideal_schedule,
)
from repro.workloads import (
    RUNNING_EXAMPLE_I_END,
    RUNNING_EXAMPLE_I_START,
    RUNNING_EXAMPLE_LOWER_BOUND,
    bokhari_counterexample_system,
    bokhari_counterexample_task_graph,
    lee_counterexample_phases,
    lee_counterexample_system,
    lee_counterexample_task_graph,
    running_example_assignment_vector,
    running_example_clustered,
    running_example_clustering,
    running_example_system,
    running_example_task_graph,
    singleton_clustering,
)
from tests.conftest import oracle_lee_cost


class TestRunningExample:
    def test_task_weights(self):
        g = running_example_task_graph()
        assert g.task_sizes.tolist() == [1, 1, 2, 3, 3, 1, 3, 2, 2, 3, 1]

    def test_quoted_edge_weights(self):
        g = running_example_task_graph()
        # The weights the paper's prose quotes (1-based ids).
        assert g.weight(0, 1) == 1   # (1,2)
        assert g.weight(0, 2) == 2   # (1,3)
        assert g.weight(0, 3) == 2   # (1,4)
        assert g.weight(4, 8) == 1   # (5,9)
        assert g.weight(5, 10) == 1  # (6,11)
        assert g.weight(6, 8) == 2   # (7,9)

    def test_clustering_structure(self):
        c = running_example_clustering()
        assert c.num_clusters == 4
        # Tasks 1 and 4 (0-based 0 and 3) share cluster 0 (Sec. 4.1).
        assert c.cluster_of(0) == c.cluster_of(3) == 0

    def test_ideal_schedule_matches_fig22b(self):
        ideal = ideal_schedule(running_example_clustered())
        assert ideal.i_start.tolist() == list(RUNNING_EXAMPLE_I_START)
        assert ideal.i_end.tolist() == list(RUNNING_EXAMPLE_I_END)

    def test_lower_bound_is_14(self):
        ideal = ideal_schedule(running_example_clustered())
        assert ideal.total_time == RUNNING_EXAMPLE_LOWER_BOUND == 14

    def test_latest_tasks_are_9_and_11(self):
        ideal = ideal_schedule(running_example_clustered())
        assert (ideal.latest_tasks() + 1).tolist() == [9, 11]

    def test_edge_59_slack_is_2(self):
        """Sec. 2.1: e59 not critical — 'only when the increase is by more
        than 2 will the ideal graph edge be affected'."""
        ideal = ideal_schedule(running_example_clustered())
        assert ideal.slack(4, 8) == 2

    def test_critical_abstract_matrix_matches_fig20b(self):
        an = analyze_criticality(running_example_clustered())
        expected = np.zeros((4, 4), dtype=np.int64)
        expected[0, 1] = expected[1, 0] = 3
        expected[0, 2] = expected[2, 0] = 6
        assert np.array_equal(an.c_abs_edge, expected)
        assert an.critical_degree.tolist() == [9, 3, 6, 0]

    def test_edge_79_is_critical(self):
        an = analyze_criticality(running_example_clustered())
        assert an.crit_mask[6, 8]

    def test_system_graph_matches_fig21(self):
        s = running_example_system()
        assert s.num_nodes == 4
        assert s.deg.tolist() == [2, 2, 2, 2]
        assert s.shortest[0].tolist() == [0, 1, 2, 1]

    def test_fig23_assignment_achieves_lower_bound(self):
        clustered = running_example_clustered()
        schedule = evaluate_assignment(
            clustered,
            running_example_system(),
            Assignment(running_example_assignment_vector()),
        )
        assert schedule.total_time == 14
        # Fig. 23-d: start/end equal the ideal values.
        assert schedule.start.tolist() == list(RUNNING_EXAMPLE_I_START)
        assert schedule.end.tolist() == list(RUNNING_EXAMPLE_I_END)

    def test_full_pipeline_terminates_immediately(self):
        result = CriticalEdgeMapper(rng=0).map(
            running_example_clustered(), running_example_system()
        )
        assert result.is_provably_optimal
        assert result.refinement.trials == 0


class TestBokhariInstance:
    def test_shape_matches_fig7(self):
        g = bokhari_counterexample_task_graph()
        assert g.num_tasks == 8
        assert g.num_edges == 9
        assert g.degree(2) == 4  # task 3 (1-based) has degree 4

    def test_system_is_cubic(self):
        s = bokhari_counterexample_system()
        assert s.num_nodes == 8
        assert (s.deg == 3).all()

    def test_max_cardinality_is_8(self):
        """The paper: 'eight out of nine problem edges' is the optimum."""
        from repro.experiments import run_bokhari_counterexample

        report = run_bokhari_counterexample()
        assert report.objective_best == 8

    def test_phenomenon_certified(self):
        from repro.experiments import run_bokhari_counterexample

        report = run_bokhari_counterexample()
        assert report.phenomenon_holds
        assert report.gap >= 2  # the paper's 23 vs 21
        assert report.assignments_enumerated == 40320
        assert report.global_best_time == report.lower_bound

    def test_objective_best_is_the_recount_at_the_best_placement(self):
        from repro.baselines import cardinalities, cardinality
        from repro.experiments import run_bokhari_counterexample

        graph = bokhari_counterexample_task_graph()
        system = bokhari_counterexample_system()
        abstract = AbstractGraph(ClusteredGraph(graph, singleton_clustering(graph)))
        placements = np.asarray(list(permutations(range(8))))
        best = placements[cardinalities(abstract, system, placements).argmax()]
        assert (
            cardinality(abstract, system, Assignment.from_placement(best))
            == run_bokhari_counterexample().objective_best
        )


class TestLeeInstance:
    def test_shape_matches_fig13(self):
        g = lee_counterexample_task_graph()
        assert g.num_tasks == 8
        assert g.num_edges == 7
        assert g.degree(2) == 4

    def test_edge_weights_match_fig15(self):
        g = lee_counterexample_task_graph()
        assert g.weight(0, 2) == 3  # (1,3)
        assert g.weight(1, 2) == 3  # (2,3)
        assert g.weight(1, 6) == 2  # (2,7)
        assert g.weight(2, 3) == 4  # (3,4)
        assert g.weight(2, 4) == 2  # (3,5)
        assert g.weight(3, 5) == 1  # (4,6)
        assert g.weight(4, 7) == 3  # (5,8)

    def test_phases_match_fig15(self):
        phases = lee_counterexample_phases()
        assert len(phases) == 4
        assert (0, 2) in phases[0] and (1, 6) in phases[0]
        assert phases[2] == [(3, 5)]
        assert phases[3] == [(4, 7)]

    def test_minimum_cost_is_11(self):
        """Fig. 15: the optimal communication cost is 11 units."""
        from repro.experiments import run_lee_counterexample

        report = run_lee_counterexample()
        assert report.objective_best == 11

    def test_phenomenon_certified(self):
        from repro.experiments import run_lee_counterexample

        report = run_lee_counterexample()
        assert report.phenomenon_holds
        assert report.gap >= 2  # the paper's 23 vs 21

    def test_objective_best_is_the_oracle_at_the_best_placement(self):
        from repro.baselines import LeeCost
        from repro.experiments import run_lee_counterexample

        graph = lee_counterexample_task_graph()
        system = lee_counterexample_system()
        clustered = ClusteredGraph(graph, singleton_clustering(graph))
        phases = lee_counterexample_phases()
        placements = np.asarray(list(permutations(range(8))))
        best = placements[LeeCost(clustered, system, phases).costs(placements).argmin()]
        assert (
            oracle_lee_cost(clustered, system, Assignment.from_placement(best), phases)
            == run_lee_counterexample().objective_best
        )


class TestSingletonClustering:
    def test_each_task_own_cluster(self):
        g = lee_counterexample_task_graph()
        c = singleton_clustering(g)
        assert c.num_clusters == g.num_tasks
        cg = ClusteredGraph(g, c)
        assert np.array_equal(cg.clus_edge, g.prob_edge)
