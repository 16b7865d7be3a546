"""Unit tests for repro.core.critical (critical edges, Theorems 1-2)."""

import numpy as np
import pytest

from repro.core import (
    ClusteredGraph,
    Clustering,
    TaskGraph,
    analyze_criticality,
    collect_matrices,
    ideal_schedule,
)


class TestCriticalEdges:
    def test_diamond_critical_chain(self, diamond_clustered):
        an = analyze_criticality(diamond_clustered)
        # Latest is 3; (1,3) tight (slack 0), (2,3) slack 2; (0,1) tight.
        assert an.critical_problem_edges() == [(0, 1), (1, 3)]
        # One mask entry per edge, in in-edge order: (0,1) (0,2) (1,3) (2,3).
        assert an.crit_mask.tolist() == [True, False, True, False]
        weights = diamond_clustered.cross_in_weights[an.crit_mask]
        assert weights.tolist() == [1, 2]

    def test_on_critical_path(self, diamond_clustered):
        an = analyze_criticality(diamond_clustered)
        assert an.on_critical_path.tolist() == [True, True, False, True]

    def test_tight_but_off_path_edge_not_critical(self):
        # 0 ->(tight) 1 (short) and 0 ->(tight) 2 (long): only (0,2) critical.
        g = TaskGraph([1, 1, 5], [(0, 1, 1), (0, 2, 1)])
        cg = ClusteredGraph(g, Clustering([0, 1, 2]))
        an = analyze_criticality(cg)
        assert an.critical_problem_edges() == [(0, 2)]

    def test_critical_abstract_edges_weights(self, diamond_clustered):
        an = analyze_criticality(diamond_clustered)
        # Singleton clusters: critical abstract edge (0,1) w=1, (1,3) w=2.
        assert an.c_abs_edge[0, 1] == 1
        assert an.c_abs_edge[1, 0] == 1
        assert an.c_abs_edge[1, 3] == 2
        assert an.c_abs_edge[2, 3] == 0

    def test_critical_degree(self, diamond_clustered):
        an = analyze_criticality(diamond_clustered)
        assert an.critical_degree.tolist() == [1, 3, 0, 2]
        assert np.array_equal(an.critical_degree, an.c_abs_edge.sum(axis=1))

    def test_clusters_with_critical_edges(self, diamond_clustered):
        an = analyze_criticality(diamond_clustered)
        assert an.clusters_with_critical_edges().tolist() == [0, 1, 3]

    def test_is_abstract_edge_critical(self, diamond_clustered):
        an = analyze_criticality(diamond_clustered)
        assert an.is_abstract_edge_critical(0, 1)
        assert not an.is_abstract_edge_critical(2, 3)

    def test_intra_propagation_default(self):
        """Criticality crosses a tight intra-cluster edge by default."""
        # chain 0 ->(w2, inter) 1 ->(intra) 2, clusters {0} {1,2}.
        g = TaskGraph([1, 1, 1], [(0, 1, 2), (1, 2, 1)])
        cg = ClusteredGraph(g, Clustering([0, 1, 1]))
        an = analyze_criticality(cg)
        # (1,2) intra tight -> propagates; (0,1) inter tight -> critical.
        assert (0, 1) in an.critical_problem_edges()
        assert (1, 2) in an.critical_problem_edges()
        assert an.c_abs_edge[0, 1] == 2  # only the inter weight counts

    def test_intra_propagation_disabled(self):
        g = TaskGraph([1, 1, 1], [(0, 1, 2), (1, 2, 1)])
        cg = ClusteredGraph(g, Clustering([0, 1, 1]))
        an = analyze_criticality(cg, propagate_through_intra=False)
        # The literal reading stops at the intra edge: nothing upstream marked.
        assert (0, 1) not in an.critical_problem_edges()
        assert an.c_abs_edge.sum() == 0

    def test_critical_edge_weight_is_clustered_weight(self, medium_instance):
        clustered, system = medium_instance
        an = analyze_criticality(clustered)
        crit_edge = collect_matrices(clustered, system, analysis=an).crit_edge
        mask = np.zeros(crit_edge.shape, dtype=bool)
        srcs, dsts, _ = clustered.graph.in_edge_arrays()
        mask[srcs[an.crit_mask], dsts[an.crit_mask]] = True
        assert np.array_equal(crit_edge[mask], clustered.clus_edge[mask])
        assert (crit_edge[~mask] == 0).all()

    def test_critical_edges_are_tight(self, medium_instance):
        """Every critical edge has zero slack (necessary condition)."""
        clustered, _ = medium_instance
        ideal = ideal_schedule(clustered)
        an = analyze_criticality(clustered, ideal)
        for u, v in an.critical_problem_edges():
            assert ideal.slack(u, v) == 0
        weights = clustered.cross_in_weights
        assert (ideal.i_edge[an.crit_mask] == weights[an.crit_mask]).all()

    def test_semantic_definition_on_small_instance(self, diamond_clustered):
        """Definition check: raising a critical edge's weight raises the
        bound; raising a non-critical edge's weight (by 1) does not."""
        from repro.core import lower_bound

        base = lower_bound(diamond_clustered)
        an = analyze_criticality(diamond_clustered)
        critical = set(an.critical_problem_edges())
        graph = diamond_clustered.graph
        for e in graph.edges():
            bumped = graph.prob_edge.copy()
            bumped[e.src, e.dst] += 1
            g2 = TaskGraph(graph.task_sizes, bumped)
            cg2 = ClusteredGraph(g2, diamond_clustered.clustering)
            new_bound = lower_bound(cg2)
            if (e.src, e.dst) in critical:
                assert new_bound > base, f"critical edge {e} did not raise bound"
            else:
                assert new_bound == base, f"non-critical edge {e} raised bound"

    def test_precomputed_ideal_accepted(self, diamond_clustered):
        ideal = ideal_schedule(diamond_clustered)
        an = analyze_criticality(diamond_clustered, ideal)
        assert an.ideal is ideal

    def test_paper_running_example_critical_structure(self):
        from repro.workloads import running_example_clustered

        clustered = running_example_clustered()
        an = analyze_criticality(clustered)
        assert an.critical_abstract_edges() == [(0, 1), (0, 2)]
        assert an.c_abs_edge[0, 1] == 3
        assert an.c_abs_edge[0, 2] == 6
        assert an.critical_degree[0] == 9
        # The edge the paper singles out: e79 (0-based (6, 8)).
        assert (6, 8) in an.critical_problem_edges()
        assert clustered.comm_weight(6, 8) == 2

    def test_arrays_read_only(self, diamond_clustered):
        an = analyze_criticality(diamond_clustered)
        with pytest.raises(ValueError):
            an.crit_mask[0] = False
        with pytest.raises(ValueError):
            an.c_abs_edge[0, 1] = 9
