"""Unit tests for repro.core.ideal (ideal schedule + lower bound)."""

import numpy as np
import pytest

from repro.core import (
    ClusteredGraph,
    Clustering,
    TaskGraph,
    collect_matrices,
    ideal_schedule,
    lower_bound,
)


class TestIdealSchedule:
    def test_diamond_singleton(self, diamond_clustered):
        ideal = ideal_schedule(diamond_clustered)
        assert ideal.i_start.tolist() == [0, 3, 4, 8]
        assert ideal.i_end.tolist() == [2, 6, 5, 10]
        assert ideal.total_time == 10

    def test_diamond_merged_pair(self, diamond_graph):
        # Clusters {0,1} and {2,3}: edges (0,1) and (2,3) become free.
        cg = ClusteredGraph(diamond_graph, Clustering([0, 0, 1, 1]))
        ideal = ideal_schedule(cg)
        # 0:[0,2) 1:[2,5) (free edge), 2:[4,5) (comm 2), 3: max(5+2, 5+0)=7
        assert ideal.i_start.tolist() == [0, 2, 4, 7]
        assert ideal.total_time == 9

    def test_single_cluster_equals_critical_path_without_comm(self, diamond_graph):
        cg = ClusteredGraph(diamond_graph, Clustering([0, 0, 0, 0]))
        # All comm free: longest node-weight chain = 2+3+2 = 7.
        assert lower_bound(cg) == 7

    def test_ideal_edge_matrix(self, diamond_clustered, ring4):
        ideal = ideal_schedule(diamond_clustered)
        # i_edge = i_start[i] - i_end[j] per problem edge j -> i, in
        # in-edge order: (0,1) 3 - 2, (0,2) 4 - 2, (1,3) 8 - 6, (2,3) 8 - 5.
        assert ideal.i_edge.tolist() == [1, 2, 2, 3]
        # The dump's Fig. 22-a matrix: the same entries, zero off the edges.
        i_edge = collect_matrices(diamond_clustered, ring4, ideal=ideal).i_edge
        assert i_edge[0, 1] == 1
        assert i_edge[0, 2] == 2
        assert i_edge[1, 3] == 2
        assert i_edge[2, 3] == 3
        assert i_edge[0, 3] == 0
        assert i_edge[3, 0] == 0

    def test_ideal_edge_at_least_clustered_weight(self, diamond_clustered):
        ideal = ideal_schedule(diamond_clustered)
        assert (ideal.i_edge >= diamond_clustered.cross_in_weights).all()

    def test_slack(self, diamond_clustered):
        ideal = ideal_schedule(diamond_clustered)
        assert ideal.slack(0, 1) == 0  # tight
        assert ideal.slack(2, 3) == 2  # i_edge 3, weight 1

    def test_latest_tasks(self, diamond_clustered):
        ideal = ideal_schedule(diamond_clustered)
        assert ideal.latest_tasks().tolist() == [3]

    def test_multiple_latest_tasks(self):
        g = TaskGraph([1, 2, 2], [(0, 1, 1), (0, 2, 1)])
        cg = ClusteredGraph(g, Clustering([0, 1, 2]))
        ideal = ideal_schedule(cg)
        assert ideal.latest_tasks().tolist() == [1, 2]

    def test_entry_tasks_start_at_zero(self, medium_instance):
        clustered, _ = medium_instance
        ideal = ideal_schedule(clustered)
        for t in clustered.graph.sources().tolist():
            assert ideal.i_start[t] == 0

    def test_end_minus_start_is_size(self, medium_instance):
        clustered, _ = medium_instance
        ideal = ideal_schedule(clustered)
        assert np.array_equal(
            ideal.i_end - ideal.i_start, clustered.task_sizes
        )

    def test_precedence_respected(self, medium_instance):
        clustered, _ = medium_instance
        ideal = ideal_schedule(clustered)
        for e in clustered.graph.edges():
            assert (
                ideal.i_start[e.dst]
                >= ideal.i_end[e.src] + clustered.clus_edge[e.src, e.dst]
            )

    def test_coarser_clustering_never_raises_bound(self, diamond_graph):
        """Merging clusters only removes communication -> bound can't grow."""
        fine = lower_bound(ClusteredGraph(diamond_graph, Clustering([0, 1, 2, 3])))
        merged = lower_bound(ClusteredGraph(diamond_graph, Clustering([0, 0, 1, 1])))
        single = lower_bound(ClusteredGraph(diamond_graph, Clustering([0, 0, 0, 0])))
        assert single <= merged <= fine

    def test_arrays_read_only(self, diamond_clustered):
        ideal = ideal_schedule(diamond_clustered)
        with pytest.raises(ValueError):
            ideal.i_start[0] = 5
        with pytest.raises(ValueError):
            ideal.i_edge[0] = 5

    def test_paper_running_example(self):
        from repro.workloads import (
            RUNNING_EXAMPLE_I_END,
            RUNNING_EXAMPLE_I_START,
            RUNNING_EXAMPLE_LOWER_BOUND,
            running_example_clustered,
        )

        ideal = ideal_schedule(running_example_clustered())
        assert ideal.i_start.tolist() == list(RUNNING_EXAMPLE_I_START)
        assert ideal.i_end.tolist() == list(RUNNING_EXAMPLE_I_END)
        assert ideal.total_time == RUNNING_EXAMPLE_LOWER_BOUND
        assert (ideal.latest_tasks() + 1).tolist() == [9, 11]
