"""Unit tests for repro.core.clustered (Clustering + ClusteredGraph)."""

import numpy as np
import pytest

from repro.core import ClusteredGraph, Clustering
from repro.utils import GraphError


class TestClustering:
    def test_basic(self):
        c = Clustering([0, 1, 0, 1])
        assert c.num_clusters == 2
        assert c.num_tasks == 4
        assert c.cluster_of(2) == 0
        assert c.members(1).tolist() == [1, 3]

    def test_sizes(self):
        c = Clustering([0, 0, 1])
        assert c.sizes().tolist() == [2, 1]

    def test_explicit_cluster_count(self):
        with pytest.raises(GraphError, match="empty"):
            Clustering([0, 0], num_clusters=2)

    def test_empty_cluster_rejected(self):
        with pytest.raises(GraphError, match="empty"):
            Clustering([0, 2, 0], num_clusters=3)

    def test_negative_label_rejected(self):
        with pytest.raises(GraphError):
            Clustering([0, -1])

    def test_label_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            Clustering([0, 5], num_clusters=2)

    def test_from_groups(self):
        c = Clustering.from_groups([[0, 2], [1, 3]])
        assert c.cluster_of(0) == 0
        assert c.cluster_of(3) == 1

    def test_from_groups_must_partition(self):
        with pytest.raises(GraphError):
            Clustering.from_groups([[0, 1], [1, 2]])
        with pytest.raises(GraphError):
            Clustering.from_groups([[0], [2]])  # task 1 missing

    def test_load(self, diamond_graph):
        c = Clustering([0, 0, 1, 1])
        assert c.load(diamond_graph).tolist() == [5, 3]

    def test_clus_pnode_padding(self):
        c = Clustering([0, 0, 1])
        table = c.clus_pnode()
        assert table.shape == (2, 3)
        assert table[0].tolist() == [0, 1, -1]
        assert table[1].tolist() == [2, -1, -1]

    def test_equality(self):
        assert Clustering([0, 1]) == Clustering([0, 1])
        assert Clustering([0, 1]) != Clustering([1, 0])

    def test_labels_read_only(self):
        c = Clustering([0, 1])
        with pytest.raises(ValueError):
            c.labels[0] = 1


class TestClusteredGraph:
    def test_intra_edges_zeroed(self, diamond_graph):
        cg = ClusteredGraph(diamond_graph, Clustering([0, 0, 1, 1]))
        # (0,1) intra cluster 0; (2,3) intra cluster 1 -> zeroed
        assert cg.comm_weight(0, 1) == 0
        assert cg.comm_weight(2, 3) == 0
        # (0,2) and (1,3) cross -> kept
        assert cg.comm_weight(0, 2) == 2
        assert cg.comm_weight(1, 3) == 2

    def test_cut_and_internal(self, diamond_graph):
        cg = ClusteredGraph(diamond_graph, Clustering([0, 0, 1, 1]))
        assert cg.cut_weight() == 4
        assert cg.internal_weight() == 2
        assert cg.cut_weight() + cg.internal_weight() == diamond_graph.total_comm

    def test_singleton_clustering_keeps_everything(self, diamond_graph):
        cg = ClusteredGraph(diamond_graph, Clustering([0, 1, 2, 3]))
        assert np.array_equal(cg.clus_edge, diamond_graph.prob_edge)
        assert cg.internal_weight() == 0

    def test_one_cluster_absorbs_everything(self, diamond_graph):
        cg = ClusteredGraph(diamond_graph, Clustering([0, 0, 0, 0]))
        assert cg.cut_weight() == 0

    def test_size_mismatch_rejected(self, diamond_graph):
        with pytest.raises(GraphError, match="covers"):
            ClusteredGraph(diamond_graph, Clustering([0, 1]))

    def test_passthrough_properties(self, diamond_graph):
        cg = ClusteredGraph(diamond_graph, Clustering([0, 1, 0, 1]))
        assert cg.num_tasks == 4
        assert cg.num_clusters == 2
        assert np.array_equal(cg.task_sizes, diamond_graph.task_sizes)
        assert np.array_equal(cg.prob_edge, diamond_graph.prob_edge)
        assert cg.cluster_of(2) == 0

    def test_clus_edge_read_only(self, diamond_clustered):
        with pytest.raises(ValueError):
            diamond_clustered.clus_edge[0, 1] = 7
