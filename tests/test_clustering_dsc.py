"""Unit tests for the DSC clusterer."""

import pytest

from repro.clustering import DscClusterer, RandomClusterer
from repro.core import ClusteredGraph, TaskGraph, lower_bound
from repro.utils import GraphError
from repro.workloads import gaussian_elimination_dag, layered_random_dag


class TestDsc:
    def test_partition_valid(self):
        g = layered_random_dag(num_tasks=40, rng=0)
        c = DscClusterer(6).cluster(g, rng=0)
        assert c.num_clusters == 6
        assert (c.sizes() > 0).all()

    def test_zeroes_heavy_chain(self):
        """A chain with heavy edges must collapse into one cluster."""
        g = TaskGraph([1, 1, 1], [(0, 1, 10), (1, 2, 10)])
        c = DscClusterer(1).cluster(g)
        assert c.num_clusters == 1

    def test_chain_clustering_reaches_serial_bound(self):
        """On a pure chain, DSC's clustering gives the chain's node-weight
        sum as the bound (all communication internalized)."""
        g = TaskGraph([2, 3, 4], [(0, 1, 5), (1, 2, 5)])
        c = DscClusterer(2).cluster(g)
        bound = lower_bound(ClusteredGraph(g, c))
        # The chain must stay mostly together: bound well below the
        # all-singleton bound 2+5+3+5+4 = 19.
        assert bound <= 14

    def test_independent_tasks_spread(self):
        """With no edges there is nothing to zero: every task stays a
        singleton until the merge pass packs them into the target count."""
        g = TaskGraph([3, 3, 3, 3])
        c = DscClusterer(4).cluster(g)
        assert sorted(c.sizes().tolist()) == [1, 1, 1, 1]

    def test_beats_random_clustering_bound(self):
        """DSC's whole point: a lower parallel-time estimate than random
        grouping on communication-heavy structured DAGs."""
        g = gaussian_elimination_dag(10)
        dsc_bound = lower_bound(
            ClusteredGraph(g, DscClusterer(4).cluster(g, rng=1))
        )
        rnd_bound = lower_bound(
            ClusteredGraph(g, RandomClusterer(4).cluster(g, rng=1))
        )
        assert dsc_bound <= rnd_bound

    def test_usable_by_mapper(self):
        from repro.core import CriticalEdgeMapper
        from repro.topology import mesh2d

        g = layered_random_dag(num_tasks=36, rng=3)
        c = DscClusterer(6).cluster(g, rng=3)
        result = CriticalEdgeMapper(rng=3).map(
            ClusteredGraph(g, c), mesh2d(2, 3)
        )
        assert result.total_time >= result.lower_bound

    def test_split_when_dsc_collapses_too_far(self):
        """If DSC naturally produces fewer clusters than requested, the
        driver splits the largest to honour the contract."""
        g = TaskGraph([1, 1, 1, 1], [(0, 1, 50), (1, 2, 50), (2, 3, 50)])
        c = DscClusterer(2).cluster(g)
        assert c.num_clusters == 2
        assert (c.sizes() > 0).all()

    def test_too_many_clusters_rejected(self):
        g = layered_random_dag(num_tasks=5, rng=0)
        with pytest.raises(GraphError):
            DscClusterer(10).cluster(g)
