"""Tests for the embedding-quality module (dilation, congestion)."""

import pytest

from repro.baselines import cardinality
from repro.core import AbstractGraph, Assignment, ClusteredGraph, Clustering
from repro.topology import (
    analyze_embedding,
    chain,
    complete,
    edge_dilations,
    link_congestion,
    ring,
)
from tests.conftest import chain4_one_task_per_cluster, random_instance, weighted_ring4


@pytest.fixture
def diamond_abstract(diamond_clustered):
    return AbstractGraph(diamond_clustered)


class TestDilation:
    def test_on_complete_host_all_one(self, diamond_abstract):
        dil = edge_dilations(diamond_abstract, complete(4), Assignment.identity(4))
        assert all(d == 1 for d in dil.values())

    def test_on_chain(self, diamond_abstract):
        dil = edge_dilations(diamond_abstract, chain(4), Assignment.identity(4))
        assert dil[(0, 1)] == 1
        assert dil[(0, 2)] == 2
        assert dil[(1, 3)] == 2
        assert dil[(2, 3)] == 1

    def test_dilation_one_count_equals_cardinality(self):
        for seed in range(6):
            clustered, system = random_instance(seed)
            abstract = AbstractGraph(clustered)
            a = Assignment.random(system.num_nodes, rng=seed)
            report = analyze_embedding(abstract, system, a)
            assert report.dilation_one_edges == cardinality(abstract, system, a)
        # Weighted links: dilation counts the route's links, not its cost
        # (the 0-1 link costs 3, and its dilation used to read 3).
        abstract = AbstractGraph(chain4_one_task_per_cluster())
        system, a = weighted_ring4(), Assignment.identity(4)
        report = analyze_embedding(abstract, system, a)
        assert report.dilation_one_edges == cardinality(abstract, system, a) == 3


class TestCongestion:
    def test_chain_middle_link_busiest(self, diamond_abstract):
        cong = link_congestion(diamond_abstract, chain(4), Assignment.identity(4))
        # Routes: (0,1):0-1; (0,2):0-1-2; (1,3):1-2-3; (2,3):2-3.
        assert cong[(0, 1)] == 2
        assert cong[(1, 2)] == 2
        assert cong[(2, 3)] == 2

    def test_weighted_congestion_uses_weights(self, diamond_abstract):
        plain = link_congestion(
            diamond_abstract, chain(4), Assignment.identity(4), weighted=False
        )
        weighted = link_congestion(
            diamond_abstract, chain(4), Assignment.identity(4), weighted=True
        )
        assert sum(weighted.values()) >= sum(plain.values())

    def test_congestion_conserves_route_length(self, diamond_abstract):
        """Total crossings == sum of dilations (each hop crosses one link)."""
        system = chain(4)
        a = Assignment.identity(4)
        cong = link_congestion(diamond_abstract, system, a)
        dil = edge_dilations(diamond_abstract, system, a)
        assert sum(cong.values()) == sum(dil.values())


class TestReport:
    def test_fields_consistent(self):
        clustered, system = random_instance(0)
        abstract = AbstractGraph(clustered)
        report = analyze_embedding(
            abstract, system, Assignment.random(system.num_nodes, rng=0)
        )
        assert 1 <= report.max_dilation <= system.diameter()
        assert 1.0 <= report.avg_dilation <= report.max_dilation
        assert report.dilation_one_edges <= report.total_guest_edges
        assert report.max_weighted_congestion >= report.max_congestion
        assert report.expansion == 1.0

    def test_str(self, diamond_abstract):
        text = str(analyze_embedding(diamond_abstract, chain(4), Assignment.identity(4)))
        assert "dilation" in text and "congestion" in text

    def test_guest_smaller_than_host(self):
        from repro.core import TaskGraph

        g = TaskGraph([1, 1, 1, 1], [(0, 1, 1), (1, 2, 2), (2, 3, 1)])
        abstract = AbstractGraph(ClusteredGraph(g, Clustering([0, 1, 2, 3])))
        report = analyze_embedding(abstract, ring(5), Assignment.identity(5))
        assert str(report) == (
            "dilation max 1 / avg 1.00, 3/3 edges on single links, "
            "congestion max 1 (weighted 2), expansion 1.25"
        )

    def test_no_edges_degenerate(self):
        from repro.core import TaskGraph

        g = TaskGraph([1, 1])
        cg = ClusteredGraph(g, Clustering([0, 1]))
        report = analyze_embedding(
            AbstractGraph(cg), chain(2), Assignment.identity(2)
        )
        assert report.max_dilation == 0
        assert report.total_guest_edges == 0
        assert report.max_congestion == 0
