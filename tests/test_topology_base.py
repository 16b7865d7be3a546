"""Unit tests for repro.topology.base (SystemGraph)."""

import numpy as np
import pytest

from repro.api import build_topology
from repro.topology import SystemGraph, base, chain, complete, hypercube, ring
from repro.utils import GraphError
from tests.conftest import (
    TOPOLOGY_SPECS,
    assert_routes_match_oracle,
    oracle_route_hops,
    oracle_route_loads,
)


class TestConstruction:
    def test_from_edges(self):
        g = SystemGraph.from_edges(3, [(0, 1), (1, 2)])
        assert g.num_nodes == 3
        assert g.num_edges() == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_symmetrizes_input(self):
        adj = np.zeros((3, 3), dtype=int)
        adj[0, 1] = 1  # only one triangle filled
        adj[1, 2] = 1
        g = SystemGraph(adj)
        assert g.has_edge(1, 0)
        assert g.has_edge(2, 1)

    def test_disconnected_rejected(self):
        adj = np.zeros((4, 4), dtype=int)
        adj[0, 1] = adj[1, 0] = 1
        adj[2, 3] = adj[3, 2] = 1
        with pytest.raises(GraphError, match="connected"):
            SystemGraph(adj)

    def test_self_loop_rejected(self):
        adj = np.eye(2, dtype=int)
        with pytest.raises(GraphError, match="self-loop"):
            SystemGraph(adj)

    def test_non_square_rejected(self):
        with pytest.raises(GraphError):
            SystemGraph(np.zeros((2, 3)))

    def test_dangling_edge_rejected(self):
        with pytest.raises(GraphError, match="missing node"):
            SystemGraph.from_edges(2, [(0, 5)])

    def test_single_node(self):
        g = SystemGraph(np.zeros((1, 1), dtype=int))
        assert g.num_nodes == 1
        assert g.diameter() == 0
        assert g.average_distance() == 0.0


class TestShortestPaths:
    def test_ring_distances(self):
        g = ring(6)
        assert g.distance(0, 1) == 1
        assert g.distance(0, 3) == 3
        assert g.distance(0, 5) == 1
        assert g.diameter() == 3

    def test_chain_distances(self):
        g = chain(5)
        assert g.distance(0, 4) == 4
        assert g.diameter() == 4

    def test_shortest_matrix_symmetric_zero_diagonal(self):
        g = ring(7)
        assert np.array_equal(g.shortest, g.shortest.T)
        assert (np.diagonal(g.shortest) == 0).all()

    def test_triangle_inequality(self):
        g = ring(8)
        d = g.shortest
        n = g.num_nodes
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert d[a, c] <= d[a, b] + d[b, c]

    def test_adjacent_iff_distance_one(self):
        g = ring(6)
        adj = g.sys_edge > 0
        assert np.array_equal(adj, g.shortest == 1)

    def test_shortest_path_endpoints_and_length(self):
        g = chain(6)
        path = g.shortest_path(1, 5)
        assert path[0] == 1 and path[-1] == 5
        assert len(path) - 1 == g.distance(1, 5)
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)

    def test_shortest_path_self(self):
        assert ring(4).shortest_path(2, 2) == (2,)

    def test_shortest_path_rejects_missing_nodes(self):
        with pytest.raises(GraphError, match="no route"):
            ring(4).shortest_path(-1, 2)

    @pytest.mark.parametrize("spec", sorted(TOPOLOGY_SPECS.values()))
    def test_routes_match_oracle(self, spec):
        assert_routes_match_oracle(build_topology(spec, rng=0))

    def test_routes_match_oracle_across_source_blocks(self, monkeypatch):
        # A tiny budget splits the sources into ragged blocks of 1-2.
        monkeypatch.setattr(base, "_BLOCK_CANDIDATES", 40)
        weights = np.random.default_rng(0).integers(1, 6, size=(9, 9))
        for system in (
            ring(9),
            hypercube(4),
            SystemGraph(ring(9).sys_edge, link_weights=weights),
        ):
            assert_routes_match_oracle(system)


def _weighted(spec: str, seed: int) -> SystemGraph:
    """``spec``'s machine with seeded random link costs 1-3."""
    system = build_topology(spec, rng=0)
    n = system.num_nodes
    weights = np.random.default_rng(seed).integers(1, 4, size=(n, n))
    return SystemGraph(system.sys_edge, name=f"{spec}+w{seed}", link_weights=weights)


#: Weighted machines on which some route is longer in hops one way than
#: the other (a lowest-id backtrack may pick a different equal-cost path
#: in each direction).
ASYMMETRIC = [
    ("ring:6", 23),
    ("mesh2d:3x3", 3),
    ("torus2d:4x4", 3),
    ("petersen", 1),
    ("random:8", 1),
]


class TestRouteArrays:
    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    @pytest.mark.parametrize("spec", sorted(TOPOLOGY_SPECS.values()))
    def test_match_oracles(self, spec, weighted):
        system = _weighted(spec, 0) if weighted else build_topology(spec, rng=0)
        n = system.num_nodes
        traffic = np.random.default_rng(1).integers(0, 9, size=(n, n))
        assert np.array_equal(system.route_hops, oracle_route_hops(system))
        assert np.array_equal(
            system.route_loads(traffic), oracle_route_loads(system, traffic)
        )

    @pytest.mark.parametrize("spec, seed", ASYMMETRIC)
    def test_direction_dependent_hops(self, spec, seed):
        system = _weighted(spec, seed)
        hops = system.route_hops
        assert not np.array_equal(hops, hops.T)
        assert np.array_equal(hops, oracle_route_hops(system))
        traffic = np.ones((system.num_nodes, system.num_nodes), dtype=np.int64)
        loads = system.route_loads(traffic)
        assert np.array_equal(loads, oracle_route_loads(system, traffic))
        assert not np.array_equal(loads, loads.T)

    def test_unit_hops_are_shortest(self):
        g = hypercube(3)
        assert np.array_equal(g.route_hops, g.shortest)
        assert not g.route_hops.flags.writeable

    def test_weighted_hops_are_cached_read_only(self):
        g = _weighted("ring:6", 23)
        assert np.shares_memory(g.route_hops, g.route_hops)
        with pytest.raises(ValueError):
            g.route_hops[0, 1] = 9

    def test_loads_keep_dtype_ignore_diagonal_and_sum_exactly(self):
        # Link 1 -> 2 carries four routes of 2**53 + 1: a float sum would
        # lose the 4 in 2**55 + 4.
        g = chain(4)
        traffic = np.full((4, 4), 2**53 + 1, dtype=np.int64)
        loads = g.route_loads(traffic)
        assert loads.dtype == np.int64
        assert int(loads[1, 2]) == 4 * (2**53 + 1)
        assert np.array_equal(g.route_loads(np.eye(4, dtype=np.int32)), np.zeros((4, 4)))
        assert g.route_loads(np.eye(4, dtype=np.int32)).dtype == np.int32

    def test_loads_reject_wrong_shape(self):
        with pytest.raises(GraphError, match="traffic shape"):
            ring(4).route_loads(np.ones((3, 3)))


class TestDerived:
    def test_degrees(self):
        g = ring(5)
        assert g.deg.tolist() == [2] * 5

    def test_closure(self):
        g = ring(6)
        c = g.closure()
        assert c.is_complete()
        assert c.num_edges() == 15
        assert c.diameter() == 1

    def test_is_complete(self):
        assert complete(4).is_complete()
        assert not ring(4).is_complete()

    def test_average_distance(self):
        # Complete graph: every distinct pair at distance 1.
        assert complete(5).average_distance() == pytest.approx(1.0)

    def test_edges_sorted_unique(self):
        g = ring(4)
        assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_neighbors(self):
        g = chain(4)
        assert g.neighbors(0).tolist() == [1]
        assert g.neighbors(1).tolist() == [0, 2]

    def test_equality(self):
        assert ring(5) == ring(5)
        assert ring(5) != chain(5)
        heavy = SystemGraph(ring(5).sys_edge, link_weights=3 * ring(5).sys_edge)
        assert heavy != ring(5)
        assert heavy == SystemGraph(ring(5).sys_edge, link_weights=3 * ring(5).sys_edge)

    def test_equal_machines_hash_equal(self):
        heavy = SystemGraph(ring(4).sys_edge, name="a", link_weights=2 * ring(4).sys_edge)
        same = SystemGraph(ring(4).sys_edge, name="b", link_weights=2 * ring(4).sys_edge)
        assert hash(ring(4)) == hash(ring(4))
        assert hash(heavy) == hash(same)
        assert len({ring(4), ring(4), heavy, same, chain(4)}) == 3
        assert {ring(4): "ring"}[ring(4)] == "ring"

    def test_networkx_export(self):
        g = ring(5)
        nx_g = g.to_networkx()
        assert nx_g.number_of_nodes() == 5
        assert nx_g.number_of_edges() == 5

    def test_read_only_views(self):
        g = ring(4)
        with pytest.raises(ValueError):
            g.sys_edge[0, 1] = 0
        with pytest.raises(ValueError):
            g.shortest[0, 1] = 9
        with pytest.raises(ValueError):
            g.deg[0] = 9
