"""Tests for the heterogeneous-link-cost extension of SystemGraph."""

import numpy as np
import pytest

from repro.core import (
    Assignment,
    ClusteredGraph,
    Clustering,
    TaskGraph,
    communication_costs,
    evaluate_assignment,
    lower_bound,
    total_time,
)
from repro.sim import simulate
from repro.topology import SystemGraph
from repro.utils import GraphError
from tests.conftest import communication_matrix, on_edges


def _triangle(weights=None):
    adj = np.asarray([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    return SystemGraph(adj, name="tri", link_weights=weights)


class TestConstruction:
    def test_unit_default(self):
        g = _triangle()
        assert not g.is_weighted
        assert np.array_equal(g.link_weights, g.sys_edge)

    def test_weighted_distances_take_detours(self):
        # Direct link 0-1 costs 5; route via 2 costs 1 + 1 = 2.
        w = np.asarray([[0, 5, 1], [5, 0, 1], [1, 1, 0]])
        g = _triangle(w)
        assert g.is_weighted
        assert g.distance(0, 1) == 2
        assert g.shortest_path(0, 1) == (0, 2, 1)

    def test_all_unit_weights_not_flagged_weighted(self):
        g = _triangle(np.asarray([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
        assert not g.is_weighted

    def test_symmetrized(self):
        w = np.zeros((3, 3), dtype=int)
        w[0, 1] = 4  # only one triangle filled
        w[0, 2] = 1
        w[1, 2] = 1
        g = _triangle(w)
        assert g.link_weight(1, 0) == 4

    def test_zero_weight_link_rejected(self):
        w = np.asarray([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        with pytest.raises(GraphError, match=">= 1"):
            _triangle(w)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(GraphError, match="shape"):
            _triangle(np.ones((2, 2), dtype=int))

    def test_triangle_inequality_weighted(self):
        w = np.asarray([[0, 7, 2], [7, 0, 3], [2, 3, 0]])
        g = _triangle(w)
        d = g.shortest
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    assert d[a, c] <= d[a, b] + d[b, c]


class TestWeightedEvaluation:
    @pytest.fixture
    def instance(self):
        graph = TaskGraph([1, 2, 1], [(0, 1, 3), (1, 2, 2)])
        clustered = ClusteredGraph(graph, Clustering([0, 1, 2]))
        w = np.asarray([[0, 5, 1], [5, 0, 1], [1, 1, 0]])
        return clustered, _triangle(w)

    def test_comm_uses_weighted_distance(self, instance):
        clustered, system = instance
        comm = communication_costs(clustered, system, Assignment.identity(3))
        # One cost per edge, in in-edge order: (0, 1), then (1, 2).
        assert comm.tolist() == [3 * 2, 2 * 1]  # 0 -> 1 detours via node 2
        dense = communication_matrix(clustered, system, Assignment.identity(3))
        assert np.array_equal(comm, on_edges(clustered.graph, dense))

    def test_lower_bound_still_holds(self, instance):
        clustered, system = instance
        bound = lower_bound(clustered)
        for seed in range(6):
            a = Assignment.random(3, rng=seed)
            assert total_time(clustered, system, a) >= bound

    def test_simulator_matches_analytic_on_weighted_links(self, instance):
        clustered, system = instance
        for seed in range(6):
            a = Assignment.random(3, rng=seed)
            sched = evaluate_assignment(clustered, system, a)
            sim = simulate(clustered, system, a)
            assert sim.makespan == sched.total_time
            assert np.array_equal(sim.start, sched.start)

    def test_hop_records_follow_weighted_route(self, instance):
        clustered, system = instance
        sim = simulate(clustered, system, Assignment.identity(3))
        # The (0 -> 1) message must route through node 2: two hop records.
        hops = [r for r in sim.trace.transfers if r.dst_task == 1]
        assert len(hops) == 2
        assert hops[0].link == (0, 2)
        assert hops[1].link == (2, 1)

    def test_mapper_runs_on_weighted_machine(self, instance):
        from repro.core import CriticalEdgeMapper

        clustered, system = instance
        result = CriticalEdgeMapper(rng=0).map(clustered, system)
        assert result.total_time >= result.lower_bound
