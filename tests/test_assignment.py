"""Unit tests for repro.core.assignment."""

import numpy as np
import pytest

from repro.core import Assignment, ClusteredGraph, Clustering, communication_costs
from repro.topology import chain, ring
from repro.utils import MappingError
from tests.conftest import communication_matrix, on_edges


def _comm(clustered, system, assignment):
    """The dense Fig. 23-c oracle, after checking that the library's
    per-edge costs are its entries at the problem edges."""
    comm = communication_matrix(clustered, system, assignment)
    costs = communication_costs(clustered, system, assignment)
    assert np.array_equal(costs, on_edges(clustered.graph, comm))
    return comm


class TestAssignment:
    def test_identity(self):
        a = Assignment.identity(4)
        assert a.assi.tolist() == [0, 1, 2, 3]
        assert a.system_of(2) == 2
        assert a.cluster_on(3) == 3

    def test_orientation(self):
        a = Assignment([2, 0, 1])  # system 0 hosts cluster 2, ...
        assert a.cluster_on(0) == 2
        assert a.system_of(2) == 0
        assert a.placement.tolist() == [1, 2, 0]

    def test_from_placement_inverse(self):
        a = Assignment.from_placement([1, 2, 0])
        assert a.system_of(0) == 1
        assert a.assi.tolist() == [2, 0, 1]

    def test_round_trip(self):
        a = Assignment([3, 1, 0, 2])
        assert Assignment.from_placement(a.placement) == a

    def test_non_permutation_rejected(self):
        with pytest.raises(MappingError):
            Assignment([0, 0, 1])
        with pytest.raises(MappingError):
            Assignment([0, 1, 3])

    def test_random_is_permutation(self):
        for seed in range(5):
            a = Assignment.random(6, rng=seed)
            assert sorted(a.assi.tolist()) == list(range(6))

    def test_random_deterministic_by_seed(self):
        assert Assignment.random(8, rng=42) == Assignment.random(8, rng=42)

    def test_swapped(self):
        a = Assignment.identity(4)
        b = a.swapped(0, 3)
        assert b.system_of(0) == 3
        assert b.system_of(3) == 0
        assert b.system_of(1) == 1
        assert a.system_of(0) == 0  # original untouched

    def test_swap_self_rejected(self):
        with pytest.raises(MappingError):
            Assignment.identity(3).swapped(1, 1)

    def test_from_placement_must_stay_permutation(self):
        with pytest.raises(MappingError):
            Assignment.from_placement([1, 1, 2])

    def test_hashable(self):
        a, b = Assignment([0, 1, 2]), Assignment([0, 1, 2])
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_arrays_read_only(self):
        a = Assignment.identity(3)
        with pytest.raises(ValueError):
            a.assi[0] = 2


class TestCommunicationMatrix:
    def test_hops_multiply_weights(self, diamond_clustered):
        # chain topology 0-1-2-3; identity placement.
        system = chain(4)
        comm = _comm(diamond_clustered, system, Assignment.identity(4))
        assert comm[0, 1] == 1 * 1  # adjacent
        assert comm[0, 2] == 2 * 2  # two hops
        assert comm[1, 3] == 2 * 2
        assert comm[2, 3] == 1 * 1

    def test_intra_cluster_is_free(self, diamond_graph):
        cg = ClusteredGraph(diamond_graph, Clustering([0, 0, 1, 1]))
        system = chain(2)
        comm = _comm(cg, system, Assignment.identity(2))
        assert comm[0, 1] == 0
        assert comm[2, 3] == 0
        assert comm[0, 2] == 2  # inter, adjacent

    def test_closure_reproduces_clustered_weights(self, diamond_clustered):
        from repro.topology import complete

        comm = _comm(
            diamond_clustered, complete(4), Assignment.identity(4)
        )
        assert np.array_equal(comm, diamond_clustered.clus_edge)

    def test_na_ns_mismatch_rejected(self, diamond_clustered):
        with pytest.raises(MappingError, match="na must equal ns"):
            communication_costs(diamond_clustered, ring(5), Assignment.identity(5))

    def test_assignment_size_mismatch_rejected(self, diamond_clustered, ring4):
        with pytest.raises(MappingError):
            communication_costs(diamond_clustered, ring4, Assignment.identity(5))

    def test_placement_changes_distances(self, diamond_clustered):
        system = chain(4)
        near = _comm(diamond_clustered, system, Assignment.identity(4))
        # Put clusters 0 and 2 at the two chain ends: distance 3.
        far = _comm(
            diamond_clustered, system, Assignment.from_placement([0, 1, 3, 2])
        )
        assert far[0, 2] == 2 * 3
        assert near[0, 2] == 2 * 2
