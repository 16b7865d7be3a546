"""Tests for the extended topology families."""

import pytest

from repro.topology import (
    chordal_ring,
    complete_bipartite,
    is_regular,
    kautz,
    mesh3d,
    petersen,
    random_regular,
    ring,
    torus3d,
)
from repro.utils import GraphError


class TestMesh3d:
    def test_structure(self):
        g = mesh3d(2, 3, 4)
        assert g.num_nodes == 24
        # edges: (nx-1)*ny*nz + nx*(ny-1)*nz + nx*ny*(nz-1)
        assert g.num_edges() == 1 * 3 * 4 + 2 * 2 * 4 + 2 * 3 * 3
        assert g.diameter() == 1 + 2 + 3

    def test_corner_degree(self):
        g = mesh3d(3, 3, 3)
        assert g.deg.min() == 3  # corners
        assert g.deg.max() == 6  # center

    def test_degenerate_1d(self):
        g = mesh3d(5, 1, 1)
        assert g.diameter() == 4

    def test_bad_dims(self):
        with pytest.raises(GraphError):
            mesh3d(0, 2, 2)


class TestTorus3d:
    def test_regular(self):
        g = torus3d(3, 3, 3)
        assert (g.deg == 6).all()
        assert g.diameter() == 3  # 1+1+1 wraps

    def test_size_two_dims(self):
        g = torus3d(2, 2, 2)  # wrap links coincide -> a 3-cube
        assert g.num_nodes == 8
        assert (g.deg == 3).all()

    def test_bad_dims(self):
        with pytest.raises(GraphError):
            torus3d(1, 3, 3)


class TestCompleteBipartite:
    def test_structure(self):
        g = complete_bipartite(2, 3)
        assert g.num_nodes == 5
        assert g.num_edges() == 6
        assert g.deg.tolist() == [3, 3, 2, 2, 2]
        assert g.diameter() == 2

    def test_bad_sides(self):
        with pytest.raises(GraphError):
            complete_bipartite(0, 3)


class TestKautz:
    def test_node_count(self):
        # K(d, n) has (d+1) * d^n nodes.
        g = kautz(2, 2)
        assert g.num_nodes == 3 * 2 * 2
        g = kautz(2, 1)
        assert g.num_nodes == 3 * 2

    def test_small_diameter(self):
        g = kautz(2, 2)
        assert g.diameter() <= 3  # Kautz diameter = word length

    def test_bad_args(self):
        with pytest.raises(GraphError):
            kautz(1, 2)


class TestChordalRing:
    def test_structure(self):
        g = chordal_ring(12, 4)
        assert g.num_nodes == 12
        assert g.diameter() < ring(12).diameter()

    def test_degree_bounded(self):
        g = chordal_ring(10, 3)
        assert g.deg.max() <= 4

    def test_bad_chord(self):
        with pytest.raises(GraphError):
            chordal_ring(10, 1)
        with pytest.raises(GraphError):
            chordal_ring(10, 6)


class TestPetersen:
    def test_moore_graph_properties(self):
        g = petersen()
        assert g.num_nodes == 10
        assert (g.deg == 3).all()
        assert g.diameter() == 2
        assert g.num_edges() == 15


class TestRandomRegular:
    @pytest.mark.parametrize("seed", range(4))
    def test_regularity(self, seed):
        g = random_regular(12, 3, rng=seed)
        assert (g.deg == 3).all()
        assert is_regular(g)

    def test_parity_rejected(self):
        with pytest.raises(GraphError, match="even"):
            random_regular(5, 3)

    def test_bad_degree(self):
        with pytest.raises(GraphError):
            random_regular(4, 1)
        with pytest.raises(GraphError):
            random_regular(4, 4)


class TestMappingOnNewFamilies:
    """Every new family must work as a mapping target end to end."""

    @pytest.mark.parametrize(
        "system",
        [mesh3d(2, 2, 2), torus3d(2, 2, 2), chordal_ring(8, 3),
         kautz(2, 1), petersen()],
        ids=["mesh3d", "torus3d", "chordal", "kautz", "petersen"],
    )
    def test_pipeline(self, system):
        from repro.clustering import RandomClusterer
        from repro.core import ClusteredGraph, CriticalEdgeMapper
        from repro.workloads import layered_random_dag

        graph = layered_random_dag(num_tasks=4 * system.num_nodes, rng=1)
        clustering = RandomClusterer(system.num_nodes).cluster(graph, rng=1)
        result = CriticalEdgeMapper(rng=1).map(
            ClusteredGraph(graph, clustering), system
        )
        assert result.total_time >= result.lower_bound
