"""Unit tests for repro.topology.generators (the topology zoo)."""

import pytest

from repro.api import UnknownComponentError, build_topology
from repro.topology import (
    binary_tree,
    butterfly,
    chain,
    complete,
    cube_connected_cycles,
    de_bruijn,
    hypercube,
    is_regular,
    mesh2d,
    random_connected,
    ring,
    star,
    torus2d,
)
from repro.utils import GraphError


class TestHypercube:
    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 4, 5])
    def test_structure(self, dim):
        g = hypercube(dim)
        n = 2**dim
        assert g.num_nodes == n
        assert g.num_edges() == dim * n // 2
        assert (g.deg == dim).all() or dim == 0
        assert g.diameter() == dim

    def test_distance_is_hamming(self):
        g = hypercube(4)
        for a in range(16):
            for b in range(16):
                assert g.distance(a, b) == bin(a ^ b).count("1")

    def test_negative_rejected(self):
        with pytest.raises(GraphError):
            hypercube(-1)


class TestMeshTorus:
    def test_mesh_structure(self):
        g = mesh2d(3, 4)
        assert g.num_nodes == 12
        assert g.num_edges() == 3 * 3 + 2 * 4  # rows*(cols-1) + (rows-1)*cols
        assert g.diameter() == (3 - 1) + (4 - 1)
        assert g.deg.min() == 2 and g.deg.max() == 4

    def test_mesh_1xn_is_chain(self):
        assert mesh2d(1, 5).shortest[0, 4] == 4

    def test_torus_structure(self):
        g = torus2d(3, 4)
        assert g.num_nodes == 12
        assert (g.deg == 4).all()
        assert g.diameter() == 3 // 2 + 4 // 2

    def test_torus_2x2_degenerate(self):
        # Wraparound links coincide with mesh links on a 2x2.
        g = torus2d(2, 2)
        assert g.num_edges() == 4

    def test_bad_sizes(self):
        with pytest.raises(GraphError):
            mesh2d(0, 3)
        with pytest.raises(GraphError):
            torus2d(1, 3)


class TestSimpleFamilies:
    def test_ring(self):
        g = ring(6)
        assert g.num_edges() == 6
        assert is_regular(g)
        with pytest.raises(GraphError):
            ring(2)

    def test_chain(self):
        g = chain(4)
        assert g.num_edges() == 3
        assert g.deg.tolist() == [1, 2, 2, 1]

    def test_star(self):
        g = star(5)
        assert g.deg[0] == 4
        assert (g.deg[1:] == 1).all()
        assert g.diameter() == 2
        with pytest.raises(GraphError):
            star(1)

    def test_complete(self):
        g = complete(6)
        assert g.num_edges() == 15
        assert g.diameter() == 1

    def test_binary_tree(self):
        g = binary_tree(3)
        assert g.num_nodes == 7
        assert g.num_edges() == 6
        assert g.deg[0] == 2  # root
        assert g.deg[3:].max() == 1  # leaves


class TestFancyFamilies:
    def test_ccc(self):
        g = cube_connected_cycles(3)
        assert g.num_nodes == 24
        assert (g.deg == 3).all()
        with pytest.raises(GraphError):
            cube_connected_cycles(2)

    def test_de_bruijn(self):
        g = de_bruijn(3)
        assert g.num_nodes == 8
        assert g.deg.max() <= 4
        # de Bruijn diameter = bits
        assert g.diameter() <= 3

    def test_butterfly(self):
        g = butterfly(2)
        assert g.num_nodes == 3 * 4
        # interior levels degree 4, end levels degree 2
        assert g.deg.max() == 4
        assert g.deg.min() == 2


class TestRandomConnected:
    @pytest.mark.parametrize("seed", range(5))
    def test_always_connected(self, seed):
        g = random_connected(15, extra_edge_prob=0.05, rng=seed)
        assert g.num_nodes == 15  # constructor validates connectivity

    def test_tree_when_no_extras(self):
        g = random_connected(12, extra_edge_prob=0.0, rng=1)
        assert g.num_edges() == 11  # spanning tree

    def test_complete_when_prob_one(self):
        g = random_connected(6, extra_edge_prob=1.0, rng=1)
        assert g.is_complete()

    def test_deterministic_by_seed(self):
        assert random_connected(10, rng=7) == random_connected(10, rng=7)

    def test_bad_args(self):
        with pytest.raises(GraphError):
            random_connected(1)
        with pytest.raises(GraphError):
            random_connected(5, extra_edge_prob=1.5)


class TestByName:
    """Families built by name from a node count: the ``family:K`` specs
    that ``mimdmap --topology F --size K`` builds (a hypercube's spec
    takes its dimension; the CLI checks that ``K`` is a power of two)."""

    @pytest.mark.parametrize(
        "family,size",
        [("hypercube", 8), ("mesh", 12), ("torus", 12), ("ring", 5),
         ("chain", 5), ("star", 5), ("complete", 5), ("random", 9)],
    )
    def test_dispatch(self, family, size):
        arg = size.bit_length() - 1 if family == "hypercube" else size
        g = build_topology(f"{family}:{arg}", rng=0)
        assert g.num_nodes == size

    def test_mesh_squarest_factorization(self):
        assert build_topology("mesh:12").name == "mesh-3x4"
        assert build_topology("torus:12").name == "torus-3x4"
        with pytest.raises(GraphError, match="cannot build a torus"):
            build_topology("torus:7")

    def test_unknown_family(self):
        with pytest.raises(UnknownComponentError, match="unknown topology"):
            build_topology("klein-bottle:8")
