"""Generators for the system topologies used in the paper and beyond.

Paper Sec. 5 evaluates hypercubes, 2-D meshes, and random connected
topologies with 4-40 nodes.  We provide those three families plus the
standard interconnection-network zoo (ring, chain, star, complete, torus,
binary tree, cube-connected cycles, de Bruijn, butterfly) so workloads can
be studied on machines with very different diameters and degrees.

Every generator returns a :class:`~repro.topology.base.SystemGraph` with a
descriptive ``name``.  The generators are also registered in the
:data:`repro.api.TOPOLOGIES` registry, where
:func:`repro.api.build_topology` parses ``family:args`` specs like
``"hypercube:3"`` or ``"torus2d:4x4"`` — the declarative form scenario
sweeps and the CLI use.  :func:`squarest_mesh` and :func:`squarest_torus`
give the size-only families ``"mesh:12"`` and ``"torus:12"`` (the
squarest 12-node grid).
"""

from __future__ import annotations

import math

import numpy as np

from ..utils import GraphError, as_rng
from .base import SystemGraph

__all__ = [
    "hypercube",
    "mesh2d",
    "mesh3d",
    "squarest_mesh",
    "squarest_torus",
    "torus2d",
    "torus3d",
    "ring",
    "chain",
    "star",
    "complete",
    "complete_bipartite",
    "binary_tree",
    "cube_connected_cycles",
    "de_bruijn",
    "kautz",
    "butterfly",
    "chordal_ring",
    "petersen",
    "random_connected",
    "random_regular",
]


def hypercube(dimension: int) -> SystemGraph:
    """A ``dimension``-cube: ``2**dimension`` nodes, neighbors differ in one bit.

    The 8-node system graph of the paper's Fig. 8 (every node degree 3) is
    ``hypercube(3)``.
    """
    if dimension < 0:
        raise GraphError("hypercube dimension must be >= 0")
    return _grid((2,) * dimension, wrap=False, name=f"hypercube-{1 << dimension}")


def mesh2d(rows: int, cols: int) -> SystemGraph:
    """A ``rows x cols`` 2-D mesh (no wraparound); node ``(r, c) -> r*cols + c``."""
    if rows < 1 or cols < 1:
        raise GraphError("mesh dimensions must be >= 1")
    return _grid((rows, cols), wrap=False, name=f"mesh-{rows}x{cols}")


def torus2d(rows: int, cols: int) -> SystemGraph:
    """A ``rows x cols`` 2-D torus (mesh with wraparound links)."""
    if rows < 2 or cols < 2:
        raise GraphError("torus dimensions must be >= 2")
    return _grid((rows, cols), wrap=True, name=f"torus-{rows}x{cols}")


def ring(n: int) -> SystemGraph:
    """A cycle of ``n`` nodes (``n >= 3``)."""
    if n < 3:
        raise GraphError("a ring needs at least 3 nodes")
    return _grid((n,), wrap=True, name=f"ring-{n}")


def chain(n: int) -> SystemGraph:
    """A linear array of ``n`` nodes."""
    if n < 1:
        raise GraphError("a chain needs at least 1 node")
    return _grid((n,), wrap=False, name=f"chain-{n}")


def star(n: int) -> SystemGraph:
    """A star: node 0 is the hub, nodes ``1..n-1`` are leaves."""
    if n < 2:
        raise GraphError("a star needs at least 2 nodes")
    edges = [(0, i) for i in range(1, n)]
    return SystemGraph.from_edges(n, edges, name=f"star-{n}")


def complete(n: int) -> SystemGraph:
    """The complete graph on ``n`` nodes (the closure of any ``n``-topology)."""
    if n < 1:
        raise GraphError("a complete graph needs at least 1 node")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return SystemGraph.from_edges(n, edges, name=f"complete-{n}")


def binary_tree(levels: int) -> SystemGraph:
    """A complete binary tree with ``levels`` levels (``2**levels - 1`` nodes)."""
    if levels < 1:
        raise GraphError("a binary tree needs at least 1 level")
    n = (1 << levels) - 1
    edges = []
    for i in range(n):
        for child in (2 * i + 1, 2 * i + 2):
            if child < n:
                edges.append((i, child))
    return SystemGraph.from_edges(n, edges, name=f"btree-{levels}")


def cube_connected_cycles(dimension: int) -> SystemGraph:
    """CCC(d): each hypercube corner becomes a ``d``-cycle; degree 3 everywhere.

    Node ``(corner, position) -> corner * d + position``; cycle links within
    a corner, one cube link per position.  Requires ``dimension >= 3``.
    """
    d = dimension
    if d < 3:
        raise GraphError("cube-connected cycles needs dimension >= 3")
    n = (1 << d) * d
    edges = set()
    for corner in range(1 << d):
        for pos in range(d):
            u = corner * d + pos
            v = corner * d + (pos + 1) % d
            edges.add((min(u, v), max(u, v)))
            w = (corner ^ (1 << pos)) * d + pos
            edges.add((min(u, w), max(u, w)))
    return SystemGraph.from_edges(n, sorted(edges), name=f"ccc-{d}")


def de_bruijn(bits: int) -> SystemGraph:
    """Undirected binary de Bruijn graph on ``2**bits`` nodes.

    Node ``u`` links to ``(2u) mod n`` and ``(2u+1) mod n``; self-loops are
    dropped (nodes 0 and n-1 shift onto themselves).
    """
    if bits < 2:
        raise GraphError("de Bruijn graph needs bits >= 2")
    n = 1 << bits
    edges = set()
    for u in range(n):
        for v in ((2 * u) % n, (2 * u + 1) % n):
            if u != v:
                edges.add((min(u, v), max(u, v)))
    return SystemGraph.from_edges(n, sorted(edges), name=f"debruijn-{n}")


def butterfly(stages: int) -> SystemGraph:
    """A ``stages``-stage butterfly: ``(stages+1) * 2**stages`` nodes.

    Node ``(level, row) -> level * 2**stages + row``; level ``l`` links to
    level ``l+1`` straight and with bit ``l`` flipped.
    """
    if stages < 1:
        raise GraphError("butterfly needs at least 1 stage")
    width = 1 << stages
    n = (stages + 1) * width
    edges = []
    for level in range(stages):
        for row in range(width):
            u = level * width + row
            edges.append((u, (level + 1) * width + row))
            edges.append((u, (level + 1) * width + (row ^ (1 << level))))
    return SystemGraph.from_edges(n, edges, name=f"butterfly-{stages}")


def mesh3d(nx_: int, ny: int, nz: int) -> SystemGraph:
    """A 3-D mesh; node ``(x, y, z) -> (x * ny + y) * nz + z``."""
    if min(nx_, ny, nz) < 1:
        raise GraphError("mesh3d dimensions must be >= 1")
    return _grid((nx_, ny, nz), wrap=False, name=f"mesh3d-{nx_}x{ny}x{nz}")


def torus3d(nx_: int, ny: int, nz: int) -> SystemGraph:
    """A 3-D torus (mesh3d with wraparound in every dimension >= 3).

    Dimensions of size 2 skip the wraparound link (it would coincide with
    the mesh link), matching the 2-D torus convention.
    """
    if min(nx_, ny, nz) < 2:
        raise GraphError("torus3d dimensions must be >= 2")
    return _grid((nx_, ny, nz), wrap=True, name=f"torus3d-{nx_}x{ny}x{nz}")


def _grid(shape: tuple[int, ...], wrap: bool, name: str) -> SystemGraph:
    """A grid of ``shape`` with row-major node ids: every node links to
    its successor along each axis and, with ``wrap``, each axis's last
    node back to its first (on a size-2 axis that is the same link).
    Chains and rings are 1-D grids, the ``d``-cube a ``2 x ... x 2`` mesh."""
    n = stride = math.prod(shape)
    edges = []
    for size in shape:
        stride //= size  # id step of one place along this axis
        for u in range(n):
            at = u // stride % size
            if at + 1 < size:
                edges.append((u, u + stride))
            elif wrap:
                edges.append((u, u - at * stride))
    return SystemGraph.from_edges(n, edges, name=name)


def complete_bipartite(a: int, b: int) -> SystemGraph:
    """K(a, b): every left node links to every right node."""
    if a < 1 or b < 1:
        raise GraphError("both sides of a bipartite graph need >= 1 node")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return SystemGraph.from_edges(a + b, edges, name=f"kbipartite-{a}x{b}")


def kautz(degree: int, nodes_log: int) -> SystemGraph:
    """Undirected Kautz graph K(d, n): words of length n+1 over d+1 symbols
    with no two consecutive symbols equal; edges follow shifts.

    The Kautz family achieves (near-)optimal diameter for its degree —
    the classic rival of de Bruijn networks.
    """
    d = degree
    if d < 2 or nodes_log < 1:
        raise GraphError("kautz needs degree >= 2 and length >= 1")
    words: list[tuple[int, ...]] = []

    def build(prefix: tuple[int, ...]) -> None:
        if len(prefix) == nodes_log + 1:
            words.append(prefix)
            return
        for s in range(d + 1):
            if not prefix or prefix[-1] != s:
                build(prefix + (s,))

    build(())
    index = {w: i for i, w in enumerate(words)}
    edges = set()
    for w in words:
        for s in range(d + 1):
            if s != w[-1]:
                v = index[w[1:] + (s,)]
                u = index[w]
                if u != v:
                    edges.add((min(u, v), max(u, v)))
    return SystemGraph.from_edges(
        len(words), sorted(edges), name=f"kautz-{d}-{nodes_log}"
    )


def chordal_ring(n: int, chord: int) -> SystemGraph:
    """A ring of ``n`` nodes with extra chords ``i -> (i + chord) mod n``.

    The classic way to shrink a ring's diameter while keeping degree <= 4.
    """
    if n < 4:
        raise GraphError("chordal ring needs at least 4 nodes")
    if not 2 <= chord <= n // 2:
        raise GraphError(f"chord must be in [2, {n // 2}], got {chord}")
    edges = set()
    for i in range(n):
        edges.add((min(i, (i + 1) % n), max(i, (i + 1) % n)))
        j = (i + chord) % n
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return SystemGraph.from_edges(n, sorted(edges), name=f"chordal-{n}-{chord}")


def petersen() -> SystemGraph:
    """The Petersen graph: 10 nodes, 3-regular, diameter 2, girth 5.

    The extremal small topology — maximal node count for degree 3 and
    diameter 2 (a Moore graph).
    """
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return SystemGraph.from_edges(10, outer + spokes + inner, name="petersen")


def random_regular(
    n: int, degree: int, rng: int | np.random.Generator | None = None,
    max_attempts: int = 200,
) -> SystemGraph:
    """A random connected ``degree``-regular graph (pairing model).

    Retries the stub-matching until it produces a simple, connected
    graph; raises :class:`GraphError` when ``n * degree`` is odd or the
    attempts run out (tiny/over-constrained inputs).
    """
    if degree < 2 or n <= degree:
        raise GraphError("need 2 <= degree < n")
    if (n * degree) % 2:
        raise GraphError("n * degree must be even")
    gen = as_rng(rng)
    for _ in range(max_attempts):
        stubs = np.repeat(np.arange(n), degree)
        gen.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        edges = set()
        ok = True
        for u, v in pairs.tolist():
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if not ok:
            continue
        try:
            return SystemGraph.from_edges(
                n, sorted(edges), name=f"regular-{n}-{degree}"
            )
        except GraphError:
            continue  # disconnected; retry
    raise GraphError(
        f"could not build a connected {degree}-regular graph on {n} nodes"
    )


def random_connected(
    n: int,
    extra_edge_prob: float = 0.15,
    rng: int | np.random.Generator | None = None,
) -> SystemGraph:
    """A random connected topology (the paper's third family, Sec. 5.2).

    Construction: a uniformly random spanning tree (random-walk / Wilson
    style via random Prüfer-like attachment) guarantees connectivity, then
    each remaining node pair is added independently with probability
    ``extra_edge_prob``.  With ``extra_edge_prob = 0`` this yields random
    trees; with 1.0, the complete graph.
    """
    if n < 2:
        raise GraphError("random topology needs at least 2 nodes")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise GraphError("extra_edge_prob must be in [0, 1]")
    gen = as_rng(rng)
    order = gen.permutation(n)
    edges = set()
    for i in range(1, n):
        u = int(order[i])
        v = int(order[gen.integers(0, i)])
        edges.add((min(u, v), max(u, v)))
    mask = gen.random((n, n)) < extra_edge_prob
    for u in range(n):
        for v in range(u + 1, n):
            if mask[u, v]:
                edges.add((u, v))
    return SystemGraph.from_edges(n, sorted(edges), name=f"random-{n}")


def squarest_mesh(size: int) -> SystemGraph:
    """The ``rows x cols`` 2-D mesh of ``size`` nodes with the smallest aspect ratio."""
    return mesh2d(*_squarest_factors(size))


def squarest_torus(size: int) -> SystemGraph:
    """The ``rows x cols`` 2-D torus of ``size`` nodes with the smallest aspect ratio."""
    rows, cols = _squarest_factors(size)
    if rows < 2:
        raise GraphError(f"cannot build a torus with {size} nodes")
    return torus2d(rows, cols)


def _squarest_factors(size: int) -> tuple[int, int]:
    """Factor ``size = rows * cols`` with the smallest aspect ratio."""
    if size < 1:
        raise GraphError("size must be >= 1")
    best = (1, size)
    for r in range(1, int(size**0.5) + 1):
        if size % r == 0:
            best = (r, size // r)
    return best
