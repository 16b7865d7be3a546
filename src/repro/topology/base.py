"""The system graph: processor interconnection topology.

Paper Sec. 2.1 (Fig. 5-a) and Sec. 3.4: an undirected, connected graph of
homogeneous processing elements, represented by

* ``sys_edge[ns][ns]`` — 0/1 adjacency matrix (Fig. 21-a),
* ``shortest[ns][ns]`` — all-pairs shortest-path hop counts (Fig. 21-b),
* ``deg[ns]`` — node degrees (Fig. 21-c).

The *closure* (Fig. 5-b) is the complete graph on the same nodes; it never
needs materializing (paper Sec. 3.5) — every off-diagonal distance is 1 —
but :meth:`SystemGraph.closure` builds it for callers that want to run the
generic evaluator on it.

Link weights default to unit (the 1991 model measures distance in hops).
Heterogeneous integer link costs are supported as an extension: pass
``link_weights`` and ``shortest`` becomes the weighted distance matrix
(Dijkstra), ``shortest_path`` follows weighted-optimal routes, and the
evaluator/simulator inherit the costs unchanged because they only consume
``shortest`` and the routes.  Theorem 3's lower bound stays valid as long
as every link weight is >= 1 (the closure's unit links remain a lower
envelope), which the constructor enforces.

The system graph is the only owner of routing: every message follows
one deterministic shortest route, the same in the simulator, the
congestion metrics, the embedding report and the matrix dump.  The
constructor builds ``shortest`` and the route-predecessor table
``route_prev`` together — on unit-weight machines in one BFS over all
sources at once, on weighted ones from the Dijkstra distances by a
lowest-id backtrack vectorized over the links.  The metrics and reports
read one walk of that table over all their pairs at once
(:attr:`SystemGraph.route_hops`, :meth:`SystemGraph.route_loads`), and
so does the ``max_congestion`` refinement's link-load evaluator
(:meth:`SystemGraph.walk_routes`); the simulator reads single routes
(:meth:`SystemGraph.shortest_path`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from ..utils import GraphError, _expand

__all__ = ["SystemGraph"]

#: Candidate (source, link) pairs one block of sources may expand: the
#: route builders take sources in blocks of ``_BLOCK_CANDIDATES // links``
#: so their temporaries stay near 8 MB per array on dense machines.
_BLOCK_CANDIDATES = 1 << 20


class SystemGraph:
    """An undirected, connected processor topology.

    Parameters
    ----------
    adjacency:
        Square 0/1 (or boolean) matrix; symmetrized automatically, so
        callers may fill only one triangle.  Self-loops are rejected.
    name:
        Label used in reports ("hypercube-16", "mesh-4x5", ...).
    link_weights:
        Optional square integer matrix of per-link costs (>= 1 on every
        link; entries off links are ignored).  Omitted = unit links (the
        paper's model).

    Raises
    ------
    GraphError
        If the matrix is not square, has self-loops, or the graph is
        disconnected (a disconnected machine cannot host communicating
        clusters), or a link weight is < 1.
    """

    def __init__(
        self,
        adjacency: object,
        name: str = "system",
        link_weights: object | None = None,
    ) -> None:
        mat = np.asarray(adjacency)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise GraphError(f"adjacency must be square, got shape {mat.shape}")
        adj = ((mat != 0) | (mat.T != 0)).astype(np.int64)
        if np.diagonal(adj).any():
            raise GraphError("system graph must not contain self-loops")
        if adj.shape[0] < 1:
            raise GraphError("system graph needs at least one node")
        self._adj = adj
        self.name = name

        if link_weights is None:
            self._link_w = adj.copy()
            self._weighted = False
        else:
            w = np.asarray(link_weights, dtype=np.int64)
            if w.shape != adj.shape:
                raise GraphError(
                    f"link_weights shape {w.shape} != adjacency {adj.shape}"
                )
            w = np.maximum(w, w.T)  # symmetrize like the adjacency
            if ((w < 1) & (adj > 0)).any():
                raise GraphError("every link weight must be >= 1")
            self._link_w = np.where(adj > 0, w, 0)
            self._weighted = bool((self._link_w[adj > 0] > 1).any())

        self._neighbors: list[np.ndarray] = [
            np.flatnonzero(adj[i]) for i in range(adj.shape[0])
        ]
        if self._weighted:
            self._shortest = _dijkstra_all_pairs(self._link_w, self._neighbors)
        else:
            self._shortest, self._prev = _bfs_routes(adj)
        if (self._shortest < 0).any():
            raise GraphError("system graph must be connected")
        if self._weighted:  # the backtrack needs every node reachable
            self._prev = _weighted_routes(self._shortest, self._link_w)
        self._routes: dict[tuple[int, int], tuple[int, ...]] = {}
        self._hops: np.ndarray | None = None
        self._deg = adj.sum(axis=1).astype(np.int64)

    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, num_nodes: int, edges: Iterable[tuple[int, int]], name: str = "system"
    ) -> "SystemGraph":
        """Build from an undirected edge list over nodes ``0..num_nodes-1``."""
        adj = np.zeros((num_nodes, num_nodes), dtype=np.int64)
        for u, v in edges:
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise GraphError(f"edge ({u}, {v}) references a missing node")
            if u == v:
                raise GraphError(f"self-loop ({u}, {v}) not allowed")
            adj[u, v] = adj[v, u] = 1
        return cls(adj, name=name)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of processors, the paper's ``ns``."""
        return self._adj.shape[0]

    @property
    def sys_edge(self) -> np.ndarray:
        """0/1 adjacency matrix (read-only view), Fig. 21-a."""
        return _read_only(self._adj)

    @property
    def shortest(self) -> np.ndarray:
        """All-pairs shortest hop counts (read-only view), Fig. 21-b."""
        return _read_only(self._shortest)

    @property
    def route_prev(self) -> np.ndarray:
        """Route predecessors (read-only view): ``route_prev[s, v]`` is the
        node before ``v`` on the route :meth:`shortest_path` takes from
        ``s`` (``route_prev[s, s] == s``)."""
        return _read_only(self._prev)

    @property
    def route_hops(self) -> np.ndarray:
        """Link count of every ordered pair's route (read-only view):
        ``shortest`` on unit-weight machines (BFS routes are shortest in
        hops); on weighted ones walked once on first read, maybe asymmetric."""
        if not self._weighted:
            return self.shortest
        if self._hops is None:
            n = self.num_nodes
            hops = np.zeros(n * n, dtype=np.int64)
            for live, _, _ in self.walk_routes(*np.divmod(np.arange(n * n), n)):
                hops[live] += 1
            self._hops = hops.reshape(n, n)
        return _read_only(self._hops)

    def route_loads(self, traffic: np.ndarray) -> np.ndarray:
        """Per directed link ``a -> b``, the summed ``traffic[p, q]`` of every
        route ``p -> q`` crossing it, exact and in ``traffic``'s dtype; the
        diagonal of the ``ns x ns`` ``traffic`` is ignored."""
        n = self.num_nodes
        if traffic.shape != (n, n):
            raise GraphError(f"traffic shape {traffic.shape} != ({n}, {n})")
        src, dst = np.nonzero(traffic)
        loads = np.zeros((n, n), dtype=traffic.dtype)
        for live, tail, head in self.walk_routes(src, dst):
            np.add.at(loads, (tail, head), traffic[src[live], dst[live]])
        return loads

    def walk_routes(self, src: np.ndarray, dst: np.ndarray) -> Iterator[tuple]:
        """Walk the routes ``src[i] -> dst[i]`` back through ``route_prev``,
        all pairs one hop per step (at most the diameter in hops): each
        step yields the indices ``i`` of the pairs still under way and the
        links ``tail -> head`` they cross."""
        live = np.flatnonzero(src != dst)
        head = dst[live]
        while live.size:
            tail = self._prev[src[live], head]
            yield live, tail, head
            going = tail != src[live]
            live, head = live[going], tail[going]

    @property
    def deg(self) -> np.ndarray:
        """Node degree vector (read-only view), Fig. 21-c."""
        return _read_only(self._deg)

    @property
    def link_weights(self) -> np.ndarray:
        """Per-link cost matrix (read-only view); equals ``sys_edge`` for
        unit-weight machines."""
        return _read_only(self._link_w)

    @property
    def is_weighted(self) -> bool:
        """True when any link costs more than one unit."""
        return self._weighted

    def link_weight(self, a: int, b: int) -> int:
        """Cost of the direct link ``a - b`` (0 if not adjacent)."""
        return int(self._link_w[a, b])

    def neighbors(self, node: int) -> np.ndarray:
        return self._neighbors[node]

    def distance(self, a: int, b: int) -> int:
        """Shortest-path distance between processors ``a`` and ``b``
        (hop count on unit-weight machines, weighted cost otherwise)."""
        return int(self._shortest[a, b])

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self._adj[a, b])

    def num_edges(self) -> int:
        """Number of undirected links."""
        return int(self._adj.sum() // 2)

    def diameter(self) -> int:
        return int(self._shortest.max())

    def average_distance(self) -> float:
        """Mean hop count over distinct node pairs (0 for a 1-node machine)."""
        n = self.num_nodes
        if n < 2:
            return 0.0
        return float(self._shortest.sum()) / (n * (n - 1))

    def closure(self) -> "SystemGraph":
        """The fully connected closure (Fig. 5-b)."""
        n = self.num_nodes
        adj = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
        return SystemGraph(adj, name=f"{self.name}-closure")

    def is_complete(self) -> bool:
        n = self.num_nodes
        return self.num_edges() == n * (n - 1) // 2

    def shortest_path(self, src: int, dst: int) -> tuple[int, ...]:
        """The deterministic shortest route ``src -> dst``, endpoints
        included: a walk of :attr:`route_prev`, memoized per pair.

        On unit-weight machines it is the route a BFS from ``src`` finds
        (neighbours scanned in ascending order, first discovery kept); on
        weighted ones each hop backtracks to the lowest-id neighbour on a
        weighted-shortest path.  The simulator routes messages hop by hop
        along it.
        """
        key = (src, dst)
        route = self._routes.get(key)
        if route is None:
            n = self.num_nodes
            if not (0 <= src < n and 0 <= dst < n):
                raise GraphError(f"no route {src} -> {dst} on {n} nodes")
            row = self._prev[src]
            hops = [int(dst)]
            while hops[-1] != src:
                hops.append(int(row[hops[-1]]))
            route = tuple(reversed(hops))
            self._routes[key] = route
        return route

    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of undirected links ``(u, v)`` with ``u < v``."""
        srcs, dsts = np.nonzero(np.triu(self._adj, 1))
        return sorted(zip(srcs.tolist(), dsts.tolist()))

    def to_networkx(self):
        """Export as :class:`networkx.Graph`."""
        import networkx as nx

        g = nx.Graph(name=self.name)
        g.add_nodes_from(range(self.num_nodes))
        g.add_edges_from(self.edges())
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SystemGraph):
            return NotImplemented
        # Link weights are >= 1 exactly on the links: they carry the adjacency.
        return np.array_equal(self._link_w, other._link_w)

    def __hash__(self) -> int:
        """In-process-only hash, consistent with ``==``: equal machines
        (same link weights) hash equal, so copies dedupe in a set."""
        # repro: allow[det_builtin_hash] - in-process dict/set membership only
        return hash((self._link_w.shape, self._link_w.tobytes()))

    def __repr__(self) -> str:
        return (
            f"SystemGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"links={self.num_edges()}, diameter={self.diameter()})"
        )


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


def _dijkstra_all_pairs(
    link_w: np.ndarray, neighbors: list[np.ndarray]
) -> np.ndarray:
    """All-pairs weighted shortest distances; -1 marks unreachable."""
    import heapq

    n = link_w.shape[0]
    dist = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        row = dist[s]
        row[s] = 0
        heap = [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > row[u]:
                continue
            for v in neighbors[u].tolist():
                nd = d + int(link_w[u, v])
                if row[v] == -1 or nd < row[v]:
                    row[v] = nd
                    heapq.heappush(heap, (nd, v))
    return dist


def _source_blocks(n: int, links: int) -> Iterator[np.ndarray]:
    """Source ids ``0..n-1`` in blocks of at most ``_BLOCK_CANDIDATES //
    links`` (at least one)."""
    block = max(1, _BLOCK_CANDIDATES // max(links, 1))
    for lo in range(0, n, block):
        yield np.arange(lo, min(lo + block, n), dtype=np.int64)


def _bfs_routes(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hop distances and route predecessors of every source, in one BFS.

    The frontier holds ``(source, node)`` pairs, source-major and in
    discovery order.  Each level expands every frontier node's
    neighbours in ascending order, and the first candidate to reach an
    undiscovered ``(source, node)`` becomes its predecessor: the order a
    FIFO BFS from each source visits them in.  ``-1`` marks unreachable.
    """
    n = adj.shape[0]
    rows, nbrs = np.nonzero(adj)  # row-major: each node's neighbours ascending
    deg = np.bincount(rows, minlength=n)
    ptr = np.concatenate(([0], np.cumsum(deg)))
    dist = np.full((n, n), -1, dtype=np.int64)
    prev = np.full((n, n), -1, dtype=np.int64)
    for block in _source_blocks(n, nbrs.size):
        src = node = block
        dist[block, block] = 0
        prev[block, block] = block
        level = 0
        while src.size:
            level += 1
            cand_src = np.repeat(src, deg[node])
            cand_from = np.repeat(node, deg[node])
            cand_to = nbrs[_expand(ptr[node], ptr[node + 1])]
            fresh = prev[cand_src, cand_to] == -1
            cand_src, cand_from, cand_to = (
                cand_src[fresh], cand_from[fresh], cand_to[fresh]
            )
            _, first = np.unique(cand_src * n + cand_to, return_index=True)
            first.sort()
            src, node = cand_src[first], cand_to[first]
            dist[src, node] = level
            prev[src, node] = cand_from[first]
    return dist, prev


def _weighted_routes(dist: np.ndarray, link_w: np.ndarray) -> np.ndarray:
    """Route predecessors of a connected weighted machine.

    ``prev[s, v]`` is the lowest-id neighbour ``u`` of ``v`` with
    ``dist[s, u] + w(u, v) == dist[s, v]``, found for every source at
    once over the links grouped by head ``v``.
    """
    n = dist.shape[0]
    heads, tails = np.nonzero(link_w)  # links tail -> head, by head, tails ascending
    weights = link_w[heads, tails]
    ptr = np.concatenate(([0], np.cumsum(np.bincount(heads, minlength=n))))
    prev = np.empty((n, n), dtype=np.int64)
    for block in _source_blocks(n, tails.size):
        rows = dist[block]
        tight = rows[:, tails] + weights == rows[:, heads]
        prev[block] = np.minimum.reduceat(np.where(tight, tails, n), ptr[:-1], axis=1)
    nodes = np.arange(n)
    prev[nodes, nodes] = nodes
    return prev
