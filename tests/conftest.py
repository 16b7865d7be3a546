"""Shared fixtures: small hand-checkable instances used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import RandomClusterer
from repro.core import Assignment, ClusteredGraph, Clustering, TaskGraph
from repro.topology import SystemGraph, hypercube, mesh2d, ring
from repro.utils import GraphError
from repro.workloads import layered_random_dag

#: family -> smallest representative spec; the assertion in
#: test_metric_registry's test_every_topology_family_covered keeps this in
#: sync with the registry.
TOPOLOGY_SPECS = {
    "btree": "btree:3",
    "butterfly": "butterfly:2",
    "ccc": "ccc:3",
    "chain": "chain:8",
    "chordal": "chordal:8x3",
    "complete": "complete:8",
    "debruijn": "debruijn:3",
    "hypercube": "hypercube:3",
    "kautz": "kautz:2x2",
    "kbipartite": "kbipartite:3x3",
    "mesh": "mesh:8",
    "mesh2d": "mesh2d:2x4",
    "mesh3d": "mesh3d:2x2x2",
    "petersen": "petersen",
    "random": "random:8",
    "regular": "regular:8x3",
    "ring": "ring:8",
    "star": "star:8",
    "torus": "torus:8",
    "torus2d": "torus2d:2x4",
    "torus3d": "torus3d:2x2x2",
}


@pytest.fixture
def diamond_graph() -> TaskGraph:
    """The smallest interesting DAG: 0 -> {1, 2} -> 3.

    Sizes 2/3/1/2; edges (0,1)=1, (0,2)=2, (1,3)=2, (2,3)=1.
    Hand-computed ideal schedule (four singleton clusters):
        task 0: [0, 2)        task 1: [3, 6)
        task 2: [4, 5)        task 3: [8, 10)   (via 1: 6+2=8; via 2: 5+1=6)
    """
    return TaskGraph([2, 3, 1, 2], [(0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 3, 1)])


@pytest.fixture
def diamond_clustered(diamond_graph: TaskGraph) -> ClusteredGraph:
    """Diamond graph with singleton clusters (na == np == 4)."""
    return ClusteredGraph(diamond_graph, Clustering([0, 1, 2, 3]))


@pytest.fixture
def chain_graph() -> TaskGraph:
    """A 4-task chain with unit sizes and weights 3, 1, 2."""
    return TaskGraph([1, 1, 1, 1], [(0, 1, 3), (1, 2, 1), (2, 3, 2)])


@pytest.fixture
def ring4() -> SystemGraph:
    return ring(4)


@pytest.fixture
def q3() -> SystemGraph:
    return hypercube(3)


@pytest.fixture
def mesh23() -> SystemGraph:
    return mesh2d(2, 3)


@pytest.fixture
def medium_instance() -> tuple[ClusteredGraph, SystemGraph]:
    """A seeded 60-task instance on a 3-cube, shared by integration tests."""
    graph = layered_random_dag(num_tasks=60, rng=123)
    clustering = RandomClusterer(num_clusters=8).cluster(graph, rng=123)
    return ClusteredGraph(graph, clustering), hypercube(3)


def random_instance(
    seed: int,
    num_tasks: int = 40,
    system: SystemGraph | None = None,
) -> tuple[ClusteredGraph, SystemGraph]:
    """Helper (not a fixture) for parameterized randomized tests."""
    system = system or hypercube(3)
    graph = layered_random_dag(num_tasks=num_tasks, rng=seed)
    clustering = RandomClusterer(num_clusters=system.num_nodes).cluster(
        graph, rng=seed
    )
    return ClusteredGraph(graph, clustering), system


def weighted_ring4() -> SystemGraph:
    """A 4-node ring whose link 0-1 costs 3 and the others 1.

    The direct link stays a shortest route (the detour also costs 3), so
    ``0 -> 1`` is one hop of weighted cost 3: the case that separates
    "adjacent" and "hop count" from the weighted distance.
    """
    weights = ring(4).sys_edge.copy()
    weights[0, 1] = weights[1, 0] = 3
    return SystemGraph(ring(4).sys_edge, name="ring-4-w01", link_weights=weights)


def chain4_one_task_per_cluster() -> ClusteredGraph:
    """Unit tasks 0 -> 1 -> 2 -> 3 with unit weights, one per cluster."""
    graph = TaskGraph([1, 1, 1, 1], [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    return ClusteredGraph(graph, Clustering([0, 1, 2, 3]))


def scalar_schedule(
    graph: TaskGraph, edge_cost: np.ndarray, sizes: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The schedule recurrence in its scalar form: the tests' oracle.

    ``start[t] = max over predecessors j of (end[j] + edge_cost[j, t])``
    (0 for entry tasks) and ``end[t] = start[t] + sizes[t]``, one task at
    a time in topological order.  ``edge_cost`` is a dense ``np x np``
    matrix: ``clus_edge`` gives the ideal schedule, an assignment's
    ``comm`` matrix its schedule, and zeros with unit sizes the DAG
    depth (as ``start``).  The library runs the same recurrence only as
    the vectorized level sweep, which shares no code with this loop.
    """
    sizes = graph.task_sizes if sizes is None else sizes
    start = np.zeros(graph.num_tasks, dtype=np.int64)
    end = np.zeros(graph.num_tasks, dtype=np.int64)
    for t in graph.topological_order.tolist():
        preds = graph.predecessors(t)
        if preds.size:
            start[t] = int((end[preds] + edge_cost[preds, t]).max())
        end[t] = start[t] + sizes[t]
    return start, end


def oracle_phases_by_level(graph: TaskGraph) -> list[list[tuple[int, int]]]:
    """Edges grouped by their source task's DAG level, in ``edges()``
    order within a level, empty levels dropped; the level is read from
    :func:`scalar_schedule` (zero edge costs, unit sizes)."""
    n = graph.num_tasks
    depth, _ = scalar_schedule(
        graph, np.zeros((n, n), dtype=np.int64), np.ones(n, dtype=np.int64)
    )
    buckets: dict[int, list[tuple[int, int]]] = {}
    for e in graph.edges():
        buckets.setdefault(int(depth[e.src]), []).append((e.src, e.dst))
    return [buckets[k] for k in sorted(buckets)]


def oracle_lee_cost(
    clustered: ClusteredGraph,
    system: SystemGraph,
    assignment: Assignment,
    phases: list[list[tuple[int, int]]] | None = None,
) -> int:
    """Lee & Aggarwal's phase cost in its scalar form: the tests' oracle.

    ``sum over phases of max over the phase's pairs (i, j) of
    clus_edge[i, j] * dist(host(i), host(j))``, one pair at a time;
    intra-cluster edges and pairs that are no edge weigh 0.  Phases
    default to :func:`oracle_phases_by_level`.  The library scores
    placements on phase-sorted edge arrays with one segmented max,
    which shares no code with this loop.
    """
    if phases is None:
        phases = oracle_phases_by_level(clustered.graph)
    labels = clustered.clustering.labels
    hosts = assignment.placement
    clus = clustered.clus_edge
    total = 0
    for phase in phases:
        worst = 0
        for i, j in phase:
            w = int(clus[i, j])
            if w == 0:
                continue
            d = int(system.shortest[hosts[labels[i]], hosts[labels[j]]])
            worst = max(worst, w * d)
        total += worst
    return total


def oracle_route(system: SystemGraph, src: int, dst: int) -> list[int]:
    """One shortest route ``src -> dst`` (endpoints included), computed
    for this pair alone: the tests' routing oracle.

    BFS on unit-weight machines, neighbours scanned in ascending order
    and the first discovery kept; on weighted machines a backtrack from
    ``dst`` to the lowest-id neighbour ``u`` with ``dist(src, u) +
    w(u, v) == dist(src, v)``.  The library derives every route from one
    all-sources predecessor table instead, which shares no code with
    this loop.
    """
    if src == dst:
        return [src]
    if system.is_weighted:
        return _oracle_weighted_route(system, src, dst)
    prev = np.full(system.num_nodes, -1, dtype=np.int64)
    prev[src] = src
    frontier = [src]
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for v in system.neighbors(u).tolist():
                if prev[v] == -1:
                    prev[v] = u
                    if v == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(int(prev[path[-1]]))
                        return path[::-1]
                    nxt.append(v)
        frontier = nxt
    raise GraphError(f"no path from {src} to {dst}")


def _oracle_weighted_route(system: SystemGraph, src: int, dst: int) -> list[int]:
    dist = system.shortest[src]
    link_w = system.link_weights
    path = [dst]
    while path[-1] != src:
        v = path[-1]
        for u in system.neighbors(v).tolist():
            if dist[u] + link_w[u, v] == dist[v]:
                path.append(u)
                break
        else:
            raise GraphError(f"route backtrack failed {src}->{dst}")
    return path[::-1]


def assert_routes_match_oracle(system: SystemGraph) -> None:
    """Every route of ``system`` equals :func:`oracle_route`'s, and its
    cost equals the distance (the hop count on unit-weight machines)."""
    link_w = system.link_weights
    for a in range(system.num_nodes):
        for b in range(system.num_nodes):
            route = oracle_route(system, a, b)
            assert system.shortest_path(a, b) == tuple(route), (a, b)
            cost = sum(int(link_w[u, v]) for u, v in zip(route, route[1:]))
            assert system.distance(a, b) == cost, (a, b)
