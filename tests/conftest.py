"""Shared fixtures: small hand-checkable instances used across the suite."""

from __future__ import annotations

from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from repro.baselines.bokhari import BokhariResult
from repro.baselines.tabu import TabuResult
from repro.clustering import RandomClusterer
from repro.core import (
    AbstractGraph,
    Assignment,
    ClusteredGraph,
    Clustering,
    CommVolumeDelta,
    DeltaEvaluator,
    IdealSchedule,
    ScheduleViolation,
    TaskGraph,
)
from repro.topology import SystemGraph, hypercube, mesh2d, ring
from repro.utils import GraphError, as_rng
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


def communication_matrix(
    clustered: ClusteredGraph, system: SystemGraph, assignment: Assignment
) -> np.ndarray:
    """The paper's dense ``comm[np][np]`` (Sec. 4.3.4, Fig. 23-c): the
    tests' oracle for :func:`~repro.core.evaluate.communication_costs`.

    ``comm[i][j] = clus_edge[i][j] * shortest[host(i)][host(j)]`` over
    the dense matrices, so it is 0 where there is no edge and on edges
    inside a cluster.  The library keeps one cost per edge instead.
    """
    host = assignment.placement[clustered.clustering.labels]
    return clustered.clus_edge * system.shortest[np.ix_(host, host)]


def on_edges(graph: TaskGraph, dense: np.ndarray) -> np.ndarray:
    """The entries of an ``np x np`` matrix at the problem edges, aligned
    with ``graph.in_edge_arrays()``: the layout of the library's per-edge
    arrays (``i_edge``, ``crit_mask``, a schedule's ``comm``)."""
    srcs, dsts, _ = graph.in_edge_arrays()
    return dense[srcs, dsts]


def oracle_criticality(
    clustered: ClusteredGraph,
    ideal: IdealSchedule,
    propagate_through_intra: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Criticality by a pop-order backward search over dense matrices:
    the tests' oracle for :func:`~repro.core.critical.analyze_criticality`.

    The dense ``i_edge[j, i] = i_start[i] - i_end[j]`` (Fig. 22-a) is
    built on the problem edges.  Marked tasks are popped off a stack that
    starts with the latest tasks; every tight in-edge (``i_edge ==
    clus_edge``) of a popped task is critical, and its tail is pushed
    when first marked.  ``propagate_through_intra=False`` skips
    intra-cluster edges.  Critical abstract weights are then summed one
    edge at a time.  Returns the dense ``np x np`` critical mask,
    ``c_abs_edge``, the critical degrees and ``on_critical_path``; the
    library sweeps whole frontiers over per-edge arrays instead.
    """
    graph = clustered.graph
    n = graph.num_tasks
    clus = clustered.clus_edge
    labels = clustered.clustering.labels
    na = clustered.num_clusters
    gap = ideal.i_start[None, :] - ideal.i_end[:, None]
    i_edge = np.where(graph.prob_edge > 0, gap, 0)
    crit_mask = np.zeros((n, n), dtype=bool)
    on_path = np.zeros(n, dtype=bool)
    stack = np.flatnonzero(ideal.i_end == ideal.i_end.max()).tolist()
    on_path[stack] = True
    while stack:
        v = stack.pop()
        for u in graph.predecessors(v).tolist():
            if i_edge[u, v] != clus[u, v]:
                continue
            if labels[u] == labels[v] and not propagate_through_intra:
                continue
            crit_mask[u, v] = True
            if not on_path[u]:
                on_path[u] = True
                stack.append(u)
    c_abs = np.zeros((na, na), dtype=np.int64)
    for s, d in zip(*np.nonzero(crit_mask)):
        a, b = int(labels[s]), int(labels[d])
        if a != b:
            c_abs[a, b] += clus[s, d]
            c_abs[b, a] += clus[s, d]
    return crit_mask, c_abs, c_abs.sum(axis=1), on_path


def oracle_verify_times(
    clustered: ClusteredGraph,
    system: SystemGraph,
    assignment: Assignment,
    start: np.ndarray,
    end: np.ndarray,
    *,
    require_asap: bool = True,
) -> None:
    """The schedule checks one edge and one task at a time: the tests'
    oracle for :func:`~repro.core.validate.verify_times`.

    Raises :class:`~repro.core.validate.ScheduleViolation` with the
    library's messages: durations first, then every edge in
    ``graph.edges()`` order against ``end[u] + clus_edge[u, v] *
    dist(host(u), host(v))``, then (with ``require_asap``) every task in
    id order against its latest input.  The library checks each with one
    vector expression instead.
    """
    graph = clustered.graph
    n = graph.num_tasks
    start, end = np.asarray(start), np.asarray(end)
    if start.shape != (n,) or end.shape != (n,):
        raise ScheduleViolation(
            f"start/end must have shape ({n},), got {start.shape}/{end.shape}"
        )
    for t in range(n):
        if start[t] < 0:
            raise ScheduleViolation(f"task {t} starts before time 0")
    for t in range(n):
        if end[t] - start[t] != graph.task_sizes[t]:
            raise ScheduleViolation(
                f"task {t} runs for {int(end[t] - start[t])} units, "
                f"size is {int(graph.task_sizes[t])}"
            )
    hosts = assignment.placement[clustered.clustering.labels]
    clus = clustered.clus_edge
    for e in graph.edges():
        hops = int(system.shortest[hosts[e.src], hosts[e.dst]])
        arrival = int(end[e.src]) + int(clus[e.src, e.dst]) * hops
        if start[e.dst] < arrival:
            raise ScheduleViolation(
                f"edge ({e.src} -> {e.dst}): task {e.dst} starts at "
                f"{int(start[e.dst])} before its input arrives at {arrival}"
            )
    if not require_asap:
        return
    for t in range(n):
        preds = graph.predecessors(t)
        if preds.size == 0:
            if start[t] != 0:
                raise ScheduleViolation(
                    f"entry task {t} idles until {int(start[t])} "
                    "(as-soon-as-possible semantics requires 0)"
                )
            continue
        hops = system.shortest[hosts[preds], hosts[t]]
        ready = int((end[preds] + clus[preds, t] * hops).max())
        if start[t] != ready:
            raise ScheduleViolation(
                f"task {t} starts at {int(start[t])} but its inputs are "
                f"complete at {ready} (as-soon-as-possible violated)"
            )


def violation(check, *args, **kwargs) -> str | None:
    """The message of the :class:`~repro.core.validate.ScheduleViolation`
    that ``check(*args, **kwargs)`` raises, or None when it passes."""
    try:
        check(*args, **kwargs)
    except ScheduleViolation as exc:
        return str(exc)
    return None


def oracle_bottom_levels(graph: TaskGraph, weights: np.ndarray) -> np.ndarray:
    """Bottom levels in their scalar form: the tests' oracle.

    ``blevel[t] = sizes[t] + max over successors s of (weights[t, s] +
    blevel[s])`` (0 for exit tasks), one task at a time in reverse
    topological order, over a dense ``np x np`` weight matrix:
    ``prob_edge`` for DSC's priorities, ``clus_edge`` for the list
    scheduler's.  The library sweeps the reversed DAG's plan instead.
    """
    sizes = graph.task_sizes
    blevel = np.zeros(graph.num_tasks, dtype=np.int64)
    for t in graph.topological_order[::-1].tolist():
        succs = graph.successors(t)
        tail = 0
        if succs.size:
            tail = int((weights[t, succs] + blevel[succs]).max())
        blevel[t] = int(sizes[t]) + tail
    return blevel


def oracle_all_total_times(
    clustered: ClusteredGraph, system: SystemGraph
) -> tuple[np.ndarray, np.ndarray]:
    """Every assignment's total time, the ``n!`` assignments as one
    vector lane and the tasks one at a time in topological order: the
    tests' oracle for
    :func:`~repro.baselines.exhaustive.all_assignment_total_times`.

    Returns ``(perms, times)``: the ``assi`` rows in
    ``itertools.permutations`` order and their makespans, each task's
    communication ``clus_edge[j, t] * dist(host(j), host(t))`` read off
    the dense matrices.  The library scores the rows with the delta
    evaluator's batched level sweep instead.
    """
    n = system.num_nodes
    perms = np.asarray(list(permutations(range(n))), dtype=np.int64)
    host = np.argsort(perms, axis=1)[:, clustered.clustering.labels]
    graph = clustered.graph
    clus = clustered.clus_edge
    sizes = graph.task_sizes
    end = np.zeros((perms.shape[0], graph.num_tasks), dtype=np.int64)
    for t in graph.topological_order.tolist():
        preds = graph.predecessors(t)
        if preds.size == 0:
            end[:, t] = sizes[t]
            continue
        dist = system.shortest[host[:, preds], host[:, t][:, None]]
        start = (end[:, preds] + clus[preds, t][None, :] * dist).max(axis=1)
        end[:, t] = start + sizes[t]
    return perms, end.max(axis=1)


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


def oracle_tabu_mapping(
    clustered: ClusteredGraph,
    system: SystemGraph,
    rng: int | np.random.Generator | None = None,
    iterations: int = 40,
    tenure: int | None = None,
    initial: Assignment | None = None,
    lower_bound: int | None = None,
    reporter=None,
) -> tuple[TabuResult, Counter]:
    """Tabu search with its neighbourhood scanned one pair at a time:
    the tests' oracle for :func:`~repro.baselines.tabu.tabu_mapping`.

    Each iteration probes every pair ``(a, b > a)`` in order and keeps
    the first strictly best move that is not tabu or that aspirates
    (beats the best-so-far).  Also counts the scan's events: ``tie`` (an
    allowed move equal to the best so far in the scan), ``aspiration``
    (a tabu move allowed by aspiration) and ``reset`` (everything tabu
    and nothing aspirates).  The library scores the neighbourhood in one
    batch call instead.
    """
    gen = as_rng(rng)
    n = system.num_nodes
    current = initial if initial is not None else Assignment.random(n, rng=gen)
    evaluator = DeltaEvaluator(clustered, system, current)
    current_time = evaluator.total_time
    best, best_time = current, current_time
    evaluations = 1
    events: Counter = Counter()
    if tenure is None:
        tenure = n // 2 + 1

    tabu_until = np.zeros((n, n), dtype=np.int64)
    it = 0
    while it < iterations and n >= 2:
        it += 1
        if lower_bound is not None and best_time <= lower_bound:
            break
        move_best: tuple[int, int] | None = None
        move_time = None
        for a in range(n - 1):
            for b in range(a + 1, n):
                t = evaluator.probe_swap(a, b)
                evaluations += 1
                tabu = tabu_until[a, b] >= it
                aspirated = t < best_time
                if tabu and not aspirated:
                    continue
                events["aspiration"] += int(tabu)
                events["tie"] += t == move_time
                if move_time is None or t < move_time:
                    move_best, move_time = (a, b), t
        if move_best is None:
            events["reset"] += 1
            tabu_until[:] = 0
            continue
        a, b = move_best
        tabu_until[a, b] = tabu_until[b, a] = it + tenure
        current_time = evaluator.swap(a, b)
        if current_time < best_time:
            best, best_time = evaluator.assignment, current_time
        if reporter is not None:
            reporter.report(it, best_time, best)
            if reporter.should_stop():
                break
    result = TabuResult(
        assignment=best,
        total_time=best_time,
        iterations=it,
        evaluations=evaluations,
        reached_lower_bound=lower_bound is not None and best_time <= lower_bound,
    )
    return result, events


def oracle_bokhari_mapping(
    clustered: ClusteredGraph,
    system: SystemGraph,
    rng: int | np.random.Generator | None = None,
    restarts: int = 4,
    max_passes: int = 20,
    weighted: bool = False,
) -> tuple[BokhariResult, Counter]:
    """Bokhari's pairwise-exchange hill climb with each pass scanned one
    pair at a time: the tests' oracle for
    :func:`~repro.baselines.bokhari.bokhari_mapping`.

    Every pair ``(a, b > a)`` is scored by its scalar cardinality delta
    (:meth:`~repro.core.incremental.CommVolumeDelta.delta_swap`) and
    committed when it improves.  Also counts ``multi_commit_rows``:
    scans of one cluster ``a`` that commit more than once.  The library
    scores each cluster's remaining partners in one batch instead.
    """
    gen = as_rng(rng)
    abstract = AbstractGraph(clustered)
    pair_weights = abstract.weights if weighted else abstract.abs_edge
    n = system.num_nodes
    best: Assignment | None = None
    best_card = -1
    evaluations = 0
    events: Counter = Counter()
    for _ in range(max(1, restarts)):
        evaluator = CommVolumeDelta(
            np.triu(pair_weights, 1),
            system,
            Assignment.random(n, rng=gen),
            metric=system.sys_edge,
        )
        current_card = evaluator.volume
        evaluations += 1
        for _ in range(max_passes):
            improved = False
            for a in range(n - 1):
                commits = 0
                for b in range(a + 1, n):
                    card = current_card + evaluator.delta_swap(a, b)
                    evaluations += 1
                    if card > current_card:
                        current_card = evaluator.swap(a, b)
                        improved = True
                        commits += 1
                events["multi_commit_rows"] += commits > 1
            if not improved:
                break
        if current_card > best_card:
            best, best_card = evaluator.assignment, current_card
    assert best is not None
    result = BokhariResult(assignment=best, cardinality=best_card, evaluations=evaluations)
    return result, events


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


def oracle_route_hops(system: SystemGraph) -> np.ndarray:
    """Links on every ordered pair's route, one :func:`oracle_route` per
    pair: the tests' oracle for ``SystemGraph.route_hops``, which walks
    all pairs' routes at once."""
    n = system.num_nodes
    hops = np.zeros((n, n), dtype=np.int64)
    for p in range(n):
        for q in range(n):
            hops[p, q] = len(oracle_route(system, p, q)) - 1
    return hops


def oracle_route_loads(system: SystemGraph, traffic: np.ndarray) -> np.ndarray:
    """Per directed link, the summed ``traffic[p, q]`` of every route
    ``p -> q`` crossing it, one :func:`oracle_route` at a time: the
    tests' oracle for ``SystemGraph.route_loads``, which walks all
    pairs' routes at once."""
    n = system.num_nodes
    loads = np.zeros((n, n), dtype=traffic.dtype)
    for p in range(n):
        for q in range(n):
            route = oracle_route(system, p, q)
            for a, b in zip(route, route[1:]):
                loads[a, b] += traffic[p, q]
    return loads


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


def oracle_contracted_link_weights(
    system: SystemGraph, proc_map: np.ndarray
) -> np.ndarray:
    """The link costs of ``system`` contracted by ``proc_map``, one fine
    link at a time: the tests' oracle for
    :func:`~repro.core.multilevel.contract_system`, which takes every
    coarse pair's cheapest member link in one ``np.minimum.at``.  Zero
    off the coarse links."""
    nc = int(proc_map.max()) + 1
    out = np.zeros((nc, nc), dtype=np.int64)
    srcs, dsts = np.nonzero(system.sys_edge)
    for u, v in zip(srcs.tolist(), dsts.tolist()):
        i, j, w = int(proc_map[u]), int(proc_map[v]), system.link_weight(u, v)
        if i != j and (out[i, j] == 0 or w < out[i, j]):
            out[i, j] = out[j, i] = w
    return out


def oracle_abstract_weights(clustered: ClusteredGraph) -> np.ndarray:
    """Symmetric clustered weight per cluster pair by a 2-D ``np.add.at``
    over the inter-cluster edges only: the tests' oracle for
    :class:`~repro.core.abstract.AbstractGraph`, which adds every edge
    into one flat cluster-pair index."""
    na = clustered.num_clusters
    labels = clustered.clustering.labels
    srcs, dsts, _ = clustered.graph.edge_arrays()
    cw = clustered.cross_out_weights
    m = cw > 0
    acc = np.zeros((na, na), dtype=np.int64)
    np.add.at(acc, (labels[srcs[m]], labels[dsts[m]]), cw[m])
    return acc + acc.T


def oracle_undirected_pairs(
    graph: TaskGraph,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lo, hi, weight)`` of every undirected edge, both orientations
    summed, sorted by ``(lo, hi)``: one edge at a time into a dict."""
    sums: dict[tuple[int, int], int] = {}
    for e in graph.edges():
        key = (min(e.src, e.dst), max(e.src, e.dst))
        sums[key] = sums.get(key, 0) + e.weight
    items = sorted(sums.items())
    lo = np.array([a for (a, _), _ in items], dtype=np.int64)
    hi = np.array([b for (_, b), _ in items], dtype=np.int64)
    return lo, hi, np.array([w for _, w in items], dtype=np.int64)


def oracle_heavy_edge_matching(
    graph: TaskGraph, max_merges: int
) -> list[tuple[int, int]]:
    """Heavy-edge matching by a three-key ``lexsort`` over ``(-weight,
    lo, hi)`` and a walk of numpy scalars: the tests' oracle for
    :func:`~repro.core.multilevel.heavy_edge_matching`."""
    if max_merges <= 0:
        return []
    srcs, dsts, weights = oracle_undirected_pairs(graph)
    if not srcs.size:
        return []
    order = np.lexsort((dsts, srcs, -weights))
    matched = np.zeros(graph.num_tasks, dtype=bool)
    pairs: list[tuple[int, int]] = []
    for k in order.tolist():
        u, v = int(srcs[k]), int(dsts[k])
        if matched[u] or matched[v]:
            continue
        matched[u] = matched[v] = True
        pairs.append((u, v))
        if len(pairs) >= max_merges:
            break
    return pairs


def oracle_merge_map(num_nodes: int, pairs: list[tuple[int, int]]) -> np.ndarray:
    """``node_map[old] = new`` for merging ``pairs``: new ids ordered by
    each group's smallest old member, one node at a time."""
    rep = list(range(num_nodes))
    for u, v in pairs:
        rep[max(u, v)] = min(u, v)
    new_id = {r: i for i, r in enumerate(sorted(set(rep)))}
    return np.array([new_id[r] for r in rep], dtype=np.int64)


def oracle_contract_graph(
    graph: TaskGraph, pairs: list[tuple[int, int]]
) -> tuple[TaskGraph, np.ndarray, int]:
    """Contraction by sorting the merged undirected pairs with a
    ``lexsort`` and summing them with ``np.add.reduceat``: the tests'
    oracle for :func:`~repro.core.multilevel.contract_graph`."""
    node_map = oracle_merge_map(graph.num_tasks, pairs)
    nc = int(node_map.max()) + 1
    sizes = np.bincount(node_map, weights=graph.task_sizes, minlength=nc)
    srcs, dsts, w = oracle_undirected_pairs(graph)
    a, b = node_map[srcs], node_map[dsts]
    inside = a == b
    absorbed = int(w[inside].sum())
    lo, hi = np.minimum(a[~inside], b[~inside]), np.maximum(a[~inside], b[~inside])
    w = w[~inside]
    if lo.size:
        order = np.lexsort((hi, lo))
        lo, hi, w = lo[order], hi[order], w[order]
        first = np.concatenate(
            ([True], (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1]))
        )
        starts = np.flatnonzero(first)
        lo, hi, w = lo[starts], hi[starts], np.add.reduceat(w, starts)
    coarse = TaskGraph.from_edge_arrays(
        sizes.astype(np.int64), lo, hi, w, name=f"{graph.name}/2"
    )
    return coarse, node_map, absorbed


def oracle_match_processors(
    system: SystemGraph, num_merges: int
) -> list[tuple[int, int]]:
    """Processor pairing by a ``lexsort`` of all ``ns(ns-1)/2`` pairs by
    ``(distance, p, q)`` and a walk of numpy scalars: the tests' oracle
    for :func:`~repro.core.multilevel.match_processors`."""
    n = system.num_nodes
    iu = np.triu_indices(n, 1)
    order = np.lexsort((iu[1], iu[0], system.shortest[iu]))
    matched = np.zeros(n, dtype=bool)
    pairs: list[tuple[int, int]] = []
    for k in order.tolist():
        if len(pairs) >= num_merges:
            break
        p, q = int(iu[0][k]), int(iu[1][k])
        if matched[p] or matched[q]:
            continue
        matched[p] = matched[q] = True
        pairs.append((p, q))
    return pairs
