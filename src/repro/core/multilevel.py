"""Multilevel coarsen–map–refine mapping (the Scotch/Metis lineage).

The paper's two-phase strategy — cluster the problem graph, then map the
clusters onto processors — is the 1991 ancestor of today's *multilevel*
mapping: contract the graph into a hierarchy of progressively smaller
graphs, map the coarsest one (where search is cheap), then project the
assignment back level by level, refining at each resolution.  This
module grows the reproduction in that direction while reusing the
repo's existing primitives end to end:

* **Coarsening** — the mapping stage's unit of placement is the cluster,
  so level 0 of the hierarchy is the *abstract cluster graph* rendered
  as a :class:`~repro.core.taskgraph.TaskGraph` (node = cluster, node
  size = cluster work, edge weight = total inter-cluster communication;
  see :func:`abstract_taskgraph`).  Each contraction runs deterministic
  heavy-edge matching (:func:`heavy_edge_matching`) and merges matched
  pairs (:func:`contract_graph`), recording the projection map and the
  communication weight *absorbed* inside merged nodes — so total
  communication is conserved across levels
  (``coarse.total_comm + absorbed == fine.total_comm``, a tested
  invariant).  The machine is contracted in lockstep
  (:func:`match_processors` / :func:`contract_system`): exactly as many
  processor pairs merge as cluster pairs, keeping the bijection
  ``na == ns`` at every level.
* **Initial mapping** — any callable with the mapper calling convention
  maps the coarsest instance; the :mod:`repro.api` adapter plugs in any
  *registered* mapper here (``initial="critical"`` by default).  When no
  coarsening happens (``max_levels=1`` or the graph is already at or
  below ``min_coarse_tasks``) the callable receives the *original*
  instance untouched, so ``multilevel(initial=X, max_levels=1)`` is
  bit-identical to plain ``X``.
* **Uncoarsening** — :func:`project_assignment` expands each coarse
  node's children onto its coarse processor's children (spill-over
  children go to the free processor nearest their sibling), then
  :func:`refine_comm_volume` runs KL/FM-style boundary refinement on
  top of the O(deg) probe/commit machinery from
  :mod:`repro.core.incremental`
  (:class:`~repro.core.incremental.CommVolumeDelta`, the comm-volume
  aggregate of :class:`~repro.core.incremental.DeltaEvaluator` without
  the schedule state this loop never reads), committing only swaps
  that strictly reduce the hop-weighted communication volume.

Communication volume is *exactly* representable at every level of the
hierarchy (it is a sum over cluster pairs), which is why the refinement
optimizes it rather than the makespan; the makespan of the final
assignment is evaluated once, at full resolution, by the caller.

Edges of a level graph are stored low-id -> high-id (the abstract view
is undirected; a DAG orientation is required by :class:`TaskGraph` and
any total order gives one), so every level is a valid ``TaskGraph`` and
the whole hierarchy can be fed back into any graph-consuming tool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..topology.base import SystemGraph
from ..utils import MappingError
from .abstract import AbstractGraph
from .assignment import Assignment
from .clustered import ClusteredGraph, Clustering
from .incremental import CommVolumeDelta
from .taskgraph import TaskGraph, _expand

__all__ = [
    "Level",
    "MultilevelHierarchy",
    "MultilevelResult",
    "abstract_taskgraph",
    "build_hierarchy",
    "contract_graph",
    "contract_system",
    "heavy_edge_matching",
    "identity_clustering",
    "match_processors",
    "multilevel_map",
    "project_assignment",
    "refine_comm_volume",
    "refine_metric",
]


def abstract_taskgraph(clustered: ClusteredGraph) -> TaskGraph:
    """Level 0 of the hierarchy: the abstract cluster graph as a TaskGraph.

    Node ``c`` stands for cluster ``c`` with size = the cluster's total
    task work; the edge between clusters ``a < b`` carries the total
    clustered communication weight between them (both orientations
    summed, as in :class:`~repro.core.abstract.AbstractGraph`), stored
    ``a -> b`` so the result is a DAG by construction.  Total edge
    weight equals ``clustered.cut_weight()`` — communication is
    conserved when moving to the abstract view.
    """
    weights = AbstractGraph(clustered).weights
    mat = np.triu(weights, 1)
    return TaskGraph(
        clustered.clustering.load(clustered.graph),
        mat,
        name=f"{clustered.graph.name}@clusters",
    )


def identity_clustering(num_nodes: int) -> Clustering:
    """Every node is its own cluster (level graphs are mapped 1:1)."""
    return Clustering(np.arange(num_nodes), num_clusters=num_nodes)


def heavy_edge_matching(graph: TaskGraph, max_merges: int) -> list[tuple[int, int]]:
    """Deterministic heavy-edge matching: up to ``max_merges`` disjoint pairs.

    Undirected edges are visited by descending weight (ties by endpoint
    ids); a pair is taken when both endpoints are still unmatched.  The
    classic randomized-visit HEM is replaced by this global greedy so the
    whole multilevel pipeline is deterministic without consuming any RNG
    state (the sub-mapper gets the seed untouched).
    """
    if max_merges <= 0:
        return []
    srcs, dsts, weights = _undirected_pairs(graph)
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


def _undirected_pairs(
    graph: TaskGraph,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique undirected edges ``(lo, hi, weight)`` sorted by ``(lo, hi)``.

    Straight from the CSR edge arrays — equivalent to the nonzero pattern
    of ``triu(prob_edge + prob_edge.T, 1)`` without building either dense
    matrix (weights of coincident orientations are summed; a DAG cannot
    contain a 2-cycle, so in practice each pair appears once).
    """
    srcs, dsts, w = graph.edge_arrays()
    if not srcs.size:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    lo, hi = np.minimum(srcs, dsts), np.maximum(srcs, dsts)
    order = np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    first = np.concatenate(([True], (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])))
    starts = np.flatnonzero(first)
    return lo[starts], hi[starts], np.add.reduceat(w, starts)


def _merge_map(num_nodes: int, pairs: list[tuple[int, int]]) -> np.ndarray:
    """``node_map[old] = new`` for merging ``pairs``; new ids are dense and
    ordered by each group's smallest old member, so contraction is stable."""
    rep = np.arange(num_nodes, dtype=np.int64)
    for u, v in pairs:
        lo, hi = (u, v) if u < v else (v, u)
        rep[hi] = lo
    reps = np.unique(rep)
    new_id = np.empty(num_nodes, dtype=np.int64)
    new_id[reps] = np.arange(reps.size)
    return new_id[rep]


def contract_graph(
    graph: TaskGraph, pairs: list[tuple[int, int]]
) -> tuple[TaskGraph, np.ndarray, int]:
    """Merge matched node pairs; returns ``(coarse, node_map, absorbed)``.

    ``node_map[fine] = coarse`` records the projection; ``absorbed`` is
    the communication weight of edges whose endpoints merged (it leaves
    the coarse graph but is conserved:
    ``coarse.total_comm + absorbed == graph.total_comm``).
    """
    n = graph.num_tasks
    node_map = _merge_map(n, pairs)
    nc = int(node_map.max()) + 1
    sizes = np.bincount(node_map, weights=graph.task_sizes, minlength=nc)
    srcs, dsts, w = _undirected_pairs(graph)
    a, b = node_map[srcs], node_map[dsts]
    inside = a == b
    absorbed = int(w[inside].sum())
    lo, hi = np.minimum(a[~inside], b[~inside]), np.maximum(a[~inside], b[~inside])
    w = w[~inside]
    if lo.size:
        # Aggregate parallel coarse edges without a dense nc x nc scatter.
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


def match_processors(system: SystemGraph, num_merges: int) -> list[tuple[int, int]]:
    """``num_merges`` disjoint processor pairs, nearest pairs first.

    Greedy over all pairs by ``(distance, ids)``; on a connected machine
    any ``num_merges <= ns // 2`` is always achievable.
    """
    n = system.num_nodes
    if num_merges <= 0:
        return []
    if num_merges > n // 2:
        raise MappingError(
            f"cannot merge {num_merges} processor pairs on {n} processors"
        )
    iu = np.triu_indices(n, 1)
    order = np.lexsort((iu[1], iu[0], system.shortest[iu]))
    matched = np.zeros(n, dtype=bool)
    pairs: list[tuple[int, int]] = []
    for k in order.tolist():
        p, q = int(iu[0][k]), int(iu[1][k])
        if matched[p] or matched[q]:
            continue
        matched[p] = matched[q] = True
        pairs.append((p, q))
        if len(pairs) >= num_merges:
            break
    return pairs


def contract_system(
    system: SystemGraph, pairs: list[tuple[int, int]]
) -> tuple[SystemGraph, np.ndarray]:
    """Merge matched processor pairs; returns ``(coarse, proc_map)``.

    Two coarse processors are linked when any of their members were;
    contraction of a connected machine stays connected, so the result
    is always a valid :class:`SystemGraph`.  On heterogeneous machines
    the coarse link inherits the *cheapest* member link (the contracted
    distances stay a lower envelope of the fine ones), so every level
    of the hierarchy keeps optimizing the weighted metric.
    """
    n = system.num_nodes
    proc_map = _merge_map(n, pairs)
    nc = int(proc_map.max()) + 1
    srcs, dsts = np.nonzero(system.sys_edge)
    a, b = proc_map[srcs], proc_map[dsts]
    adj = np.zeros((nc, nc), dtype=np.int64)
    adj[a, b] = 1
    np.fill_diagonal(adj, 0)
    link_weights = None
    if system.is_weighted:
        link_weights = np.zeros((nc, nc), dtype=np.int64)
        for i, j, w in zip(
            a.tolist(), b.tolist(), system.link_weights[srcs, dsts].tolist()
        ):
            if i != j and (link_weights[i, j] == 0 or w < link_weights[i, j]):
                link_weights[i, j] = link_weights[j, i] = w
    coarse = SystemGraph(adj, name=f"{system.name}/2", link_weights=link_weights)
    return coarse, proc_map


@dataclass(frozen=True)
class Level:
    """One resolution of the hierarchy (finest = index 0).

    ``node_map``/``proc_map`` project this level's nodes/processors onto
    the next-coarser level (``None`` at the coarsest level);
    ``absorbed`` is the communication weight the contraction *into the
    next level* internalized (0 at the coarsest level).
    """

    graph: TaskGraph
    system: SystemGraph
    node_map: np.ndarray | None = None
    proc_map: np.ndarray | None = None
    absorbed: int = 0


@dataclass(frozen=True)
class MultilevelHierarchy:
    """The full coarsening hierarchy, finest (level 0) to coarsest."""

    levels: list[Level]

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def coarsest(self) -> Level:
        return self.levels[-1]

    def sizes(self) -> list[int]:
        """Node count per level, finest first."""
        return [level.graph.num_tasks for level in self.levels]


def build_hierarchy(
    clustered: ClusteredGraph,
    system: SystemGraph,
    max_levels: int = 12,
    min_coarse_tasks: int = 8,
) -> MultilevelHierarchy:
    """Coarsen the abstract cluster graph and the machine in lockstep.

    Contraction stops when the next level would need more than
    ``max_levels`` levels in total, the graph is down to
    ``min_coarse_tasks`` nodes, or heavy-edge matching finds no pair to
    merge (no edges left).  Every level keeps ``na == ns``.
    """
    if clustered.num_clusters != system.num_nodes:
        raise MappingError(
            f"{clustered.num_clusters} clusters cannot map onto "
            f"{system.num_nodes} system nodes (na must equal ns)"
        )
    if max_levels < 1:
        raise MappingError(f"max_levels must be >= 1, got {max_levels}")
    if min_coarse_tasks < 1:
        raise MappingError(f"min_coarse_tasks must be >= 1, got {min_coarse_tasks}")
    graph = abstract_taskgraph(clustered)
    levels: list[Level] = []
    current_system = system
    while len(levels) + 1 < max_levels and graph.num_tasks > min_coarse_tasks:
        budget = min(graph.num_tasks - min_coarse_tasks, graph.num_tasks // 2)
        pairs = heavy_edge_matching(graph, budget)
        if not pairs:
            break
        coarse_graph, node_map, absorbed = contract_graph(graph, pairs)
        coarse_system, proc_map = contract_system(
            current_system, match_processors(current_system, len(pairs))
        )
        levels.append(Level(graph, current_system, node_map, proc_map, absorbed))
        graph, current_system = coarse_graph, coarse_system
    levels.append(Level(graph, current_system))
    return MultilevelHierarchy(levels)


def project_assignment(level: Level, coarse: Assignment) -> Assignment:
    """Expand a next-coarser assignment onto ``level``.

    Each coarse node's children land on its coarse processor's children
    in id order.  A merge on one side need not mirror a merge on the
    other, so a two-child node can sit on a one-child processor; the
    spilled child then takes the free processor nearest its sibling
    (ties by processor id), which the per-level refinement immediately
    gets to improve.  The result is always a valid bijection.
    """
    node_map, proc_map = level.node_map, level.proc_map
    if node_map is None or proc_map is None:
        raise MappingError("the coarsest level has nothing to project from")
    nc = int(node_map.max()) + 1
    if coarse.size != nc:
        raise MappingError(
            f"coarse assignment covers {coarse.size} nodes, expected {nc}"
        )
    n = node_map.size
    node_children: list[list[int]] = [[] for _ in range(nc)]
    for fine, parent in enumerate(node_map.tolist()):
        node_children[parent].append(fine)
    proc_children: list[list[int]] = [[] for _ in range(nc)]
    for fine, parent in enumerate(proc_map.tolist()):
        proc_children[parent].append(fine)

    placement = np.full(n, -1, dtype=np.int64)
    spilled: list[tuple[int, int]] = []  # (fine node, sibling's processor)
    free: list[int] = []
    for parent in range(nc):
        nodes = node_children[parent]
        procs = proc_children[int(coarse.placement[parent])]
        k = min(len(nodes), len(procs))
        for i in range(k):
            placement[nodes[i]] = procs[i]
        if len(nodes) > k:
            spilled.append((nodes[k], procs[0]))
        free.extend(procs[k:])

    dist = level.system.shortest
    free.sort()
    for node, sibling_proc in sorted(spilled):
        best = min(free, key=lambda q: (int(dist[sibling_proc, q]), q))
        free.remove(best)
        placement[node] = best
    return Assignment.from_placement(placement)


def refine_comm_volume(
    graph: TaskGraph,
    system: SystemGraph,
    assignment: Assignment,
    passes: int,
    reporter=None,
) -> tuple[Assignment, int, int, int]:
    """KL/FM-style boundary refinement of one level's assignment.

    Sweeps the nodes in order; for each node ``c`` and each of its
    graph neighbors ``d`` (heaviest first), proposes swapping ``c``
    with the occupants of the processors adjacent to ``d``'s host —
    i.e. tries to pull ``c`` next to the nodes it talks to most.  Each
    node's proposals are scored as one gain-table batch on the
    :class:`~repro.core.incremental.CommVolumeDelta` aggregate (the
    comm-volume half of the delta-evaluation machinery, without the
    schedule state this loop never reads); only strictly improving
    swaps commit, so every pass monotonically reduces the hop-weighted
    communication volume and the loop terminates.  Stops early when a
    full pass commits nothing.

    Returns ``(assignment, comm_volume, probes, swaps)``.
    """
    n = graph.num_tasks
    if n != system.num_nodes:
        raise MappingError(
            f"level graph has {n} nodes, system has {system.num_nodes}"
        )
    sym = graph.prob_edge + graph.prob_edge.T
    evaluator = CommVolumeDelta(sym, system, assignment)
    return _pairwise_sweep(sym, system, evaluator, passes, reporter)


def _neighbor_lists(sym: np.ndarray) -> list[list[int]]:
    """Per-node graph neighbors, heaviest edge first (ties by id)."""
    out: list[list[int]] = []
    for c in range(sym.shape[0]):
        nbrs = np.flatnonzero(sym[c])
        order = np.lexsort((nbrs, -sym[c, nbrs]))
        out.append(nbrs[order].tolist())
    return out


def _pairwise_sweep(
    sym: np.ndarray,
    system: SystemGraph,
    evaluator: CommVolumeDelta,
    passes: int,
    reporter=None,
) -> tuple[Assignment, int, int, int]:
    """The KL/FM sweep of :func:`refine_comm_volume` over any
    :class:`CommVolumeDelta` aggregate (default distances or a metric's
    pair matrix).

    Each node ``c`` proposes, in order, a swap with the occupant of
    every processor adjacent to each graph neighbor's host (neighbors
    heaviest-first, each host's processor neighborhood in order), and
    the *first* improving proposal commits.  The placement is fixed
    while ``c``'s proposals are scored, so the whole sequence is built
    in one gather and scored with one :meth:`CommVolumeDelta.delta_swaps`
    call; the first negative entry is the committed swap, and its
    one-based position is the probe count.

    ``reporter`` (an optional
    :class:`~repro.core.anytime.AnytimeReporter`) gets one checkpoint
    per completed pass and may stop the sweep between passes."""
    n = sym.shape[0]
    if passes <= 0 or n < 2:
        return evaluator.assignment, evaluator.volume, 0, 0

    nbr_arrs = [np.asarray(nbrs, dtype=np.int64) for nbrs in _neighbor_lists(sym)]
    rows = [system.neighbors(p) for p in range(system.num_nodes)]
    adj_ptr = np.concatenate(
        ([0], np.cumsum([row.size for row in rows]))
    ).astype(np.int64)
    adj_idx = np.concatenate(rows).astype(np.int64)
    placement = evaluator.placement_view
    assi = evaluator.occupant_view
    probes = swaps = 0
    for _ in range(passes):
        improved = False
        for c in range(n):
            nbrs = nbr_arrs[c]
            if not nbrs.size:
                continue
            hosts = placement[nbrs]
            procs = adj_idx[_expand(adj_ptr[hosts], adj_ptr[hosts + 1])]
            occ = assi[procs]
            keep = occ != c
            if not keep.all():
                procs, occ = procs[keep], occ[keep]
            if not procs.size:
                continue
            negative = evaluator.delta_swaps(c, procs) < 0
            if negative.any():
                first = int(np.argmax(negative))
                probes += first + 1
                evaluator.swap(c, int(occ[first]))
                swaps += 1
                improved = True
            else:
                probes += int(procs.size)
        if reporter is not None:
            reporter.report(probes, evaluator.volume, evaluator.assignment)
            if reporter.should_stop():
                break
        if not improved:
            break
    return evaluator.assignment, evaluator.volume, probes, swaps


def refine_metric(
    graph: TaskGraph,
    system: SystemGraph,
    assignment: Assignment,
    passes: int,
    metric: str = "comm_volume",
    reporter=None,
) -> tuple[Assignment, float, int, int]:
    """:func:`refine_comm_volume` generalized to any registered analytic
    metric as the objective.

    ``metric="comm_volume"`` is the existing path, bit-identical to
    :func:`refine_comm_volume`.  Other analytic metrics run the same
    neighborhood sweep: metrics exposing a symmetric ``pair_matrix``
    (e.g. ``hop_bytes`` on unit-weight machines) keep the O(deg) probes
    on the :class:`~repro.core.incremental.CommVolumeDelta` aggregate;
    anything else falls back to probing full metric evaluations on the
    identity-clustered level graph.  Simulator-backed metrics are
    rejected — a sweep probing thousands of swaps cannot afford a
    simulation per probe.

    Returns ``(assignment, objective_value, probes, swaps)`` where the
    objective value is the metric's headline key on the final
    assignment.
    """
    if metric == "comm_volume":
        return refine_comm_volume(graph, system, assignment, passes, reporter)
    from ..metrics import METRICS  # deferred: repro.metrics imports repro.api

    m = METRICS.get(metric)
    if not getattr(m, "analytic", False):
        raise MappingError(
            f"refinement objective must be an analytic metric; "
            f"{metric!r} is simulator-backed"
        )
    n = graph.num_tasks
    if n != system.num_nodes:
        raise MappingError(
            f"level graph has {n} nodes, system has {system.num_nodes}"
        )
    level = ClusteredGraph(graph, identity_clustering(n))
    sym = graph.prob_edge + graph.prob_edge.T

    pair_fn = getattr(m, "pair_matrix", None)
    pair = pair_fn(system) if pair_fn is not None else None
    if pair is not None:
        evaluator = CommVolumeDelta(sym, system, assignment, metric=pair)
        refined, _, probes, swaps = _pairwise_sweep(
            sym, system, evaluator, passes, reporter
        )
        value = float(m.compute(level, system, refined)[metric])
        return refined, value, probes, swaps

    # Full-evaluation fallback: exact but O(metric) per probe.
    current = assignment
    value = float(m.compute(level, system, current)[metric])
    if passes <= 0 or n < 2:
        return current, value, 0, 0
    neighbor_lists = _neighbor_lists(sym)
    probes = swaps = 0
    for _ in range(passes):
        improved = False
        for c in range(n):
            for d in neighbor_lists[c]:
                target_procs = system.neighbors(int(current.placement[d]))
                committed = False
                for q in target_procs.tolist():
                    occupant = int(current.assi[q])
                    if occupant == c:
                        continue
                    probes += 1
                    candidate = current.swapped(c, occupant)
                    cand_value = float(m.compute(level, system, candidate)[metric])
                    if cand_value < value:
                        current, value = candidate, cand_value
                        swaps += 1
                        improved = committed = True
                        break
                if committed:
                    break
        if reporter is not None:
            reporter.report(probes, value, current)
            if reporter.should_stop():
                break
        if not improved:
            break
    return current, value, probes, swaps


# multilevel_map's ``refine_metric=`` keyword shadows the function above
# inside its body; keep a module-level alias to call through.
_refine_with_metric = refine_metric


@dataclass(frozen=True)
class MultilevelResult:
    """Outcome of :func:`multilevel_map`.

    ``comm_volume`` is the refinement objective's value on
    ``assignment`` — the hop-weighted communication volume under the
    default objective (exact for the original instance, because the
    level-0 abstract graph carries the full inter-cluster weights), or
    the chosen metric's headline value under ``refine_metric=...``.
    ``coarsened`` is False when the hierarchy collapsed to one level
    and the initial mapper ran on the original instance untouched.
    """

    assignment: Assignment
    hierarchy: MultilevelHierarchy
    comm_volume: int | float
    refine_probes: int
    refine_swaps: int

    @property
    def coarsened(self) -> bool:
        return self.hierarchy.num_levels > 1

    @property
    def num_levels(self) -> int:
        return self.hierarchy.num_levels

    @property
    def coarsest_nodes(self) -> int:
        return self.hierarchy.coarsest.graph.num_tasks


def multilevel_map(
    clustered: ClusteredGraph,
    system: SystemGraph,
    initial_mapper,
    max_levels: int = 12,
    min_coarse_tasks: int = 8,
    refine_passes: int = 4,
    refine_metric: str = "comm_volume",
    rng=None,
    reporter=None,
) -> MultilevelResult:
    """Coarsen, map the coarsest level with ``initial_mapper``, uncoarsen.

    ``initial_mapper`` is any callable ``(clustered, system, rng) ->
    Assignment`` — the :mod:`repro.api` adapter passes a registered
    mapper here.  When the hierarchy has a single level the callable
    receives the *original* ``(clustered, system)`` and its assignment
    is returned unrefined (the bit-identity contract); otherwise it
    receives the coarsest level graph under an identity clustering and
    the lockstep-coarsened machine, and the assignment is projected and
    refined level by level back to full resolution.

    ``refine_metric`` selects the refinement objective by registry name;
    any analytic metric is accepted (see :func:`refine_metric`, the
    function this keyword shadows).

    ``reporter`` (an optional
    :class:`~repro.core.anytime.AnytimeReporter`) receives anytime
    checkpoints from the *finest* level's refinement only — coarser
    levels' assignments have the wrong size to be anyone's best-so-far
    — and may stop that refinement between passes.
    """
    if refine_passes < 0:
        raise MappingError(f"refine_passes must be >= 0, got {refine_passes}")
    hierarchy = build_hierarchy(clustered, system, max_levels, min_coarse_tasks)
    levels = hierarchy.levels
    if len(levels) == 1:
        assignment = initial_mapper(clustered, system, rng)
        _, volume, _, _ = _refine_with_metric(
            levels[0].graph, levels[0].system, assignment, 0, refine_metric
        )
        return MultilevelResult(assignment, hierarchy, volume, 0, 0)

    coarsest = hierarchy.coarsest
    coarse_instance = ClusteredGraph(
        coarsest.graph, identity_clustering(coarsest.graph.num_tasks)
    )
    assignment = initial_mapper(coarse_instance, coarsest.system, rng)
    if assignment.size != coarsest.graph.num_tasks:
        raise MappingError(
            f"initial mapper returned an assignment over {assignment.size} "
            f"nodes, the coarsest level has {coarsest.graph.num_tasks}"
        )
    probes = swaps = 0
    volume: int | float = 0
    for level in reversed(levels[:-1]):
        assignment = project_assignment(level, assignment)
        assignment, volume, level_probes, level_swaps = _refine_with_metric(
            level.graph,
            level.system,
            assignment,
            refine_passes,
            refine_metric,
            reporter if level is levels[0] else None,
        )
        probes += level_probes
        swaps += level_swaps
    return MultilevelResult(assignment, hierarchy, volume, probes, swaps)
