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
  :func:`refine_metric` runs KL/FM-style boundary refinement on the
  swap evaluators of :mod:`repro.core.incremental`, which keep no
  schedule state (:class:`~repro.core.incremental.CommVolumeDelta` for
  the pairwise sums, :class:`~repro.core.incremental.LinkLoadDelta` for
  ``max_congestion``), committing only swaps that strictly reduce the
  objective: the hop-weighted communication volume by default.

Communication volume is *exactly* representable at every level of the
hierarchy (it is a sum over cluster pairs), which is why the refinement
optimizes it rather than the makespan; the makespan of the final
assignment is evaluated once, at full resolution, by the caller.

Edges of a level graph are stored low-id -> high-id (the abstract view
is undirected; a DAG orientation is required by :class:`TaskGraph` and
any total order gives one), so every level is a valid ``TaskGraph`` and
the whole hierarchy can be fed back into any graph-consuming tool.
Level graphs are built dense: they are nearly complete, level 0 comes
from the abstract graph's cluster-pair matrix and each contraction sums
its merged pairs in an ``nc x nc`` matrix, so every level carries the
dense ``prob_edge`` its refinement reads, and a contraction to more
than ``_DENSE_LIMIT`` nodes is refused, as ``prob_edge`` is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..topology.base import SystemGraph
from ..utils import GraphError, MappingError
from .abstract import AbstractGraph
from .assignment import Assignment
from .clustered import ClusteredGraph, Clustering
from .taskgraph import _DENSE_LIMIT, TaskGraph

__all__ = [
    "Level",
    "MultilevelHierarchy",
    "MultilevelResult",
    "abstract_taskgraph",
    "analytic_metric",
    "build_hierarchy",
    "contract_graph",
    "contract_system",
    "heavy_edge_matching",
    "identity_clustering",
    "match_processors",
    "multilevel_map",
    "project_assignment",
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

    Undirected edges (coincident orientations summed) are visited by
    descending weight, ties by ``(lo, hi)`` endpoint ids; a pair
    ``(lo, hi)`` is taken when both endpoints are still unmatched, and
    the pairs come back in the order they were taken.  The classic
    randomized-visit HEM is replaced by this global greedy so the whole
    multilevel pipeline is deterministic without consuming any RNG state
    (the sub-mapper gets the seed untouched).  It reads the CSR edge
    arrays only, so it works on a ``TaskGraph`` of any size and edge
    direction.
    """
    if max_merges <= 0:
        return []
    lo, hi, weights = _undirected_pairs(graph)
    # The pairs are sorted by (lo, hi): a stable sort by weight alone
    # gives the (-weight, lo, hi) visiting order.
    order = np.argsort(-weights, kind="stable")
    matched = bytearray(graph.num_tasks)
    pairs: list[tuple[int, int]] = []
    for u, v in zip(lo[order].tolist(), hi[order].tolist()):
        if matched[u] or matched[v]:
            continue
        matched[u] = matched[v] = 1
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

    ``node_map[fine] = coarse`` records the projection: coarse ids are
    ordered by each group's smallest fine member.  ``absorbed`` is the
    communication weight of edges whose endpoints merged (it leaves the
    coarse graph but is conserved:
    ``coarse.total_comm + absorbed == graph.total_comm``).  The other
    edges' weights add up per coarse pair, in either direction, onto one
    edge ``lo -> hi``.

    Level graphs are nearly complete, so the contraction accumulates an
    ``nc x nc`` matrix and builds the coarse graph from it, dense
    ``prob_edge`` included.  Precondition: at most ``_DENSE_LIMIT``
    coarse nodes; above it :class:`~repro.utils.GraphError` is raised
    before anything is allocated, as :attr:`TaskGraph.prob_edge` does.
    """
    n = graph.num_tasks
    node_map = _merge_map(n, pairs)
    nc = int(node_map.max()) + 1
    if nc > _DENSE_LIMIT:
        raise GraphError(
            f"dense contraction to {nc} nodes (limit {_DENSE_LIMIT}) would "
            f"allocate ~{nc * nc * 8 / 2**30:.0f} GiB"
        )
    sizes = np.bincount(node_map, weights=graph.task_sizes, minlength=nc)
    srcs, dsts, w = graph.edge_arrays()
    acc = np.zeros(nc * nc, dtype=np.int64)
    np.add.at(acc, node_map[srcs] * nc + node_map[dsts], w)
    acc = acc.reshape(nc, nc)
    absorbed = int(np.trace(acc))
    coarse = TaskGraph(
        sizes.astype(np.int64), np.triu(acc + acc.T, 1), name=f"{graph.name}/2"
    )
    return coarse, node_map, absorbed


def match_processors(system: SystemGraph, num_merges: int) -> list[tuple[int, int]]:
    """``num_merges`` disjoint processor pairs ``(p, q)``, ``p < q``,
    nearest pairs first.

    The greedy visits every pair by ``(distance, p, q)`` and takes it
    when both processors are still unmatched; the pairs come back in the
    order they were taken.  On a connected machine any
    ``num_merges <= ns // 2`` is achievable.

    No sort of all ``ns^2`` distances is needed.  The walk goes in
    rounds over the processors still unmatched: a round visits, in that
    order, their pairs up to the median of each one's nearest-partner
    distance (on most machines the links alone, which already hold the
    whole matching on hypercubes and tori).  Any pair left with both
    ends unmatched would have been taken, so the next round starts
    beyond that distance, and each round takes at least one pair.  It
    reads the dense ``shortest`` matrix every :class:`SystemGraph`
    holds, so its working copy is ``ns x ns``.
    """
    n = system.num_nodes
    if num_merges <= 0:
        return []
    if num_merges > n // 2:
        raise MappingError(
            f"cannot merge {num_merges} processor pairs on {n} processors"
        )
    # Distances between the live (unmatched) processors; the diagonal
    # never counts as a pair.
    dist = system.shortest.copy()
    np.fill_diagonal(dist, np.iinfo(dist.dtype).max)
    live = np.arange(n)
    matched = bytearray(n)
    pairs: list[tuple[int, int]] = []
    while True:
        nearest = dist.min(axis=1)
        median = (nearest.size - 1) // 2
        rows, cols = np.nonzero(dist <= np.partition(nearest, median)[median])
        upper = rows < cols  # row-major: by (p, q)
        rows, cols = rows[upper], cols[upper]
        order = np.argsort(dist[rows, cols], kind="stable")
        for p, q in zip(live[rows[order]].tolist(), live[cols[order]].tolist()):
            if matched[p] or matched[q]:
                continue
            matched[p] = matched[q] = 1
            pairs.append((p, q))
            if len(pairs) == num_merges:
                return pairs
        keep = np.flatnonzero(np.frombuffer(matched, dtype=np.uint8)[live] == 0)
        live = live[keep]
        dist = dist[np.ix_(keep, keep)]


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
        # Fine links come in both orientations, so the minimum is
        # symmetric; SystemGraph ignores the entries off coarse links.
        link_weights = np.full((nc, nc), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(link_weights, (a, b), system.link_weights[srcs, dsts])
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


def _neighbor_lists(sym: np.ndarray) -> list[np.ndarray]:
    """Per-node graph neighbors, heaviest edge first (ties by id): views
    of one stable sort of each row of ``-sym`` (edge weights are
    positive, so a row's neighbors come first)."""
    order = np.argsort(-sym, axis=1, kind="stable")
    return [row[:k] for row, k in zip(order, np.count_nonzero(sym, axis=1).tolist())]


def _pairwise_sweep(
    sym: np.ndarray,
    system: SystemGraph,
    evaluator,
    passes: int,
    reporter=None,
    score=None,
) -> tuple[Assignment, int, int]:
    """KL/FM-style boundary refinement on a swap evaluator: a
    :class:`~repro.core.incremental.CommVolumeDelta` or a
    :class:`~repro.core.incremental.LinkLoadDelta`.

    Each node ``c`` proposes, in order, a swap with the occupant of
    every processor adjacent to each graph neighbor's host (neighbors
    heaviest-first, each host's processor neighborhood in order, ``c``'s
    own processor skipped), and the *first* strictly improving proposal
    commits.  The placement is fixed while ``c``'s proposals are
    scored, and a proposal's delta depends only on its processor, so
    one ``evaluator.delta_swaps`` call scores every processor once,
    however many proposals name it.  Only when some processor
    improves is the proposal list built, as one gather of the hosts'
    rows of a padded processor-neighbor table: its first improving entry
    is the committed swap, and its position, padding and ``c``'s own
    processor not counted, is the probe count (the whole list's length
    when nothing improves).  Stops early when a full pass commits
    nothing.

    ``reporter`` (an optional
    :class:`~repro.core.anytime.AnytimeReporter`) gets one checkpoint
    per completed pass, valued ``score(assignment)``, and may stop the
    sweep between passes.  Returns ``(assignment, probes, swaps)``."""
    n = sym.shape[0]
    nbr_arrs = _neighbor_lists(sym)
    # Row p: p's processor neighbors in order, padded with n.  counted[r,
    # h]: the proposals in h's row for a node on r (r itself is skipped).
    deg = system.deg
    table = np.full((n, int(deg.max())), n, dtype=np.int64)
    table[np.arange(table.shape[1]) < deg[:, None]] = np.concatenate(
        [system.neighbors(p) for p in range(n)]
    )
    counted = deg - system.sys_edge
    every = np.arange(n)
    improves = np.zeros(n + 1, dtype=bool)  # the padding entry stays False
    scored = improves[:n]
    placement = evaluator.placement_view
    assi = evaluator.occupant_view
    probes = swaps = 0
    for _ in range(passes):
        improved = False
        for c in range(n):
            hosts = placement.take(nbr_arrs[c])
            home = placement[c]
            listed = int(counted[home].take(hosts).sum())
            if not listed:
                continue
            np.less(evaluator.delta_swaps(c, every), 0, out=scored)
            if improves.any():
                hits = improves.take(table.take(hosts, axis=0))
                first = int(hits.argmax())
                if hits.flat[first]:
                    row, col = divmod(first, hits.shape[1])
                    target = table[hosts[row]]
                    probes += int(counted[home].take(hosts[:row]).sum()) + col + 1
                    probes -= bool((target[:col] == home).any())
                    evaluator.swap(c, int(assi[target[col]]))
                    swaps += 1
                    improved = True
                    continue
            probes += listed
        if reporter is not None:
            best = evaluator.assignment
            reporter.report(probes, score(best), best)
            if reporter.should_stop():
                break
        if not improved:
            break
    return evaluator.assignment, probes, swaps


def analytic_metric(name: str):
    """The registered metric ``name``, which a refinement objective
    must be: simulator-backed metrics, and analytic ones that name no
    ``evaluator``, raise :class:`MappingError`."""
    from ..metrics import METRICS  # deferred: repro.metrics imports repro.api

    metric = METRICS.get(name)
    if not getattr(metric, "analytic", False):
        raise MappingError(
            f"refinement objective must be an analytic metric; "
            f"{name!r} is simulator-backed"
        )
    if not callable(getattr(metric, "evaluator", None)):
        raise MappingError(
            f"refinement objective {name!r} names no evaluator: a refined "
            f"metric needs an 'evaluator' that builds its swap evaluator "
            f"from (traffic, system, assignment), such as CommVolumeDelta"
        )
    return metric


def refine_metric(
    graph: TaskGraph,
    system: SystemGraph,
    assignment: Assignment,
    passes: int,
    metric: str = "comm_volume",
    reporter=None,
) -> tuple[Assignment, float, int, int]:
    """KL/FM-style refinement of one level's assignment, minimizing a
    registered analytic metric (simulator-backed ones are rejected: a
    sweep probing thousands of swaps cannot afford a simulation each).

    Every objective runs :func:`_pairwise_sweep` on the evaluator the
    metric names, built over the level graph's directed traffic
    ``prob_edge``: the gain table of
    :class:`~repro.core.incremental.CommVolumeDelta` for the pairwise
    sums (``comm_volume``, ``hop_bytes``, ``avg_dilation``), the link
    loads of :class:`~repro.core.incremental.LinkLoadDelta` for
    ``max_congestion``; either scores every processor once for each
    node visited.  No evaluator is built when there is nothing to
    refine (no passes, or a single node).

    Returns ``(assignment, objective_value, probes, swaps)`` where the
    objective value is the metric's headline key on the final
    assignment, as the metric computes it; each checkpoint ``reporter``
    receives carries that value for its own assignment.
    """
    m = analytic_metric(metric)
    n = graph.num_tasks
    if n != system.num_nodes:
        raise MappingError(
            f"level graph has {n} nodes, system has {system.num_nodes}"
        )
    level = ClusteredGraph(graph, identity_clustering(n))

    def score(candidate: Assignment) -> float:
        return float(m.compute(level, system, candidate)[metric])

    probes = swaps = 0
    if passes > 0 and n > 1:
        traffic = graph.prob_edge
        evaluator = m.evaluator(traffic, system, assignment)
        assignment, probes, swaps = _pairwise_sweep(
            traffic + traffic.T, system, evaluator, passes, reporter, score
        )
    return assignment, score(assignment), probes, swaps


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
    comm_volume: float
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
    volume = 0.0
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
