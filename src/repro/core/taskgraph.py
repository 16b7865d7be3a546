"""The problem graph: a weighted DAG of tasks.

This is the paper's *problem graph* ``Gp = {Vp, Ep}`` (Sec. 2.1, Fig. 2).
Each node (task) carries an integer execution time (``task_size`` in the
paper's internal representation, Sec. 3) and each directed edge carries an
integer communication time (``prob_edge[i][j]``).

The canonical storage is **CSR** (compressed sparse row) in both edge
orientations: ``out_indptr/out_indices/out_weights`` sorted by
``(src, dst)`` and ``in_indptr/in_indices/in_weights`` sorted by
``(dst, src)``, built once at construction and immutable afterwards.  The
paper phrases every Sec. 4 algorithm over the dense ``prob_edge`` matrix;
that matrix is still available through :attr:`TaskGraph.prob_edge` but is
materialized lazily and only for small graphs (a 100k-task dense matrix
would need 80 GB), so the scale path never touches it.  Adjacency,
topological order, and the level-structured :class:`SchedulePlan` used by
the vectorized schedule sweeps are derived and cached.  Tasks are numbered
``0..np-1`` (the paper numbers from 1; all internal indices here are
0-based and the I/O layer preserves that convention).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..utils import GraphError, _expand, as_weight_matrix

__all__ = ["TaskGraph", "Edge", "SchedulePlan", "sweep_finish_times"]

#: Largest task count for which the dense ``prob_edge`` matrix may be
#: materialized (20k tasks -> 3.2 GB of int64).  Above this, consumers must
#: use the CSR accessors; the scale benchmarks never build the dense form.
_DENSE_LIMIT = 20_000


@dataclass(frozen=True)
class Edge:
    """A directed, weighted problem edge ``src -> dst``."""

    src: int
    dst: int
    weight: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.src, self.dst, self.weight)


@dataclass(frozen=True)
class SchedulePlan:
    """Level-structured in-edge layout for vectorized schedule sweeps.

    Tasks are grouped by DAG depth (``order``/``level_ptr``); all in-edges
    of the tasks in one level are laid out contiguously (``src``/``dst``,
    segment boundaries in ``eptr``), so one level of the forward schedule
    recurrence becomes a single gather plus a segmented max
    (:func:`sweep_finish_times`).  ``eperm`` maps each plan edge slot back
    to its position in the graph's in-CSR arrays: any per-edge quantity
    stored in in-CSR order (e.g. clustered cross weights) is aligned to the
    plan by ``quantity[eperm]``.
    """

    order: np.ndarray      # tasks grouped by depth, ascending within a level
    level_ptr: np.ndarray  # level boundaries into ``order`` (len L+1)
    eptr: np.ndarray       # in-edge segment boundaries per plan slot (len n+1)
    src: np.ndarray        # plan-ordered in-edge sources
    dst: np.ndarray        # plan-ordered in-edge destinations
    eperm: np.ndarray      # plan slot -> index into the in-CSR edge arrays

    @property
    def num_levels(self) -> int:
        return self.level_ptr.size - 1

    def depth(self) -> np.ndarray:
        """Level of every task: its longest predecessor chain, in edges.

        Kahn's frontiers are exactly the longest-path layers, so this is
        the plan's own grouping read back per task.
        """
        depth = np.empty(self.order.size, dtype=np.int64)
        depth[self.order] = np.repeat(
            np.arange(self.num_levels, dtype=np.int64), np.diff(self.level_ptr)
        )
        return depth


def sweep_finish_times(
    plan: SchedulePlan, sizes: np.ndarray, edge_cost: np.ndarray
) -> np.ndarray:
    """Finish time per task under ``start[t] = max(end[src] + cost(edge))``.

    ``edge_cost`` must be aligned with ``plan.src``/``plan.dst`` (apply
    ``plan.eperm`` to in-CSR-ordered per-edge data first).  This is the
    only implementation of the recurrence: the ideal schedule, the lower
    bound, every assignment's schedule and the delta evaluator all run
    it.  All arithmetic stays in int64 and max over an empty predecessor
    set is 0.
    """
    end = np.zeros(sizes.size, dtype=np.int64)
    order, level_ptr, eptr = plan.order, plan.level_ptr, plan.eptr
    for level in range(level_ptr.size - 1):
        t0, t1 = int(level_ptr[level]), int(level_ptr[level + 1])
        tasks = order[t0:t1]
        e0, e1 = int(eptr[t0]), int(eptr[t1])
        start = np.zeros(t1 - t0, dtype=np.int64)
        if e1 > e0:
            arrive = end[plan.src[e0:e1]] + edge_cost[e0:e1]
            offs = eptr[t0:t1] - e0
            deg = np.diff(eptr[t0 : t1 + 1])
            nz = deg > 0
            if nz.all():
                start = np.maximum.reduceat(arrive, offs)
            elif nz.any():
                # reduceat over only the non-empty segments; a dropped
                # empty segment contributes no edges, so the remaining
                # boundaries still delimit the right slices.
                start[nz] = np.maximum.reduceat(arrive, offs[nz])
        end[tasks] = start + sizes[tasks]
    return end


class TaskGraph:
    """A weighted task DAG (the paper's problem graph).

    Parameters
    ----------
    task_sizes:
        Execution time of each task, one entry per task.  All must be
        positive (a task takes at least one time unit).
    edges:
        Either a dense square matrix ``prob_edge`` (entry ``[i, j] > 0``
        means an edge ``i -> j`` with that communication weight) or an
        iterable of ``(src, dst, weight)`` triples.
    name:
        Optional label used in reports and serialized files.

    Raises
    ------
    GraphError
        If sizes are non-positive, an edge is self-looping, dangling or
        duplicated, or the graph contains a cycle.
    """

    def __init__(
        self,
        task_sizes: Sequence[int] | np.ndarray,
        edges: object = (),
        name: str = "taskgraph",
    ) -> None:
        sizes = np.asarray(task_sizes, dtype=np.int64).copy()
        if sizes.ndim != 1:
            raise GraphError(f"task_sizes must be 1-D, got shape {sizes.shape}")
        if sizes.size == 0:
            raise GraphError("a task graph needs at least one task")
        if (sizes <= 0).any():
            bad = int(np.argmax(sizes <= 0))
            raise GraphError(f"task {bad} has non-positive size {int(sizes[bad])}")
        n = sizes.size

        dense: np.ndarray | None = None
        if isinstance(edges, (np.ndarray, dict)) or (
            isinstance(edges, Sequence) and edges and not _looks_like_triples(edges)
        ):
            mat = as_weight_matrix(edges, n)
            if np.diagonal(mat).any():
                raise GraphError("self-loop edges are not allowed")
            dense = mat
            srcs, dsts = np.nonzero(mat)
            weights = mat[srcs, dsts]
            presorted = True  # nonzero() is row-major: sorted by (src, dst)
        else:
            triples = list(edges)  # type: ignore[arg-type]
            if triples and isinstance(triples[0], Edge):
                triples = [e.as_tuple() for e in triples]
            arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
            srcs = np.ascontiguousarray(arr[:, 0])
            dsts = np.ascontiguousarray(arr[:, 1])
            weights = np.ascontiguousarray(arr[:, 2])
            oob = (srcs < 0) | (srcs >= n) | (dsts < 0) | (dsts >= n)
            if oob.any():
                i = int(np.argmax(oob))
                raise GraphError(
                    f"edge ({int(srcs[i])}, {int(dsts[i])}) references a missing task"
                )
            loops = srcs == dsts
            if loops.any():
                i = int(np.argmax(loops))
                raise GraphError(
                    f"self-loop edges are not allowed (task {int(srcs[i])})"
                )
            nonpos = weights <= 0
            if nonpos.any():
                i = int(np.argmax(nonpos))
                raise GraphError(
                    f"edge ({int(srcs[i])}, {int(dsts[i])}) must have positive "
                    f"weight, got {int(weights[i])}; a zero-weight edge cannot "
                    "be represented — omit it (a zero matrix entry means "
                    "'no edge')"
                )
            presorted = False
        self._init_from_csr(sizes, srcs, dsts, weights, name, dense, presorted)

    @classmethod
    def from_edge_arrays(
        cls,
        task_sizes: Sequence[int] | np.ndarray,
        srcs: np.ndarray,
        dsts: np.ndarray,
        weights: np.ndarray,
        name: str = "taskgraph",
    ) -> "TaskGraph":
        """Build directly from parallel edge arrays (the scale fast path).

        Performs the same validation as the triple constructor but stays
        vectorized end to end; edges need not be pre-sorted.
        """
        triples = np.stack(
            [
                np.asarray(srcs, dtype=np.int64),
                np.asarray(dsts, dtype=np.int64),
                np.asarray(weights, dtype=np.int64),
            ],
            axis=1,
        )
        return cls._from_arrays(task_sizes, triples, name)

    @classmethod
    def _from_arrays(
        cls, task_sizes: object, triples: np.ndarray, name: str
    ) -> "TaskGraph":
        self = cls.__new__(cls)
        sizes = np.asarray(task_sizes, dtype=np.int64).copy()
        if sizes.ndim != 1 or sizes.size == 0:
            raise GraphError("task_sizes must be a non-empty 1-D sequence")
        if (sizes <= 0).any():
            bad = int(np.argmax(sizes <= 0))
            raise GraphError(f"task {bad} has non-positive size {int(sizes[bad])}")
        n = sizes.size
        srcs, dsts, weights = triples[:, 0], triples[:, 1], triples[:, 2]
        oob = (srcs < 0) | (srcs >= n) | (dsts < 0) | (dsts >= n)
        if oob.any():
            i = int(np.argmax(oob))
            raise GraphError(
                f"edge ({int(srcs[i])}, {int(dsts[i])}) references a missing task"
            )
        if (srcs == dsts).any():
            i = int(np.argmax(srcs == dsts))
            raise GraphError(f"self-loop edges are not allowed (task {int(srcs[i])})")
        if (weights <= 0).any():
            i = int(np.argmax(weights <= 0))
            raise GraphError(
                f"edge ({int(srcs[i])}, {int(dsts[i])}) must have positive "
                f"weight, got {int(weights[i])}"
            )
        self._init_from_csr(sizes, srcs, dsts, weights, name, None, False)
        return self

    def _init_from_csr(
        self,
        sizes: np.ndarray,
        srcs: np.ndarray,
        dsts: np.ndarray,
        weights: np.ndarray,
        name: str,
        dense: np.ndarray | None,
        presorted: bool,
    ) -> None:
        n = sizes.size
        self._sizes = sizes
        self.name = name
        if not presorted and srcs.size:
            order = np.lexsort((dsts, srcs))
            srcs, dsts, weights = srcs[order], dsts[order], weights[order]
            dup = (srcs[1:] == srcs[:-1]) & (dsts[1:] == dsts[:-1])
            if dup.any():
                i = int(np.argmax(dup))
                raise GraphError(
                    f"duplicate edge ({int(srcs[i])}, {int(dsts[i])}): each "
                    "task pair may appear at most once"
                )
        out_counts = np.bincount(srcs, minlength=n)
        self._out_ptr = np.concatenate(
            ([0], np.cumsum(out_counts))
        ).astype(np.int64)
        self._out_src = np.ascontiguousarray(srcs, dtype=np.int64)
        self._out_dst = np.ascontiguousarray(dsts, dtype=np.int64)
        self._out_w = np.ascontiguousarray(weights, dtype=np.int64)
        in_order = np.lexsort((srcs, dsts)) if srcs.size else np.empty(0, np.int64)
        in_counts = np.bincount(dsts, minlength=n)
        self._in_ptr = np.concatenate(([0], np.cumsum(in_counts))).astype(np.int64)
        self._in_src = np.ascontiguousarray(srcs[in_order], dtype=np.int64)
        self._in_dst = np.ascontiguousarray(dsts[in_order], dtype=np.int64)
        self._in_w = np.ascontiguousarray(weights[in_order], dtype=np.int64)
        for a in (
            self._out_ptr, self._out_src, self._out_dst, self._out_w,
            self._in_ptr, self._in_src, self._in_dst, self._in_w,
        ):
            a.flags.writeable = False
        self._dense = dense
        self._plan: SchedulePlan | None = None
        self._topo = self._topological_order_csr()  # raises on cycles

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        """Number of tasks, the paper's ``np``."""
        return self._sizes.size

    @property
    def task_sizes(self) -> np.ndarray:
        """Execution time per task (read-only view), the paper's ``task_size``."""
        view = self._sizes.view()
        view.flags.writeable = False
        return view

    @property
    def prob_edge(self) -> np.ndarray:
        """The dense problem edge matrix (read-only view).

        Materialized lazily and cached; raises :class:`GraphError` above
        ``20_000`` tasks — the scale path must use the CSR accessors
        (:attr:`out_indptr` and friends, :meth:`edge_arrays`).
        """
        view = self._dense_matrix().view()
        view.flags.writeable = False
        return view

    def _dense_matrix(self) -> np.ndarray:
        if self._dense is None:
            n = self._sizes.size
            if n > _DENSE_LIMIT:
                gib = n * n * 8 / 2**30
                raise GraphError(
                    f"dense prob_edge for {n} tasks (limit {_DENSE_LIMIT}) would "
                    f"allocate ~{gib:.0f} GiB; use the CSR accessors "
                    "(edge_arrays(), out_indptr, in_indptr, ...) instead"
                )
            mat = np.zeros((n, n), dtype=np.int64)
            mat[self._out_src, self._out_dst] = self._out_w
            self._dense = mat
        return self._dense

    # -- CSR accessors (all read-only) ---------------------------------
    @property
    def out_indptr(self) -> np.ndarray:
        """CSR row pointer over out-edges (len ``n+1``)."""
        return self._out_ptr

    @property
    def out_indices(self) -> np.ndarray:
        """Destination task per out-edge, grouped by source, ascending."""
        return self._out_dst

    @property
    def out_weights(self) -> np.ndarray:
        """Edge weight per out-edge, aligned with :attr:`out_indices`."""
        return self._out_w

    @property
    def in_indptr(self) -> np.ndarray:
        """CSR row pointer over in-edges (len ``n+1``)."""
        return self._in_ptr

    @property
    def in_indices(self) -> np.ndarray:
        """Source task per in-edge, grouped by destination, ascending."""
        return self._in_src

    @property
    def in_weights(self) -> np.ndarray:
        """Edge weight per in-edge, aligned with :attr:`in_indices`."""
        return self._in_w

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All edges as ``(srcs, dsts, weights)`` sorted by ``(src, dst)``."""
        return self._out_src, self._out_dst, self._out_w

    def in_edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All edges as ``(srcs, dsts, weights)`` sorted by ``(dst, src)``."""
        return self._in_src, self._in_dst, self._in_w

    @property
    def num_edges(self) -> int:
        return int(self._out_dst.size)

    @property
    def total_work(self) -> int:
        """Sum of all task sizes (serial execution time with zero comm)."""
        return int(self._sizes.sum())

    @property
    def total_comm(self) -> int:
        """Sum of all edge weights."""
        return int(self._out_w.sum())

    def weight(self, src: int, dst: int) -> int:
        """Communication weight of edge ``src -> dst`` (0 if absent)."""
        i = self.edge_index(src, dst)
        return int(self._out_w[i]) if i >= 0 else 0

    def edge_index(self, src: int, dst: int) -> int:
        """Position of edge ``src -> dst`` in the out-CSR arrays, -1 if absent."""
        lo, hi = int(self._out_ptr[src]), int(self._out_ptr[src + 1])
        i = lo + int(np.searchsorted(self._out_dst[lo:hi], dst))
        if i < hi and self._out_dst[i] == dst:
            return i
        return -1

    def has_edge(self, src: int, dst: int) -> bool:
        return self.edge_index(src, dst) >= 0

    def predecessors(self, task: int) -> np.ndarray:
        """Tasks with an edge into ``task`` (ascending, read-only)."""
        return self._in_src[self._in_ptr[task] : self._in_ptr[task + 1]]

    def successors(self, task: int) -> np.ndarray:
        """Tasks with an edge out of ``task`` (ascending, read-only)."""
        return self._out_dst[self._out_ptr[task] : self._out_ptr[task + 1]]

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges as :class:`Edge` records."""
        for s, d, w in zip(
            self._out_src.tolist(), self._out_dst.tolist(), self._out_w.tolist()
        ):
            yield Edge(s, d, w)

    def sources(self) -> np.ndarray:
        """Tasks with no predecessors (entry tasks)."""
        return np.flatnonzero(np.diff(self._in_ptr) == 0)

    def sinks(self) -> np.ndarray:
        """Tasks with no successors (exit tasks)."""
        return np.flatnonzero(np.diff(self._out_ptr) == 0)

    @property
    def topological_order(self) -> np.ndarray:
        """A topological ordering of the tasks (read-only view)."""
        view = self._topo.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def schedule_plan(self) -> SchedulePlan:
        """The cached level-structured in-edge layout for vectorized sweeps."""
        if self._plan is None:
            self._plan = self._build_plan()
        return self._plan

    def _build_plan(self) -> SchedulePlan:
        n = self._sizes.size
        in_counts = np.diff(self._in_ptr)
        indeg = in_counts.copy()
        frontier = np.flatnonzero(indeg == 0)
        parts: list[np.ndarray] = []
        while frontier.size:
            parts.append(frontier)
            eidx = _expand(
                self._out_ptr[frontier], self._out_ptr[frontier + 1]
            )
            targets = self._out_dst[eidx]
            np.subtract.at(indeg, targets, 1)
            frontier = np.unique(targets[indeg[targets] == 0])
        order = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        level_ptr = np.concatenate(
            ([0], np.cumsum([p.size for p in parts], dtype=np.int64))
        )
        cnt = in_counts[order]
        eptr = np.concatenate(([0], np.cumsum(cnt))).astype(np.int64)
        eperm = _expand(self._in_ptr[order], self._in_ptr[order + 1])
        plan = SchedulePlan(
            order=order,
            level_ptr=level_ptr,
            eptr=eptr,
            src=self._in_src[eperm],
            dst=np.repeat(order, cnt),
            eperm=eperm,
        )
        for a in (plan.order, plan.level_ptr, plan.eptr, plan.src, plan.dst,
                  plan.eperm):
            a.flags.writeable = False
        return plan

    def critical_path_length(self) -> int:
        """Length of the longest path counting node *and* edge weights.

        This equals the ideal-graph makespan when every edge crosses a
        cluster boundary, and lower-bounds it in general; it is mostly a
        sanity metric for generated workloads.
        """
        plan = self.schedule_plan()
        cost = self._in_w[plan.eperm]
        return int(sweep_finish_times(plan, self._sizes, cost).max())

    def degree(self, task: int) -> int:
        """Undirected degree (in + out) of ``task``."""
        return int(
            self._in_ptr[task + 1] - self._in_ptr[task]
            + self._out_ptr[task + 1] - self._out_ptr[task]
        )

    def is_connected(self) -> bool:
        """True if the underlying undirected graph is connected."""
        n = self.num_tasks
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = np.asarray([0], dtype=np.int64)
        while frontier.size:
            out_e = _expand(self._out_ptr[frontier], self._out_ptr[frontier + 1])
            in_e = _expand(self._in_ptr[frontier], self._in_ptr[frontier + 1])
            nbrs = np.concatenate((self._out_dst[out_e], self._in_src[in_e]))
            frontier = np.unique(nbrs[~seen[nbrs]])
            seen[frontier] = True
        return bool(seen.all())

    def relabeled(self, order: Sequence[int]) -> "TaskGraph":
        """Return a copy with tasks renumbered by ``order``.

        ``order[new_id] = old_id``; used by generators that want canonical
        topological numbering.
        """
        idx = np.asarray(order, dtype=np.int64)
        if np.sort(idx).tolist() != list(range(self.num_tasks)):
            raise GraphError("relabel order must be a permutation of all tasks")
        inv = np.empty_like(idx)
        inv[idx] = np.arange(self.num_tasks)
        return TaskGraph.from_edge_arrays(
            self._sizes[idx],
            inv[self._out_src],
            inv[self._out_dst],
            self._out_w,
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Dunder / conversion
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_tasks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskGraph):
            return NotImplemented
        return (
            np.array_equal(self._sizes, other._sizes)
            and np.array_equal(self._out_src, other._out_src)
            and np.array_equal(self._out_dst, other._out_dst)
            and np.array_equal(self._out_w, other._out_w)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hash is fine
        return id(self)

    def __repr__(self) -> str:
        return (
            f"TaskGraph(name={self.name!r}, tasks={self.num_tasks}, "
            f"edges={self.num_edges}, work={self.total_work})"
        )

    def to_networkx(self):
        """Export as a :class:`networkx.DiGraph` with ``size``/``weight`` attrs."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for i in range(self.num_tasks):
            g.add_node(i, size=int(self._sizes[i]))
        for e in self.edges():
            g.add_edge(e.src, e.dst, weight=e.weight)
        return g

    @classmethod
    def from_networkx(cls, g, name: str | None = None) -> "TaskGraph":
        """Build from a :class:`networkx.DiGraph` with ``size``/``weight`` attrs.

        Node labels must be ``0..n-1``.  Missing ``size`` defaults to 1,
        missing ``weight`` defaults to 1.
        """
        n = g.number_of_nodes()
        if sorted(g.nodes) != list(range(n)):
            raise GraphError("networkx nodes must be labeled 0..n-1")
        sizes = [int(g.nodes[i].get("size", 1)) for i in range(n)]
        edges = [
            (int(u), int(v), int(d.get("weight", 1))) for u, v, d in g.edges(data=True)
        ]
        return cls(sizes, edges, name=name or str(g.name or "taskgraph"))

    def _topological_order_csr(self) -> np.ndarray:
        """Kahn's algorithm over the out-CSR arrays; raises on cycles.

        Visits in the exact order of the historical dense implementation
        (stack popped from the back, successors appended ascending) so
        every downstream pinned result is preserved.
        """
        n = self._sizes.size
        indeg = np.diff(self._in_ptr).tolist()
        out_ptr = self._out_ptr.tolist()
        out_dst = self._out_dst.tolist()
        ready = [i for i in range(n) if indeg[i] == 0]
        order: list[int] = []
        while ready:
            u = ready.pop()
            order.append(u)
            for v in out_dst[out_ptr[u] : out_ptr[u + 1]]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
        if len(order) != n:
            raise GraphError("problem graph contains a cycle; it must be a DAG")
        return np.asarray(order, dtype=np.int64)


def _looks_like_triples(edges: Sequence) -> bool:
    """Heuristic: is ``edges`` a sequence of (src, dst, w) triples?"""
    first = edges[0]
    return (
        isinstance(first, (tuple, list, Edge))
        and len(first if not isinstance(first, Edge) else first.as_tuple()) == 3
    )
