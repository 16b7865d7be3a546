"""Incremental (delta) cost evaluation for move-based mapping search.

The metaheuristic baselines and the refinement loop evaluate thousands of
assignments that each differ from the previous one by a single cluster
swap.  :class:`DeltaEvaluator` is the evaluator their inner loops run on:

* a cached topology-distance matrix (``system.shortest``, captured once)
  and the graph's cached :class:`~repro.core.taskgraph.SchedulePlan`;
* the current schedule's end times, computed by one vectorized level
  sweep (:func:`~repro.core.taskgraph.sweep_finish_times`) per probe or
  commit — the paper's total-time recurrence of Sec. 4.3.4, exact and
  bit-for-bit equal to :func:`~repro.core.evaluate.evaluate_assignment`;
* per-processor load aggregates and per-cluster-pair communication
  aggregates, answering the communication-volume change of a swap in
  O(deg) (:meth:`~DeltaEvaluator.delta_comm_volume`);
* ``probe_*`` (evaluate without committing), :meth:`~DeltaEvaluator.swap`
  (commit), :meth:`~DeltaEvaluator.apply_swap` /
  :meth:`~DeltaEvaluator.revert` (commit with an undo stack), and
  :meth:`~DeltaEvaluator.evaluate` — rebase onto any assignment without
  the O(V^2) communication matrix (used by population methods).

:class:`CommVolumeDelta` keeps only the communication-volume aggregate
(plus a gain table for batched swap deltas), and :class:`CardinalityDelta`
applies the same O(deg) treatment to Bokhari's cardinality objective.
All three are checked against the scalar oracles in
:mod:`repro.core.evaluate` and :mod:`repro.core.validate` on random move
sequences (``tests/test_delta.py``, ``tests/test_csr.py``,
``benchmarks/bench_delta.py --smoke``).
"""

from __future__ import annotations

import numpy as np

from ..topology.base import SystemGraph
from ..utils import MappingError
from .abstract import AbstractGraph
from .assignment import Assignment
from .clustered import ClusteredGraph
from .taskgraph import sweep_finish_times

__all__ = [
    "CardinalityDelta",
    "CommVolumeDelta",
    "DeltaEvaluator",
]


def _pair_swap_delta(
    placement: np.ndarray,
    nbrs_list: list[np.ndarray],
    nbr_w_list: list[np.ndarray],
    metric: np.ndarray,
    cluster_a: int,
    cluster_b: int,
) -> int:
    """O(deg) change of an additive pairwise objective under a swap.

    The objective is ``sum over cluster pairs {x, y} of w[x, y] *
    metric[placement[x], placement[y]]`` with a *symmetric* metric
    (hop distances, link adjacency, ...), so only the moved clusters'
    neighbor terms change and the (a, b) term cancels.
    """
    pa, pb = int(placement[cluster_a]), int(placement[cluster_b])
    delta = 0
    for c, p_new, p_old in ((cluster_a, pb, pa), (cluster_b, pa, pb)):
        nbrs = nbrs_list[c]
        if not nbrs.size:
            continue
        mask = (nbrs != cluster_a) & (nbrs != cluster_b)
        px = placement[nbrs[mask]]
        w = nbr_w_list[c][mask]
        delta += int((w * (metric[p_new, px] - metric[p_old, px])).sum())
    return delta


class DeltaEvaluator:
    """Maintains one assignment's cost state under cluster moves.

    Parameters
    ----------
    clustered, system:
        The instance; ``na`` must equal ``ns`` (same contract as
        :func:`~repro.core.assignment.communication_matrix`).
    assignment:
        The starting assignment; :meth:`evaluate` rebases onto another.
    """

    def __init__(
        self,
        clustered: ClusteredGraph,
        system: SystemGraph,
        assignment: Assignment,
    ) -> None:
        if clustered.num_clusters != system.num_nodes:
            raise MappingError(
                f"{clustered.num_clusters} clusters cannot map onto "
                f"{system.num_nodes} system nodes (na must equal ns)"
            )
        self._clustered = clustered
        self._system = system
        graph = clustered.graph
        na = clustered.num_clusters
        labels = clustered.clustering.labels
        self._sizes = np.asarray(graph.task_sizes, dtype=np.int64)
        self._dist = np.ascontiguousarray(system.shortest)
        # The level sweep's inputs: the cached plan, its per-edge clustered
        # weights, and the cluster at each end of every plan edge (so a
        # placement turns into edge costs with two gathers).
        self._plan = graph.schedule_plan()
        self._plan_w = clustered.plan_weights()
        self._plan_src = labels[self._plan.src]
        self._plan_dst = labels[self._plan.dst]
        # Per-cluster-pair communication aggregates (both edge orientations
        # summed, as in AbstractGraph.weights) for O(deg) volume deltas.
        srcs, dsts, _ = graph.edge_arrays()
        cout = clustered.cross_out_weights
        cross = cout > 0
        w = np.zeros((na, na), dtype=np.int64)
        np.add.at(w, (labels[srcs[cross]], labels[dsts[cross]]), cout[cross])
        w = w + w.T
        self._abs_nbrs = [np.flatnonzero(w[c]) for c in range(na)]
        self._abs_nbr_w = [w[c, self._abs_nbrs[c]] for c in range(na)]
        self._iu = np.triu_indices(na, 1)
        self._w_iu = w[self._iu]
        # Per-processor load aggregate source: total task work per cluster.
        self._cluster_work = clustered.clustering.load(graph)
        self._undo: list[tuple[int, int, np.ndarray, int, int]] = []
        self._rebase(assignment)

    # ------------------------------------------------------------------
    # State properties
    # ------------------------------------------------------------------
    @property
    def assignment(self) -> Assignment:
        return Assignment.from_placement(self._placement)

    @property
    def total_time(self) -> int:
        """Makespan of the current assignment (the paper's objective)."""
        return self._makespan

    @property
    def comm_volume(self) -> int:
        """Total hop-weighted communication of the current assignment
        (equals ``Schedule.communication_volume()``)."""
        return self._comm_volume

    def end_times(self) -> np.ndarray:
        """Current end times (copy)."""
        return self._end.copy()

    def loads(self) -> np.ndarray:
        """Per-processor load aggregate: total task work hosted on each
        system node (copy; equals ``Schedule.processor_busy_time()``)."""
        return self._load.copy()

    # ------------------------------------------------------------------
    # Schedule sweep and full (re-)evaluation
    # ------------------------------------------------------------------
    def _finish_times(self, placement: np.ndarray) -> np.ndarray:
        """End time per task under ``placement``: one level sweep."""
        cost = self._plan_w * self._dist[
            placement[self._plan_src], placement[self._plan_dst]
        ]
        return sweep_finish_times(self._plan, self._sizes, cost)

    def evaluate(self, assignment: Assignment) -> int:
        """Rebase onto ``assignment`` and return its makespan.

        One level sweep plus an O(na^2) volume sum — no O(V^2)
        communication matrix.  This is the fast path for moves that
        change many clusters at once (population methods, random
        re-placement).  Clears the undo stack.
        """
        self._rebase(assignment)
        return self._makespan

    def _rebase(self, assignment: Assignment) -> None:
        if assignment.size != self._system.num_nodes:
            raise MappingError(
                f"assignment covers {assignment.size} nodes, "
                f"system has {self._system.num_nodes}"
            )
        self._placement = assignment.placement.copy()
        self._assi = assignment.assi.copy()
        self._load = np.zeros(self._system.num_nodes, dtype=np.int64)
        self._load[self._placement] = self._cluster_work
        self._end = self._finish_times(self._placement)
        self._makespan = int(self._end.max())
        p = self._placement
        self._comm_volume = int(
            (self._w_iu * self._dist[p[self._iu[0]], p[self._iu[1]]]).sum()
        )
        self._undo.clear()

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------
    def _exchange(self, cluster_a: int, cluster_b: int) -> None:
        """Exchange the two clusters' processors in the placement and
        load state (its own inverse)."""
        p = self._placement
        pa, pb = int(p[cluster_a]), int(p[cluster_b])
        p[cluster_a], p[cluster_b] = pb, pa
        self._assi[pa], self._assi[pb] = self._assi[pb], self._assi[pa]
        self._load[pa], self._load[pb] = self._load[pb], self._load[pa]

    def delta_comm_volume(self, cluster_a: int, cluster_b: int) -> int:
        """Communication-volume change if the two clusters swapped
        processors, in O(deg(a) + deg(b)) from the cluster aggregates."""
        if cluster_a == cluster_b:
            return 0
        return _pair_swap_delta(
            self._placement,
            self._abs_nbrs,
            self._abs_nbr_w,
            self._dist,
            cluster_a,
            cluster_b,
        )

    def probe_swap(self, cluster_a: int, cluster_b: int) -> int:
        """Makespan after a hypothetical swap; state is left unchanged."""
        if cluster_a == cluster_b:
            return self._makespan
        p = self._placement.copy()
        p[cluster_a], p[cluster_b] = p[cluster_b], p[cluster_a]
        return int(self._finish_times(p).max())

    def delta_total_time(self, cluster_a: int, cluster_b: int) -> int:
        """Makespan change of the hypothetical swap (probe convenience)."""
        return self.probe_swap(cluster_a, cluster_b) - self._makespan

    def swap(self, cluster_a: int, cluster_b: int) -> int:
        """Commit a swap (no undo record); returns the new makespan.

        This is the search-loop workhorse: thousands of committed moves
        cost no memory.  Use :meth:`apply_swap` when you need
        :meth:`revert`; committing through here invalidates any pending
        apply_swap history (a later ``revert`` would restore a state that
        no longer exists), so the undo stack is cleared.
        """
        self._undo.clear()
        self._commit(cluster_a, cluster_b)
        return self._makespan

    def apply_swap(self, cluster_a: int, cluster_b: int) -> int:
        """Commit a swap and push an undo frame for :meth:`revert`."""
        self._undo.append(self._commit(cluster_a, cluster_b))
        return self._makespan

    def _commit(
        self, cluster_a: int, cluster_b: int
    ) -> tuple[int, int, np.ndarray, int, int]:
        frame = (cluster_a, cluster_b, self._end, self._makespan, self._comm_volume)
        if cluster_a != cluster_b:
            self._comm_volume += self.delta_comm_volume(cluster_a, cluster_b)
            self._exchange(cluster_a, cluster_b)
            self._end = self._finish_times(self._placement)
            self._makespan = int(self._end.max())
        return frame

    def revert(self) -> int:
        """Undo the most recent :meth:`apply_swap`; returns the makespan."""
        if not self._undo:
            raise MappingError("revert() without a matching apply_swap()")
        cluster_a, cluster_b, end, makespan, volume = self._undo.pop()
        if cluster_a != cluster_b:
            self._exchange(cluster_a, cluster_b)
        self._end, self._makespan, self._comm_volume = end, makespan, volume
        return self._makespan

    # Move variants: "cluster c onto processor p" under the bijection means
    # exchanging with the processor's current occupant.
    def occupant(self, processor: int) -> int:
        """Cluster currently hosted on ``processor``."""
        return int(self._assi[processor])

    def probe_move(self, cluster: int, processor: int) -> int:
        """Makespan if ``cluster`` moved to ``processor`` (its occupant
        takes the vacated processor); state is left unchanged."""
        return self.probe_swap(cluster, self.occupant(processor))

    def move(self, cluster: int, processor: int) -> int:
        """Commit the move variant; returns the new makespan."""
        return self.swap(cluster, self.occupant(processor))

    # ------------------------------------------------------------------
    def verify(self) -> bool:
        """Cross-check every aggregate against the plain oracle
        (:mod:`repro.core.evaluate`); used by tests and the bench smoke."""
        from .evaluate import evaluate_assignment

        schedule = evaluate_assignment(self._clustered, self._system, self.assignment)
        return (
            self._makespan == schedule.total_time
            and np.array_equal(self._end, schedule.end)
            and self._comm_volume == schedule.communication_volume()
            and np.array_equal(self._load, schedule.processor_busy_time())
        )


class CommVolumeDelta:
    """Incremental hop-weighted communication volume under cluster swaps.

    Maintains ``sum over cluster pairs {x, y} of w[x, y] *
    dist(host(x), host(y))`` for a symmetric pairwise weight matrix and
    answers swap deltas in O(deg(a) + deg(b)) — the same aggregate
    :class:`DeltaEvaluator` tracks as ``comm_volume``, without any of
    its schedule state.  This is the evaluator for search loops that
    optimize communication volume alone (the multilevel refinement),
    where sweeping the schedule on every commit would be pure overhead.

    ``metric`` generalizes the pairwise matrix: by default it is the
    topology's hop-distance matrix (the paper's objective), but any
    symmetric integer ``ns x ns`` matrix works — the hook that lets
    registered analytic metrics with a ``pair_matrix`` drive the same
    O(deg) refinement loop.  It must be integer because the gain table
    behind :meth:`delta_swaps` regroups sums, which is exact only in
    integer arithmetic.
    """

    def __init__(
        self,
        weights: np.ndarray,
        system: SystemGraph,
        assignment: Assignment,
        metric: np.ndarray | None = None,
    ) -> None:
        weights = np.asarray(weights, dtype=np.int64)
        na = weights.shape[0]
        if weights.ndim != 2 or weights.shape[1] != na:
            raise MappingError(
                f"pairwise weights must be square, got shape {weights.shape}"
            )
        if na != system.num_nodes:
            raise MappingError(
                f"{na} clusters cannot map onto {system.num_nodes} system nodes"
            )
        if assignment.size != na:
            raise MappingError(
                f"assignment covers {assignment.size} nodes, system has {na}"
            )
        if metric is None:
            self._dist = np.ascontiguousarray(system.shortest)
        else:
            mat = np.asarray(metric)
            if mat.ndim != 2 or mat.shape != (na, na):
                raise MappingError(
                    f"pair metric must be {na}x{na}, got shape {mat.shape}"
                )
            if not np.array_equal(mat, mat.T):
                raise MappingError("pair metric matrix must be symmetric")
            if not np.issubdtype(mat.dtype, np.integer):
                raise MappingError(
                    f"pair metric matrix must be integer, got dtype {mat.dtype}"
                )
            self._dist = np.ascontiguousarray(mat)
        # One nonzero pass split into per-row views (nonzero is row-major,
        # ascending per row).
        srcs, dsts = np.nonzero(weights)
        bounds = np.cumsum(np.bincount(srcs, minlength=na))[:-1]
        self._nbrs = np.split(dsts, bounds)
        self._nbr_w = np.split(weights[srcs, dsts], bounds)
        self._weights = weights
        self._gain: np.ndarray | None = None  # lazy gain table, see delta_swaps
        self._gain_w: np.ndarray | None = None  # zero-diagonal weights for updates
        self._placement = assignment.placement.copy()
        self._assi = assignment.assi.copy()
        iu = np.triu_indices(na, 1)
        p = self._placement
        self._volume = int((weights[iu] * self._dist[p[iu[0]], p[iu[1]]]).sum())

    @property
    def volume(self) -> int:
        return self._volume

    @property
    def assignment(self) -> Assignment:
        return Assignment.from_placement(self._placement)

    @property
    def placement_view(self) -> np.ndarray:
        """Live cluster -> processor array (mutated in place by swaps)."""
        return self._placement

    @property
    def occupant_view(self) -> np.ndarray:
        """Live processor -> cluster array (mutated in place by swaps)."""
        return self._assi

    def delta_swap(self, cluster_a: int, cluster_b: int) -> int:
        """Volume change if the two clusters swapped processors."""
        if cluster_a == cluster_b:
            return 0
        return _pair_swap_delta(
            self._placement, self._nbrs, self._nbr_w, self._dist, cluster_a, cluster_b
        )

    def delta_swaps(self, cluster: int, procs: np.ndarray) -> np.ndarray:
        """Vector of :meth:`delta_swap` values for swapping ``cluster``
        with the occupant of each processor in ``procs``.

        Bit-identical to :meth:`delta_swap` (integer arithmetic, so the
        gain-table regrouping below is exact) at O(1) per candidate after
        a one-off O(na * ns) gain-table build; only valid when no entry
        of ``procs`` hosts ``cluster`` itself.

        The gain table is ``G[x, r] = sum_y w[x, y] * metric[p[y], r]``
        (diagonal of ``w`` zeroed): the total metric cost of ``x``'s
        edges if ``x`` sat on processor ``r``.  For a swap of ``c`` (on
        ``pc``) with occupant ``o`` of ``q`` the standard QAP identity
        gives ``delta = G[c, q] - G[c, pc] + G[o, pc] - G[o, q] +
        w[c, o] * (metric[pc, q] + metric[q, pc] - metric[q, q] -
        metric[pc, pc])`` — the correction term undoes G's inclusion of
        the (c, o) edge, whose cost is unchanged by the swap.
        """
        if self._gain is None:
            self._build_gain_table()
        gain = self._gain
        gw = self._gain_w
        assert gain is not None and gw is not None
        metric = self._dist
        pc = int(self._placement[cluster])
        occ = self._assi[procs]
        w_co = gw[cluster, occ]
        delta = gain[cluster, procs] - gain[cluster, pc]
        delta += gain[occ, pc] - gain[occ, procs]
        delta += w_co * (
            metric[pc, procs] + metric[procs, pc]
            - metric[procs, procs] - metric[pc, pc]
        )
        return delta

    def _build_gain_table(self) -> None:
        weights = self._weights.copy()
        np.fill_diagonal(weights, 0)
        rows = self._dist[self._placement]  # row y = metric[p[y]]
        # Partial sums stay below 2^53 -> the float64 BLAS product is
        # exact; otherwise fall back to the (slower) integer matmul.
        bound = float(np.abs(weights).sum(axis=1).max(initial=0)) * float(
            np.abs(rows).max(initial=0)
        )
        if bound < 2.0**53:
            gain = np.rint(
                weights.astype(np.float64) @ rows.astype(np.float64)
            ).astype(np.int64)
        else:  # pragma: no cover - astronomically weighted instances
            gain = weights @ rows.astype(np.int64)
        self._gain = gain
        self._gain_w = weights

    def swap(self, cluster_a: int, cluster_b: int) -> int:
        """Commit a swap; returns the new volume."""
        if cluster_a == cluster_b:
            return self._volume
        self._volume += self.delta_swap(cluster_a, cluster_b)
        p = self._placement
        pa, pb = int(p[cluster_a]), int(p[cluster_b])
        if self._gain is not None:
            # Rank-1 refresh: rows a and b of metric[p] changed.
            gw = self._gain_w
            assert gw is not None
            self._gain += np.outer(
                gw[:, cluster_a] - gw[:, cluster_b],
                self._dist[pb] - self._dist[pa],
            )
        p[cluster_a], p[cluster_b] = pb, pa
        self._assi[pa], self._assi[pb] = self._assi[pb], self._assi[pa]
        return self._volume


class CardinalityDelta:
    """Incremental evaluation of Bokhari's cardinality objective.

    Maintains the number (or total weight, with ``weighted=True``) of
    abstract edges mapped onto system links and answers swap deltas in
    O(deg(a) + deg(b)) — the counterpart of :class:`DeltaEvaluator` for
    the cardinality-driven baseline.
    """

    def __init__(
        self,
        abstract: AbstractGraph,
        system: SystemGraph,
        assignment: Assignment,
        weighted: bool = False,
    ) -> None:
        na = abstract.num_nodes
        if na != system.num_nodes:
            raise MappingError(
                f"{na} abstract nodes cannot map onto {system.num_nodes} system nodes"
            )
        if assignment.size != na:
            raise MappingError(
                f"assignment covers {assignment.size} nodes, system has {na}"
            )
        m = np.asarray(abstract.weights if weighted else abstract.abs_edge)
        self._adj = np.ascontiguousarray(system.sys_edge)
        self._nbrs = [np.flatnonzero(m[c]) for c in range(na)]
        self._nbr_w = [m[c, self._nbrs[c]] for c in range(na)]
        self._placement = assignment.placement.copy()
        iu = np.triu_indices(na, 1)
        p = self._placement
        self._card = int((m[iu] * (self._adj[p[iu[0]], p[iu[1]]] > 0)).sum())

    @property
    def cardinality(self) -> int:
        return self._card

    @property
    def assignment(self) -> Assignment:
        return Assignment.from_placement(self._placement)

    def delta_swap(self, cluster_a: int, cluster_b: int) -> int:
        """Cardinality change if the two clusters swapped processors."""
        if cluster_a == cluster_b:
            return 0
        return _pair_swap_delta(
            self._placement, self._nbrs, self._nbr_w, self._adj, cluster_a, cluster_b
        )

    def swap(self, cluster_a: int, cluster_b: int) -> int:
        """Commit a swap; returns the new cardinality."""
        if cluster_a == cluster_b:
            return self._card
        self._card += self.delta_swap(cluster_a, cluster_b)
        p = self._placement
        p[cluster_a], p[cluster_b] = int(p[cluster_b]), int(p[cluster_a])
        return self._card
