"""Incremental (delta) cost evaluation for move-based mapping search.

The metaheuristic baselines and the refinement loop evaluate thousands of
assignments that each differ from the previous one by a single cluster
swap.  :class:`DeltaEvaluator` is the evaluator their inner loops run on:

* a cached topology-distance matrix (``system.shortest``, captured once)
  and the graph's cached :class:`~repro.core.taskgraph.SchedulePlan`;
* the current schedule's end times, computed by one vectorized level
  sweep (:func:`~repro.core.taskgraph.sweep_finish_times`) per probe or
  commit — the paper's total-time recurrence of Sec. 4.3.4, the same
  sweep :func:`~repro.core.evaluate.evaluate_assignment` runs; committing
  the pair just probed reuses that probe's end times;
* ``probe_*`` (evaluate without committing), :meth:`~DeltaEvaluator.swap`
  (commit), :meth:`~DeltaEvaluator.apply_swap` /
  :meth:`~DeltaEvaluator.revert` (commit with an undo stack), and
  :meth:`~DeltaEvaluator.evaluate` — rebase onto any assignment without
  the O(V^2) communication matrix;
* :meth:`~DeltaEvaluator.probe_swaps` and
  :meth:`~DeltaEvaluator.probe_assignments` — the makespans of a whole
  neighbourhood (a list of swaps, a population of assignments) from
  batched sweeps, state left unchanged.

:class:`CommVolumeDelta` is the one incremental evaluator of a pairwise
swap objective ``sum t[x, y] * metric[p(x), p(y)]`` over directed
traffic ``t`` and any integer metric: hop-weighted communication volume
by default, Bokhari's cardinality with the 0/1 adjacency as the metric,
hop-bytes with the route hop counts, which may differ by direction.
:class:`LinkLoadDelta` keeps every link's routed load instead, and its
largest, the ``max_congestion`` objective.  Both answer the multilevel
refinement's one sweep (:func:`repro.core.multilevel.refine_metric`):
each analytic metric names the one it runs on.  The oracles they are
checked against share no code with them:
:func:`~repro.core.validate.verify_times` for the end times
(:meth:`DeltaEvaluator.verify`), closed-form recounts such as
:meth:`~repro.core.evaluate.Schedule.communication_volume` and
:func:`~repro.baselines.bokhari.cardinality` for the pairwise objectives,
and :func:`~repro.metrics.analytic.link_traffic` for the link loads
(``tests/test_delta.py``, ``tests/test_csr.py``,
``benchmarks/bench_delta.py --smoke``).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..topology.base import SystemGraph
from ..utils import MappingError
from .assignment import Assignment
from .clustered import ClusteredGraph
from .taskgraph import sweep_finish_times

__all__ = ["CommVolumeDelta", "DeltaEvaluator", "LinkLoadDelta"]

#: Byte budget of one chunk's ``(rows, edges)`` int64 edge-cost array in
#: the batch probes.  Measured on two tabu iterations on ``hypercube:6``
#: (2,016 pairs each): 1 MB is as fast as 4 or 32 MB at 1k tasks and
#: grows peak memory by 5 MB, against 15 and 67 MB.
_BATCH_BYTES = 1 << 20
#: Fewest rows a chunk must hold for the batch to pay.  A narrower batch
#: (a graph of more than ``_BATCH_BYTES / 64`` edges, about 6,500 tasks
#: at the default density) sweeps its rows one at a time instead.  Per
#: row, at 20k tasks, chunks of 2 rows took 2.3x as long as one row at a
#: time and chunks of 12 about as long; at 5k tasks 8 rows took 0.76x.
_MIN_ROWS = 8


class DeltaEvaluator:
    """Maintains one assignment's cost state under cluster moves.

    Parameters
    ----------
    clustered, system:
        The instance; ``na`` must equal ``ns`` (same contract as
        :func:`~repro.core.evaluate.communication_costs`).
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
        self._undo: list[tuple[int, int, np.ndarray, int]] = []
        # The last single-pair probe, (a, b, end times), valid until the
        # state changes: committing that pair reuses its sweep.
        self._probed: tuple[int, int, np.ndarray] | None = None
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

    def end_times(self) -> np.ndarray:
        """Current end times (copy)."""
        return self._end.copy()

    # ------------------------------------------------------------------
    # Schedule sweep and full (re-)evaluation
    # ------------------------------------------------------------------
    def _edge_costs(self, hosts: np.ndarray) -> np.ndarray:
        """Plan-aligned edge costs (clustered weight x distance) for one
        placement ``(na,)``, or ``(E, k)`` for ``k`` placements given as
        the columns of ``hosts`` — the sweep's edge-major lane layout."""
        # A flat index host(x) * ns + host(y) into the distance matrix.
        hops = self._dist.take(
            (hosts * self._dist.shape[0])[self._plan_src] + hosts[self._plan_dst]
        )
        return hops * (self._plan_w if hosts.ndim == 1 else self._plan_w[:, None])

    def _finish_times(self, placement: np.ndarray) -> np.ndarray:
        """End time per task under ``placement``: one level sweep."""
        return sweep_finish_times(self._plan, self._sizes, self._edge_costs(placement))

    def _makespans(self, placements: np.ndarray) -> np.ndarray:
        """Makespan of every row of a ``(k, ns)`` placement batch, swept
        in row chunks whose edge costs fit in :data:`_BATCH_BYTES`."""
        rows = _BATCH_BYTES // (8 * max(1, self._plan_w.size))
        if rows < _MIN_ROWS:
            return np.array(
                [self._finish_times(p).max() for p in placements], dtype=np.int64
            )
        out = np.empty(placements.shape[0], dtype=np.int64)
        for lo in range(0, placements.shape[0], rows):
            hosts = np.ascontiguousarray(placements[lo : lo + rows].T)
            end = sweep_finish_times(self._plan, self._sizes, self._edge_costs(hosts).T)
            out[lo : lo + rows] = end.max(axis=1)
        return out

    def evaluate(self, assignment: Assignment) -> int:
        """Rebase onto ``assignment`` and return its makespan.

        One level sweep — no O(V^2) communication matrix.  This is the
        fast path for a move that changes many clusters at once (random
        re-placement); :meth:`probe_assignments` scores many such
        assignments without rebasing.  Clears the undo stack.
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
        self._end = self._finish_times(self._placement)
        self._makespan = int(self._end.max())
        self._undo.clear()
        self._probed = None

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------
    def _exchange(self, cluster_a: int, cluster_b: int) -> None:
        """Exchange the two clusters' processors (its own inverse)."""
        p = self._placement
        pa, pb = int(p[cluster_a]), int(p[cluster_b])
        p[cluster_a], p[cluster_b] = pb, pa
        self._assi[pa], self._assi[pb] = self._assi[pb], self._assi[pa]

    def probe_swap(self, cluster_a: int, cluster_b: int) -> int:
        """Makespan after a hypothetical swap; state is left unchanged.

        The probe's end times are kept until the state changes, so
        committing this pair next (in either order) costs no sweep.
        """
        if cluster_a == cluster_b:
            return self._makespan
        p = self._placement.copy()
        p[cluster_a], p[cluster_b] = p[cluster_b], p[cluster_a]
        end = self._finish_times(p)
        self._probed = (cluster_a, cluster_b, end)
        return int(end.max())

    def probe_swaps(
        self, pairs: np.ndarray | Sequence[tuple[int, int]]
    ) -> np.ndarray:
        """Makespans of a ``(k, 2)`` list of hypothetical swaps.

        Row ``r`` equals ``probe_swap(*pairs[r])`` against the current
        placement (a pair of equal clusters gives the current makespan);
        the rows are swept in batches and the state is left unchanged.
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        n = self._placement.size
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise MappingError(
                f"expected a (k, 2) list of pairs, got shape {pairs.shape}"
            )
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise MappingError(f"swap pairs must name clusters 0..{n - 1}")
        rows = np.arange(pairs.shape[0])
        placements = np.tile(self._placement, (rows.size, 1))
        placements[rows, pairs[:, 0]] = self._placement[pairs[:, 1]]
        placements[rows, pairs[:, 1]] = self._placement[pairs[:, 0]]
        return self._makespans(placements)

    def probe_assignments(self, assis: np.ndarray) -> np.ndarray:
        """Makespans of a ``(k, ns)`` batch of ``assi`` rows.

        Row ``r`` equals ``evaluate(Assignment(assis[r]))``, and is
        checked as :class:`~repro.core.assignment.Assignment` checks it;
        the rows are swept in batches and the state is left unchanged.
        """
        arr = np.asarray(assis, dtype=np.int64)
        n = self._placement.size
        if arr.ndim != 2 or arr.shape[1] != n:
            raise MappingError(
                f"expected a (k, {n}) batch of permutations, got shape {arr.shape}"
            )
        bad = np.flatnonzero((np.sort(arr, axis=1) != np.arange(n)).any(axis=1))
        if bad.size:
            r = int(bad[0])
            raise MappingError(
                f"row {r} is not a permutation of 0..{n - 1}: {arr[r].tolist()}"
            )
        placements = np.empty_like(arr)
        placements[np.arange(arr.shape[0])[:, None], arr] = np.arange(n)
        return self._makespans(placements)

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
    ) -> tuple[int, int, np.ndarray, int]:
        frame = (cluster_a, cluster_b, self._end, self._makespan)
        if cluster_a != cluster_b:
            probed, self._probed = self._probed, None
            self._exchange(cluster_a, cluster_b)
            if probed is not None and probed[:2] in (
                (cluster_a, cluster_b), (cluster_b, cluster_a)
            ):
                self._end = probed[2]
            else:
                self._end = self._finish_times(self._placement)
            self._makespan = int(self._end.max())
        return frame

    def revert(self) -> int:
        """Undo the most recent :meth:`apply_swap`; returns the makespan."""
        if not self._undo:
            raise MappingError("revert() without a matching apply_swap()")
        cluster_a, cluster_b, end, makespan = self._undo.pop()
        if cluster_a != cluster_b:
            self._exchange(cluster_a, cluster_b)
            self._probed = None
        self._end, self._makespan = end, makespan
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
        """Check the current end times and makespan against the
        independent validator (:func:`~repro.core.validate.verify_times`,
        which shares no code with the sweep); used by tests and the bench
        smoke."""
        from .validate import ScheduleViolation, verify_times

        try:
            verify_times(
                self._clustered,
                self._system,
                self.assignment,
                self._end - self._sizes,
                self._end,
            )
        except ScheduleViolation:
            return False
        return self._makespan == int(self._end.max())


class _SwapEvaluator:
    """What the multilevel sweep reads of a swap evaluator: the live
    cluster <-> processor bijection and the objective's current value."""

    _volume: int

    def _start(
        self, traffic: np.ndarray, system: SystemGraph, assignment: Assignment
    ) -> np.ndarray:
        """Take ``assignment``'s placement and return ``traffic`` as a
        square int64 copy with a zero diagonal (a cluster's messages to
        itself cost nothing), checked against the instance."""
        t = np.array(traffic, dtype=np.int64)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise MappingError(f"pairwise weights must be square, got shape {t.shape}")
        na = t.shape[0]
        if na != system.num_nodes:
            raise MappingError(
                f"{na} clusters cannot map onto {system.num_nodes} system nodes"
            )
        if assignment.size != na:
            raise MappingError(
                f"assignment covers {assignment.size} nodes, system has {na}"
            )
        np.fill_diagonal(t, 0)
        self._placement = assignment.placement.copy()
        self._assi = assignment.assi.copy()
        return t

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


class CommVolumeDelta(_SwapEvaluator):
    """Incremental pairwise communication volume under cluster swaps.

    Maintains ``sum over clusters x != y of t[x, y] * metric[host(x),
    host(y)]`` for integer traffic ``t``, where ``t[x, y]`` is what ``x``
    sends ``y``, and answers swap deltas from a gain table
    (:meth:`delta_swaps`).  Over the hop distances it is the number
    :meth:`~repro.core.evaluate.Schedule.communication_volume` gives,
    without any schedule state.  This is the evaluator for search loops
    that optimize a pairwise objective alone (the multilevel refinement,
    Bokhari's cardinality search), where sweeping the schedule on every
    commit would be pure overhead.  A caller holding a symmetric pair
    weight ``w`` passes ``np.triu(w, 1)``, which counts each pair once.

    ``metric`` generalizes the pairwise matrix: by default it is the
    topology's hop-distance matrix (the paper's objective), but any
    integer ``ns x ns`` matrix works, symmetric or not — the 0/1
    adjacency ``system.sys_edge`` turns the volume into Bokhari's
    cardinality, and ``system.route_hops``, which can differ by direction
    on weighted machines, into hop-bytes.  It must be integer because
    the gain table behind :meth:`delta_swaps` regroups sums, which is
    exact only in integer arithmetic.
    """

    def __init__(
        self,
        traffic: np.ndarray,
        system: SystemGraph,
        assignment: Assignment,
        metric: np.ndarray | None = None,
    ) -> None:
        t = self._start(traffic, system, assignment)
        na = t.shape[0]
        if metric is None:
            self._dist = np.ascontiguousarray(system.shortest)
        else:
            mat = np.asarray(metric)
            if mat.ndim != 2 or mat.shape != (na, na):
                raise MappingError(
                    f"pair metric must be {na}x{na}, got shape {mat.shape}"
                )
            if not np.issubdtype(mat.dtype, np.integer):
                raise MappingError(
                    f"pair metric matrix must be integer, got dtype {mat.dtype}"
                )
            self._dist = np.ascontiguousarray(mat, dtype=np.int64)
        m, p = self._dist, self._placement
        self._traffic = t
        self._volume = int((t * m[np.ix_(p, p)]).sum())
        # The gain table of delta_swaps and its companions: its terms
        # (weights, matrix), G = sum of weights @ matrix[p] — the traffic
        # both ways w = t + t^T over the metric, and for a metric that
        # differs by direction t over its skew metric^T - metric;
        # own[q] = G[occupant of q, q], kept current at every commit; the
        # swap's metric term metric[r, q] + metric[q, r] - metric[q, q] -
        # metric[r, r]; and the factors U^T and V of the commits not yet
        # folded in (their first ``_pending`` rows, one per term and commit).
        self._pair_w = t + t.T
        skew = m.T - m
        self._terms = [(self._pair_w, m)] + ([(t, skew)] if skew.any() else [])
        self._gain = sum(_exact_matmul(w, mat[p]) for w, mat in self._terms)
        self._own = self._gain[self._assi, np.arange(na)]
        diag = np.diagonal(m)
        self._swap_metric = m + m.T - diag - diag[:, None]
        rows = len(self._terms) * _fold_period(na)
        self._fold_u = np.empty((rows, na), dtype=np.int64)
        self._fold_v = np.empty_like(self._fold_u)
        self._pending = 0

    def delta_swap(self, cluster_a: int, cluster_b: int) -> int:
        """Volume change if the two clusters swapped processors, summed
        over the two clusters' rows and columns of the traffic without
        the gain table: the reference the tests and the delta smoke
        check :meth:`delta_swaps` and :meth:`swap` against.

        Each moved cluster's terms with the other clusters change, and
        the pair's own terms change only by the metric's asymmetry.
        """
        if cluster_a == cluster_b:
            return 0
        placement, metric, t = self._placement, self._dist, self._traffic
        pa, pb = int(placement[cluster_a]), int(placement[cluster_b])
        delta = 0
        for c, p_new, p_old in ((cluster_a, pb, pa), (cluster_b, pa, pb)):
            terms = t[c] * (metric[p_new, placement] - metric[p_old, placement])
            terms += t[:, c] * (metric[placement, p_new] - metric[placement, p_old])
            delta += int(terms.sum() - terms[cluster_a] - terms[cluster_b])
        skew = int(metric[pb, pa] - metric[pa, pb])
        return delta + int(t[cluster_a, cluster_b] - t[cluster_b, cluster_a]) * skew

    def delta_swaps(self, cluster: int, procs: np.ndarray) -> np.ndarray:
        """Vector of :meth:`delta_swap` values for swapping ``cluster``
        with the occupant of each processor in ``procs``.

        Bit-identical to :meth:`delta_swap` (integer arithmetic, so the
        gain-table regrouping below is exact) at O(1) per candidate,
        plus O(k * (na + ns)) per call for the ``k`` commits not yet
        folded into the table.  ``cluster``'s own processor scores 0, so
        ``procs`` may list every processor.

        The gain table is ``G[x, r] = sum_y t[x, y] * metric[r, p[y]] +
        t[y, x] * metric[p[y], r]``: the total metric cost of ``x``'s
        traffic, both ways, if ``x`` sat on processor ``r``.  With ``w =
        t + t.T`` and the skew ``s = metric.T - metric`` that is ``w @
        metric[p] + t @ s[p]``, and a symmetric metric has no skew term.
        For a swap of ``c`` (on ``pc``) with occupant ``o`` of ``q`` the
        standard QAP identity gives ``delta = G[c, q] - G[c, pc] + G[o,
        pc] - G[o, q] + w[c, o] * (metric[pc, q] + metric[q, pc] -
        metric[q, q] - metric[pc, pc])`` — the correction term undoes
        G's inclusion of the (c, o) traffic, whose cost the swap does
        not change.

        Each commit changes ``G`` by a rank-1 term per term of the table
        (see :meth:`swap`).  They wait as factors ``U`` (``na x k``) and
        ``V`` (``k x ns``) until :func:`_fold_period` commits fold in
        with one product, so the current table is ``G + U @ V``: a call
        adds the pending terms to row ``c`` and column ``pc`` only, and
        the entries ``G[o, q]`` of each processor's own occupant are
        kept current at every commit.
        """
        gain, own = self._gain, self._own
        pc = int(self._placement[cluster])
        occ = self._assi.take(procs)
        row, col = gain[cluster], gain[:, pc]
        k = self._pending
        if k:
            u, v = self._fold_u[:k], self._fold_v[:k]
            row = row + u[:, cluster] @ v
            col = col + v[:, pc] @ u
        delta = row.take(procs) - own[pc] + col.take(occ) - own.take(procs)
        delta += self._pair_w[cluster].take(occ) * self._swap_metric[pc].take(procs)
        return delta

    def swap(self, cluster_a: int, cluster_b: int) -> int:
        """Commit a swap; returns the new volume."""
        if cluster_a == cluster_b:
            return self._volume
        p, assi, own = self._placement, self._assi, self._own
        pa, pb = int(p[cluster_a]), int(p[cluster_b])
        # The two current gain entries the swap moves onto, pending terms in.
        k = self._pending
        u, v = self._fold_u[:k], self._fold_v[:k]
        a_on_pb = int(self._gain[cluster_a, pb] + u[:, cluster_a] @ v[:, pb])
        b_on_pa = int(self._gain[cluster_b, pa] + u[:, cluster_b] @ v[:, pa])
        self._volume += (
            a_on_pb - int(own[pa]) + b_on_pa - int(own[pb])
            + int(self._pair_w[cluster_a, cluster_b] * self._swap_metric[pa, pb])
        )
        # Rows a and b of each term's matrix[p] trade places, so G changes
        # by the rank-1 term outer(du, dv) per term; ``own`` takes them
        # now, G at the next fold.
        for weights, mat in self._terms:
            du = weights[:, cluster_a] - weights[:, cluster_b]
            dv = mat[pb] - mat[pa]
            own += du.take(assi) * dv
            a_on_pb += int(du[cluster_a] * dv[pb])
            b_on_pa += int(du[cluster_b] * dv[pa])
            self._fold_u[k], self._fold_v[k] = du, dv
            k += 1
        own[pa], own[pb] = b_on_pa, a_on_pb
        self._pending = k
        if k == self._fold_u.shape[0]:
            self._gain += _exact_matmul(self._fold_u.T, self._fold_v)
            self._pending = 0
        p[cluster_a], p[cluster_b] = pb, pa
        assi[pa], assi[pb] = cluster_b, cluster_a
        return self._volume


class LinkLoadDelta(_SwapEvaluator):
    """Incremental load of the most-loaded directed link under swaps.

    Keeps the processor traffic matrix ``T`` (``T[host(x), host(y)] =
    t[x, y]``, what cluster ``x`` sends ``y``) and every directed link's
    load, the traffic of the routes crossing it times its link weight —
    the loads :func:`~repro.metrics.analytic.link_traffic` counts.  Its
    :attr:`volume` is the largest load, the ``max_congestion`` objective,
    and it has :class:`CommVolumeDelta`'s interface for the multilevel
    refinement's sweep.

    Exchanging the contents of processors ``pc`` and ``q`` exchanges
    ``T``'s rows and columns ``pc`` and ``q``, and loads are linear in
    ``T``, so a candidate's load change is the routed change of those
    two rows and columns (:meth:`delta_swaps`).  A commit re-routes the
    exchanged traffic matrix whole.
    """

    def __init__(
        self, traffic: np.ndarray, system: SystemGraph, assignment: Assignment
    ) -> None:
        t = self._start(traffic, system, assignment)
        n = t.shape[0]
        self._system = system
        self._traffic = t[np.ix_(self._assi, self._assi)]
        tails, heads = np.nonzero(system.sys_edge)
        self._link_ids = np.full((n, n), -1, dtype=np.int64)
        self._link_ids[tails, heads] = np.arange(tails.size)
        self._link_w = system.link_weights[tails, heads]
        self._src, self._dst = np.nonzero(~np.eye(n, dtype=bool))
        self._reroute()

    def _reroute(self) -> None:
        """Every link's load, and the largest, from one walk of ``T``."""
        loads = self._system.route_loads(self._traffic)
        self._loads = loads[self._link_ids >= 0] * self._link_w
        self._volume = int(self._loads.max(initial=0))

    def delta_swaps(self, cluster: int, procs: np.ndarray) -> np.ndarray:
        """Change of the largest load if ``cluster`` swapped with the
        occupant of each processor in ``procs`` (its own processor
        scores 0).

        Every processor ``q`` is scored in one walk of every route
        (:meth:`~repro.topology.base.SystemGraph.walk_routes`) into a
        links x processors table of load changes.  With ``c`` on ``pc``,
        the swap with ``q``'s occupant moves, on each route ``a -> b``,
        ``T[pc, b] - T[a, b]`` for ``q = a`` and ``T[a, pc] - T[a, b]``
        for ``q = b``; on each route ``pc -> b``, ``T[q, b] - T[pc, b]``
        and on each route ``a -> pc``, ``T[a, q] - T[a, pc]``, for every
        ``q``.  The routes between ``pc`` and ``q`` each carry ``T[pc, q]
        + T[q, pc]`` more, the correction for the pair itself.
        """
        t, src, dst = self._traffic, self._src, self._dst
        n, pc = t.shape[0], int(self._placement[cluster])
        pair, mutual = t[src, dst], t[pc] + t[:, pc]
        at_src = t[pc, dst] - pair + np.where(dst == pc, mutual[src], 0)
        at_dst = t[src, pc] - pair + np.where(src == pc, mutual[dst], 0)
        change = np.zeros((self._link_w.size, n), dtype=np.int64)
        flat = change.reshape(-1)
        for live, tail, head in self._system.walk_routes(src, dst):
            links, a, b = self._link_ids[tail, head], src[live], dst[live]
            np.add.at(flat, links * n + a, at_src[live])
            np.add.at(flat, links * n + b, at_dst[live])
            leave, enter = a == pc, b == pc
            out, into = b[leave], a[enter]
            np.add.at(change, links[leave], (t[:, out] - t[pc, out]).T)
            np.add.at(change, links[enter], t[into] - t[into, pc][:, None])
        loads = self._loads[:, None] + self._link_w[:, None] * change
        return loads.max(axis=0, initial=0).take(procs) - self._volume

    def swap(self, cluster_a: int, cluster_b: int) -> int:
        """Commit a swap; returns the new largest load."""
        if cluster_a == cluster_b:
            return self._volume
        p, assi, t = self._placement, self._assi, self._traffic
        pa, pb = int(p[cluster_a]), int(p[cluster_b])
        t[[pa, pb]] = t[[pb, pa]]
        t[:, [pa, pb]] = t[:, [pb, pa]]
        p[cluster_a], p[cluster_b] = pb, pa
        assi[pa], assi[pb] = cluster_b, cluster_a
        self._reroute()
        return self._volume


def _fold_period(ns: int) -> int:
    """Commits kept as pending factors before one product folds them into
    an ``na x ns`` gain table (see :meth:`CommVolumeDelta.delta_swaps`).

    A fold costs a pass over the table and a pending commit some work
    in every call, so the best period grows with ``ns``.  The multilevel
    refinement of all levels (wall clock, best of 2-9 runs on a 2-vCPU
    VM) took 2.94/1.85/1.57/1.58/2.08 s for periods 8/16/32/64/128 on
    ``hypercube:10``, 295-302 ms for 16-32 against 395 ms for 64 on
    ``hypercube:9``, 77-81 ms for 4-32 against 137 ms for a fold per
    commit on ``hypercube:8``, and the same for every period on
    ``hypercube:6`` and ``hypercube:7``."""
    return max(4, ns // 32)


def _exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of integer matrices, exactly: by float64 BLAS when every
    partial sum stays below 2^53, else by the (slower) integer matmul."""
    bound = float(np.abs(a).sum(axis=1).max(initial=0)) * float(
        np.abs(b).max(initial=0)
    )
    if bound < 2.0**53:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    return a @ b.astype(np.int64)  # pragma: no cover - astronomically weighted
