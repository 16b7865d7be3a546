"""Delta-vs-full equivalence for the incremental evaluation subsystem.

The core guarantee of :class:`repro.core.DeltaEvaluator`: on *any* move
sequence — probes, commits, apply/revert chains, full rebases — the
makespan and end times stay bit-for-bit equal to a from-scratch
evaluation, checked by :meth:`~repro.core.DeltaEvaluator.verify` (the
independent validator) and by the scalar recurrence kept in the tests.
Checked across every topology family in :mod:`repro.topology.generators`
with randomized move sequences under fixed seeds, plus a weighted-link
machine.  The batch forms — a ``(k, E)`` batch through
:func:`~repro.core.taskgraph.sweep_finish_times`, and the evaluator's
:meth:`~repro.core.DeltaEvaluator.probe_swaps` and
:meth:`~repro.core.DeltaEvaluator.probe_assignments` — are checked row
by row against the one-row calls and the scalar recurrence, and a
commit that reuses its probe's sweep against the validator.
:class:`~repro.core.CommVolumeDelta` with the 0/1 adjacency as its
metric is checked against Bokhari's closed-form cardinality, and
:class:`~repro.core.LinkLoadDelta` against ``link_traffic`` of the
swapped assignment on every topology family.
"""

import numpy as np
import pytest

from repro.api import build_topology
from repro.baselines.bokhari import cardinality
from repro.clustering import RandomClusterer
from repro.core import (
    AbstractGraph,
    Assignment,
    ClusteredGraph,
    CommVolumeDelta,
    DeltaEvaluator,
    LinkLoadDelta,
    incremental,
    total_time,
)
from repro.core.taskgraph import SchedulePlan, TaskGraph, sweep_finish_times
from repro.metrics import link_traffic
from repro.topology import (
    SystemGraph,
    binary_tree,
    butterfly,
    chain,
    chordal_ring,
    complete,
    complete_bipartite,
    cube_connected_cycles,
    de_bruijn,
    hypercube,
    mesh2d,
    mesh3d,
    petersen,
    random_connected,
    random_regular,
    ring,
    star,
    torus2d,
    torus3d,
)
from repro.utils import MappingError
from repro.workloads import layered_random_dag
from tests.conftest import (
    TOPOLOGY_SPECS,
    communication_matrix,
    random_instance,
    scalar_schedule,
    weighted_ring4,
)

TOPOLOGIES = [
    ("hypercube", lambda: hypercube(3)),
    ("mesh2d", lambda: mesh2d(2, 4)),
    ("mesh3d", lambda: mesh3d(2, 2, 2)),
    ("torus2d", lambda: torus2d(3, 3)),
    ("torus3d", lambda: torus3d(2, 2, 2)),
    ("ring", lambda: ring(6)),
    ("chain", lambda: chain(5)),
    ("star", lambda: star(6)),
    ("complete", lambda: complete(5)),
    ("complete_bipartite", lambda: complete_bipartite(3, 4)),
    ("binary_tree", lambda: binary_tree(3)),
    ("cube_connected_cycles", lambda: cube_connected_cycles(3)),
    ("de_bruijn", lambda: de_bruijn(3)),
    ("butterfly", lambda: butterfly(2)),
    ("chordal_ring", lambda: chordal_ring(8, 3)),
    ("petersen", petersen),
    ("random_connected", lambda: random_connected(7, rng=3)),
    ("random_regular", lambda: random_regular(8, 3, rng=3)),
    (
        "weighted_ring",
        lambda: SystemGraph(
            ring(5).sys_edge,
            name="weighted-ring-5",
            link_weights=np.where(ring(5).sys_edge > 0, 3, 0),
        ),
    ),
]


def _instance(system: SystemGraph, seed: int) -> ClusteredGraph:
    graph = layered_random_dag(num_tasks=4 * system.num_nodes, rng=seed)
    clustering = RandomClusterer(system.num_nodes).cluster(graph, rng=seed)
    return ClusteredGraph(graph, clustering)


class TestDeltaAcrossTopologies:
    @pytest.mark.parametrize("name,factory", TOPOLOGIES, ids=[n for n, _ in TOPOLOGIES])
    def test_random_move_sequences_match_oracle(self, name, factory):
        system = factory()
        clustered = _instance(system, seed=11)
        n = system.num_nodes
        gen = np.random.default_rng(20260729)
        shadow = Assignment.random(n, rng=7)
        ev = DeltaEvaluator(clustered, system, shadow)
        assert ev.verify()
        for step in range(30):
            a, b = (int(x) for x in gen.choice(n, size=2, replace=False))
            probed = ev.probe_swap(a, b)
            swapped = shadow.swapped(a, b)
            assert probed == total_time(clustered, system, swapped)
            action = step % 3
            if action == 0:  # probe only: state must be untouched
                assert ev.total_time == total_time(clustered, system, shadow)
            elif action == 1:  # commit
                assert ev.swap(a, b) == probed
                shadow = swapped
            else:  # apply + revert: must restore everything
                assert ev.apply_swap(a, b) == probed
                ev.revert()
            assert ev.verify(), f"{name} diverged at step {step}"

    @pytest.mark.parametrize("seed", range(4))
    def test_aggregates_track_schedule(self, seed):
        system = hypercube(3)
        clustered = _instance(system, seed=seed)
        a = Assignment.random(system.num_nodes, rng=seed)
        ev = DeltaEvaluator(clustered, system, a)
        gen = np.random.default_rng(seed)
        for _ in range(15):
            x, y = (int(v) for v in gen.choice(system.num_nodes, size=2, replace=False))
            ev.swap(x, y)
            comm = communication_matrix(clustered, system, ev.assignment)
            _, end = scalar_schedule(clustered.graph, comm)
            assert ev.total_time == int(end.max())
            assert np.array_equal(ev.end_times(), end)


class TestDeltaEvaluatorApi:
    def _setup(self, seed=0):
        system = mesh2d(2, 3)
        clustered = _instance(system, seed=seed)
        return clustered, system, Assignment.random(system.num_nodes, rng=seed)

    def test_delta_total_time_is_probe_minus_current(self):
        clustered, system, a = self._setup()
        ev = DeltaEvaluator(clustered, system, a)
        assert ev.delta_total_time(0, 4) == ev.probe_swap(0, 4) - ev.total_time
        assert ev.delta_total_time(2, 2) == 0

    def test_move_variant_swaps_with_occupant(self):
        clustered, system, a = self._setup(1)
        ev = DeltaEvaluator(clustered, system, a)
        target = 3
        occupant = ev.occupant(target)
        probed = ev.probe_move(0, target)
        assert probed == ev.probe_swap(0, occupant)
        ev.move(0, target)
        assert ev.assignment.system_of(0) == target
        assert ev.verify()

    def test_revert_chain_restores_initial_state(self):
        clustered, system, a = self._setup(2)
        ev = DeltaEvaluator(clustered, system, a)
        before = ev.end_times()
        moves = [(0, 1), (2, 5), (1, 4)]
        for x, y in moves:
            ev.apply_swap(x, y)
        for _ in moves:
            ev.revert()
        assert ev.assignment == a
        assert np.array_equal(ev.end_times(), before)
        assert ev.verify()

    def test_revert_without_apply_raises(self):
        clustered, system, a = self._setup(3)
        ev = DeltaEvaluator(clustered, system, a)
        with pytest.raises(MappingError, match="revert"):
            ev.revert()

    def test_swap_invalidates_pending_undo_history(self):
        # Regression: a plain commit between apply_swap and revert used to
        # let revert restore a state that no longer existed, silently
        # corrupting every aggregate.
        clustered, system, a = self._setup(7)
        ev = DeltaEvaluator(clustered, system, a)
        ev.apply_swap(0, 1)
        ev.swap(2, 5)
        with pytest.raises(MappingError, match="revert"):
            ev.revert()
        assert ev.verify()

    def test_evaluate_rebases_and_matches_oracle(self):
        clustered, system, a = self._setup(4)
        ev = DeltaEvaluator(clustered, system, a)
        other = Assignment.random(system.num_nodes, rng=99)
        assert ev.evaluate(other) == total_time(clustered, system, other)
        assert ev.assignment == other
        assert ev.verify()

    def test_mismatched_assignment_raises_mapping_error(self):
        clustered, system, _ = self._setup(5)
        # Regression: this used to fail deep inside numpy with IndexError.
        with pytest.raises(MappingError, match="assignment covers"):
            DeltaEvaluator(clustered, system, Assignment.identity(2))

    def test_cluster_processor_mismatch_raises(self):
        clustered, _, _ = self._setup(6)
        with pytest.raises(MappingError, match="na must equal ns"):
            DeltaEvaluator(clustered, ring(4), Assignment.identity(4))


class TestCardinalityDelta:
    """Bokhari's cardinality through :class:`CommVolumeDelta` with the
    0/1 adjacency as the metric."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_swap_sequences_match_full_recount(self, weighted):
        system = hypercube(3)
        clustered = _instance(system, seed=2)
        abstract = AbstractGraph(clustered)
        pair_weights = abstract.weights if weighted else abstract.abs_edge
        a = Assignment.random(system.num_nodes, rng=2)
        ev = CommVolumeDelta(np.triu(pair_weights, 1), system, a, metric=system.sys_edge)
        assert ev.volume == cardinality(abstract, system, a, weighted)
        gen = np.random.default_rng(2)
        for _ in range(25):
            x, y = (int(v) for v in gen.choice(system.num_nodes, size=2, replace=False))
            predicted = ev.volume + ev.delta_swap(x, y)
            assert ev.swap(x, y) == predicted
            assert ev.volume == cardinality(abstract, system, ev.assignment, weighted)

    def test_mismatched_sizes_raise(self):
        system = hypercube(3)
        clustered = _instance(system, seed=0)
        m = AbstractGraph(clustered).abs_edge
        with pytest.raises(MappingError):
            CommVolumeDelta(m, ring(4), Assignment.identity(4), metric=ring(4).sys_edge)
        with pytest.raises(MappingError):
            CommVolumeDelta(m, system, Assignment.identity(4), metric=system.sys_edge)


BATCH_CASES = [*sorted(TOPOLOGY_SPECS), "weighted_ring4"]


def _batch_instance(case: str) -> tuple[ClusteredGraph, SystemGraph]:
    if case == "weighted_ring4":
        system = weighted_ring4()
    else:
        system = build_topology(TOPOLOGY_SPECS[case], rng=0)
    return random_instance(5, num_tasks=4 * system.num_nodes, system=system)


def _plan_costs(clustered, system, plan, weights, placements) -> np.ndarray:
    """``(k, E)`` edge costs of each placement row, aligned with ``plan``."""
    hosts = placements[:, clustered.clustering.labels]
    return weights * system.shortest[hosts[:, plan.src], hosts[:, plan.dst]]


def _late_plan(graph: TaskGraph) -> SchedulePlan:
    """A plan levelled as late as possible (level = depth below the last
    level by the longest path to a sink), so that entry tasks share
    levels with tasks that have in-edges.  Kahn's plan never mixes them;
    the sweep must still be right on any plan whose levels only read
    earlier ones."""
    n = graph.num_tasks
    height = np.zeros(n, dtype=np.int64)
    for t in graph.topological_order.tolist()[::-1]:
        succ = graph.successors(t)
        if succ.size:
            height[t] = 1 + height[succ].max()
    level = height.max() - height
    order = np.lexsort((np.arange(n), level))
    in_src, in_dst, _ = graph.in_edge_arrays()
    in_ptr = np.concatenate(([0], np.cumsum(np.bincount(in_dst, minlength=n))))
    eperm = np.concatenate(
        [np.arange(in_ptr[t], in_ptr[t + 1]) for t in order]
    ).astype(np.int64)
    counts = np.diff(in_ptr)[order]
    return SchedulePlan(
        order=order,
        level_ptr=np.concatenate(([0], np.cumsum(np.bincount(level)))),
        eptr=np.concatenate(([0], np.cumsum(counts))),
        src=in_src[eperm],
        dst=np.repeat(order, counts),
        eperm=eperm,
    )


class TestBatchSweep:
    """``sweep_finish_times`` over a ``(k, E)`` batch of edge costs."""

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_rows_equal_one_row_sweeps_and_the_scalar_oracle(self, case):
        clustered, system = _batch_instance(case)
        graph, n = clustered.graph, system.num_nodes
        plan, sizes = graph.schedule_plan(), graph.task_sizes
        assignments = [Assignment.random(n, rng=s) for s in range(7)]
        costs = _plan_costs(
            clustered, system, plan, clustered.plan_weights(),
            np.stack([a.placement for a in assignments]),
        )
        ends = sweep_finish_times(plan, sizes, costs)
        assert ends.shape == (7, graph.num_tasks)
        # Either memory layout of the batch, and a one-row batch.
        assert np.array_equal(sweep_finish_times(plan, sizes, np.asfortranarray(costs)), ends)
        assert np.array_equal(sweep_finish_times(plan, sizes, costs[:1]), ends[:1])
        for row, assignment in enumerate(assignments):
            assert np.array_equal(ends[row], sweep_finish_times(plan, sizes, costs[row]))
            _, end = scalar_schedule(
                graph, communication_matrix(clustered, system, assignment)
            )
            assert np.array_equal(ends[row], end)

    @pytest.mark.parametrize("seed", range(3))
    def test_levels_mixing_entry_and_inner_tasks(self, seed):
        """The segmented max over only the levels' non-empty in-edge
        segments, one row and a batch."""
        clustered, system = random_instance(seed, num_tasks=60)
        graph = clustered.graph
        plan = _late_plan(graph)
        has_in = np.diff(plan.eptr) > 0
        mixed = [
            has_in[lo:hi].any() and not has_in[lo:hi].all()
            for lo, hi in zip(plan.level_ptr[:-1], plan.level_ptr[1:])
        ]
        assert any(mixed[1:]), "the late plan must mix entry and inner tasks"
        # Its steps keep only the tasks with in-edges, read-only.
        kept = np.concatenate([tasks for tasks, _, _ in plan.steps])
        assert sorted(kept.tolist()) == sorted(plan.order[has_in].tolist())
        for tasks, _, offs in plan.steps:
            assert not tasks.flags.writeable and not offs.flags.writeable
        weights = clustered.cross_in_weights[plan.eperm]
        assignments = [Assignment.random(8, rng=seed + s) for s in range(5)]
        costs = _plan_costs(
            clustered, system, plan, weights,
            np.stack([a.placement for a in assignments]),
        )
        ends = sweep_finish_times(plan, graph.task_sizes, costs)
        for row, assignment in enumerate(assignments):
            _, end = scalar_schedule(
                graph, communication_matrix(clustered, system, assignment)
            )
            assert np.array_equal(ends[row], end)
            assert np.array_equal(
                sweep_finish_times(plan, graph.task_sizes, costs[row]), end
            )


class TestBatchProbes:
    """``probe_swaps`` and ``probe_assignments`` against the one-row
    calls, the stateless oracle, and the evaluator's untouched state."""

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_rows_equal_the_one_row_calls(self, case):
        clustered, system = _batch_instance(case)
        n = system.num_nodes
        ev = DeltaEvaluator(clustered, system, Assignment.random(n, rng=3))
        ev.swap(0, n - 1)
        assignment, end = ev.assignment, ev.end_times()
        pairs = np.column_stack(np.triu_indices(n, 1))
        pairs = np.vstack([pairs, pairs[:, ::-1], [[1, 1]]])
        swaps = ev.probe_swaps(pairs)
        assis = np.stack([np.random.default_rng(s).permutation(n) for s in range(11)])
        times = ev.probe_assignments(assis)
        assert ev.assignment == assignment
        assert np.array_equal(ev.end_times(), end) and ev.verify()
        assert swaps.tolist() == [ev.probe_swap(int(a), int(b)) for a, b in pairs]
        other = DeltaEvaluator(clustered, system, Assignment.identity(n))
        assert times.tolist() == [other.evaluate(Assignment(row)) for row in assis]
        assert times.tolist() == [
            total_time(clustered, system, Assignment(row)) for row in assis
        ]

    @pytest.mark.parametrize(
        "rows_per_chunk", [incremental._MIN_ROWS, incremental._MIN_ROWS + 3, 5]
    )
    def test_batches_cross_chunk_boundaries(self, monkeypatch, rows_per_chunk):
        """Rows swept in chunks of the byte budget, the last one short; a
        budget of fewer than ``_MIN_ROWS`` rows sweeps one row at a time."""
        clustered, system = _batch_instance("hypercube")
        n = system.num_nodes
        ev = DeltaEvaluator(clustered, system, Assignment.random(n, rng=1))
        pairs = np.column_stack(np.triu_indices(n, 1))  # 28 rows
        assis = np.stack([np.random.default_rng(s).permutation(n) for s in range(10)])
        want_swaps = [ev.probe_swap(int(a), int(b)) for a, b in pairs]
        want_times = [total_time(clustered, system, Assignment(row)) for row in assis]
        sweeps = []

        def counting(plan, sizes, edge_cost):
            sweeps.append(edge_cost.shape[0] if edge_cost.ndim == 2 else 1)
            return sweep_finish_times(plan, sizes, edge_cost)

        edges = clustered.plan_weights().size
        monkeypatch.setattr(incremental, "_BATCH_BYTES", 8 * edges * rows_per_chunk)
        monkeypatch.setattr(incremental, "sweep_finish_times", counting)
        assert ev.probe_swaps(pairs).tolist() == want_swaps
        assert ev.probe_assignments(assis).tolist() == want_times
        if rows_per_chunk < incremental._MIN_ROWS:
            assert sweeps == [1] * (len(pairs) + len(assis))
        else:
            chunks = -(-len(pairs) // rows_per_chunk) + -(-len(assis) // rows_per_chunk)
            assert len(sweeps) == chunks and max(sweeps) == rows_per_chunk
            assert min(sweeps) < rows_per_chunk  # a short last chunk

    def test_one_row_and_empty_batches(self):
        clustered, system = _batch_instance("mesh2d")
        n = system.num_nodes
        ev = DeltaEvaluator(clustered, system, Assignment.random(n, rng=2))
        row = np.random.default_rng(0).permutation(n)
        assert ev.probe_swaps([(2, 5)]).tolist() == [ev.probe_swap(2, 5)]
        assert ev.probe_assignments(row[None]).tolist() == [
            total_time(clustered, system, Assignment(row))
        ]
        assert ev.probe_swaps(np.empty((0, 2), dtype=np.int64)).size == 0
        assert ev.probe_assignments(np.empty((0, n), dtype=np.int64)).size == 0

    def test_bad_rows_raise_mapping_error(self):
        clustered, system = _batch_instance("hypercube")
        n = system.num_nodes
        ev = DeltaEvaluator(clustered, system, Assignment.random(n, rng=4))
        good = np.arange(n)
        dup = good.copy()
        dup[3] = 4
        with pytest.raises(MappingError, match=r"row 1 is not a permutation of 0\.\.7"):
            ev.probe_assignments(np.stack([good, dup]))
        with pytest.raises(MappingError, match="row 0 is not a permutation"):
            ev.probe_assignments((good + 1)[None])
        with pytest.raises(MappingError, match=r"expected a \(k, 8\) batch"):
            ev.probe_assignments(np.stack([good[:-1], good[1:]]))
        with pytest.raises(MappingError, match=r"expected a \(k, 8\) batch"):
            ev.probe_assignments(good)
        with pytest.raises(MappingError, match="must name clusters"):
            ev.probe_swaps([(0, n)])
        with pytest.raises(MappingError, match="must name clusters"):
            ev.probe_swaps([(-1, 2)])
        with pytest.raises(MappingError, match=r"expected a \(k, 2\) list"):
            ev.probe_swaps([0, 1])
        assert ev.verify()


class TestProbeReuse:
    """Committing the pair just probed reuses the probe's end times; any
    other state change discards them."""

    @staticmethod
    def _count_sweeps(monkeypatch) -> list:
        sweeps: list = []

        def counting(*args):
            sweeps.append(1)
            return sweep_finish_times(*args)

        monkeypatch.setattr(incremental, "sweep_finish_times", counting)
        return sweeps

    def test_commit_of_the_probed_pair_costs_no_sweep(self, monkeypatch):
        clustered, system = random_instance(4)
        shadow = Assignment.random(8, rng=4)
        ev = DeltaEvaluator(clustered, system, shadow)
        sweeps = self._count_sweeps(monkeypatch)
        for commit in (ev.swap, ev.apply_swap, ev.swap):
            for probe, pair in (((1, 6), (1, 6)), ((2, 5), (5, 2))):
                probed = ev.probe_swap(*probe)
                before = len(sweeps)
                assert commit(*pair) == probed
                assert len(sweeps) == before
                shadow = shadow.swapped(*pair)
                assert ev.assignment == shadow and ev.verify()
        target = 3
        probed = ev.probe_move(0, target)
        before = len(sweeps)
        assert ev.move(0, target) == probed and len(sweeps) == before
        assert ev.assignment.system_of(0) == target and ev.verify()

    def test_stale_probes_are_not_reused(self, monkeypatch):
        clustered, system = random_instance(6)
        start = Assignment.random(8, rng=6)
        other = Assignment.random(8, rng=60)
        ev = DeltaEvaluator(clustered, system, start)
        sweeps = self._count_sweeps(monkeypatch)

        def commit_sweeps(a, b, shadow):
            before = len(sweeps)
            assert ev.swap(a, b) == total_time(clustered, system, shadow)
            assert ev.assignment == shadow and ev.verify()
            return len(sweeps) - before

        # probe, rebase, commit the probed pair
        ev.probe_swap(1, 2)
        ev.evaluate(other)
        assert commit_sweeps(1, 2, other.swapped(1, 2)) == 1
        # probe on a speculative state, revert, commit the probed pair
        shadow = ev.assignment
        ev.apply_swap(0, 3)
        ev.probe_swap(4, 5)
        ev.revert()
        assert ev.verify()
        assert commit_sweeps(4, 5, shadow.swapped(4, 5)) == 1
        # probe one pair, commit another, then the probed one
        shadow = ev.assignment
        ev.probe_swap(6, 7)
        assert commit_sweeps(0, 6, shadow.swapped(0, 6)) == 1
        assert commit_sweeps(6, 7, shadow.swapped(0, 6).swapped(6, 7)) == 1
        # a batch probe leaves nothing to reuse
        shadow = ev.assignment
        ev.probe_swaps([(2, 3)])
        assert commit_sweeps(2, 3, shadow.swapped(2, 3)) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_random_walks_match_the_oracle(self, seed):
        """Probes followed by commits of the same pair in either order,
        mixed with rebases, reverts, batch probes and other commits;
        checked against ``total_time`` and the validator after every
        step."""
        clustered, system = random_instance(seed)
        n = system.num_nodes
        gen = np.random.default_rng(seed)
        shadow = [Assignment.random(n, rng=seed)]
        ev = DeltaEvaluator(clustered, system, shadow[-1])
        probed = (0, 1)
        for step in range(80):
            op = int(gen.integers(7))
            a, b = (int(x) for x in gen.choice(n, size=2, replace=False))
            if op <= 1:
                probed = (a, b)
                got = ev.probe_swap(a, b)
                assert got == total_time(clustered, system, shadow[-1].swapped(a, b))
            elif op == 2:  # commit the probed pair, either order
                x, y = probed if gen.integers(2) else probed[::-1]
                shadow = [shadow[-1].swapped(x, y)]
                ev.swap(x, y)
            elif op == 3:
                x, y = probed if gen.integers(2) else probed[::-1]
                shadow.append(shadow[-1].swapped(x, y))
                ev.apply_swap(x, y)
            elif op == 4 and len(shadow) > 1:
                shadow.pop()
                ev.revert()
            elif op == 5:
                shadow = [Assignment.random(n, rng=int(gen.integers(2**31)))]
                ev.evaluate(shadow[-1])
            else:
                shadow = [shadow[-1].swapped(a, b)]
                ev.swap(a, b)
            assert ev.total_time == total_time(clustered, system, shadow[-1]), step
            assert ev.assignment == shadow[-1] and ev.verify(), step


class TestLinkLoadDelta:
    """The ``max_congestion`` evaluator's scores and commits against the
    most-loaded link of ``link_traffic`` (one route walk per assignment,
    shared with nothing in the evaluator but the routes), on every
    topology family, unit-weight and with seeded link costs 1-5."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    @pytest.mark.parametrize("family", sorted(TOPOLOGY_SPECS))
    def test_scores_and_commits_match_link_traffic(self, family, weighted):
        system = build_topology(TOPOLOGY_SPECS[family], rng=0)
        n = system.num_nodes
        if weighted:
            costs = np.random.default_rng(n).integers(1, 6, size=(n, n))
            system = SystemGraph(system.sys_edge, link_weights=costs)
        clustered, _ = random_instance(7, num_tasks=4 * n, system=system)
        labels = clustered.clustering.labels
        srcs, dsts, _ = clustered.graph.edge_arrays()
        traffic = np.zeros((n, n), dtype=np.int64)
        np.add.at(traffic, (labels[srcs], labels[dsts]), clustered.cross_out_weights)

        def congestion(assignment: Assignment) -> int:
            return max(link_traffic(clustered, system, assignment).values(), default=0)

        ev = LinkLoadDelta(traffic, system, Assignment.random(n, rng=7))
        gen = np.random.default_rng(7)
        for _ in range(6):
            current = ev.assignment
            assert ev.volume == congestion(current)
            cluster = int(gen.integers(n))
            partners = [int(c) for c in ev.occupant_view]
            want = [
                congestion(current.swapped(cluster, o)) - ev.volume if o != cluster else 0
                for o in partners
            ]
            assert ev.delta_swaps(cluster, np.arange(n)).tolist() == want
            subset = gen.choice(n, size=int(gen.integers(1, n)), replace=False)
            assert ev.delta_swaps(cluster, subset).tolist() == [want[q] for q in subset]
            a, b = (int(x) for x in gen.choice(n, size=2, replace=False))
            assert ev.swap(a, b) == congestion(current.swapped(a, b))
            assert ev.assignment == current.swapped(a, b)
