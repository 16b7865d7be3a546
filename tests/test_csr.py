"""CSR edge cases and array-vs-scalar equivalence.

The CSR :class:`~repro.core.TaskGraph` and the array-native evaluators
are only allowed to be *faster* than the scalar recurrence of
:func:`~repro.core.evaluate.evaluate_assignment`, never different.  This
module pins the degenerate shapes (no edges, one task, disconnected
components, duplicate edges) and walks :class:`~repro.core.DeltaEvaluator`
against that oracle over randomized move sequences — including deep
``apply_swap``/``revert`` undo stacks mirrored by a stack of shadow
assignments.
"""

import numpy as np
import pytest

from repro.clustering import RandomClusterer
from repro.core import (
    Assignment,
    ClusteredGraph,
    DeltaEvaluator,
    TaskGraph,
    evaluate_assignment,
    total_time,
    verify_schedule,
)
from repro.core.incremental import CommVolumeDelta
from repro.topology import chain, hypercube, mesh2d, ring
from repro.utils import GraphError
from repro.workloads import layered_random_dag


class TestCsrEdgeCases:
    def test_edgeless_graph(self):
        g = TaskGraph([1, 2, 3])
        assert g.num_edges == 0
        assert g.out_indptr.tolist() == [0, 0, 0, 0]
        assert g.in_indptr.tolist() == [0, 0, 0, 0]
        assert g.total_comm == 0
        assert g.critical_path_length() == 3  # heaviest isolated task
        assert sorted(g.sources().tolist()) == [0, 1, 2]
        assert sorted(g.sinks().tolist()) == [0, 1, 2]

    def test_zero_tasks_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph([])

    def test_single_task(self):
        g = TaskGraph([5])
        assert g.num_tasks == 1
        assert g.num_edges == 0
        assert g.critical_path_length() == 5
        assert g.sources().tolist() == [0]
        assert g.sinks().tolist() == [0]
        assert g.topological_order.tolist() == [0]

    def test_disconnected_components(self):
        # Two independent chains: 0 -> 1 and 2 -> 3.
        g = TaskGraph([1, 1, 1, 1], [(0, 1, 2), (2, 3, 4)])
        assert g.num_edges == 2
        assert g.total_comm == 6
        assert g.out_indptr.tolist() == [0, 1, 1, 2, 2]
        assert g.in_indptr.tolist() == [0, 0, 1, 1, 2]
        assert g.successors(1).size == 0
        assert g.predecessors(2).size == 0
        assert g.successors(0).tolist() == [1]
        assert g.predecessors(3).tolist() == [2]
        # Both components land in the schedule; neither hides the other.
        assert g.critical_path_length() == 6

    def test_duplicate_edge_rejected_by_triples(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            TaskGraph([1, 1], [(0, 1, 2), (0, 1, 3)])

    def test_duplicate_edge_rejected_by_edge_arrays(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            TaskGraph.from_edge_arrays(
                [1, 1],
                np.array([0, 0]),
                np.array([1, 1]),
                np.array([2, 3]),
            )

    def test_disconnected_graph_evaluates_on_both_backends(self):
        # Both the array sweep (DeltaEvaluator, total_time) and the scalar
        # recurrence (evaluate_assignment, checked by verify_schedule)
        # must see both components.
        g = TaskGraph([2, 3, 1, 4], [(0, 1, 2), (2, 3, 4)])
        clustering = RandomClusterer(num_clusters=2).cluster(g, rng=3)
        clustered = ClusteredGraph(g, clustering)
        system = chain(2)
        assignment = Assignment.random(2, rng=0)
        schedule = evaluate_assignment(clustered, system, assignment)
        verify_schedule(schedule)
        ev = DeltaEvaluator(clustered, system, assignment)
        assert ev.total_time == schedule.total_time
        assert total_time(clustered, system, assignment) == schedule.total_time
        assert np.array_equal(ev.end_times(), schedule.end)
        assert ev.verify()


def _instance(system, seed):
    graph = layered_random_dag(num_tasks=4 * system.num_nodes, rng=seed)
    clustering = RandomClusterer(system.num_nodes).cluster(graph, rng=seed)
    return ClusteredGraph(graph, clustering)


SYSTEMS = [
    ("hypercube", lambda: hypercube(3)),
    ("mesh2d", lambda: mesh2d(3, 3)),
    ("ring", lambda: ring(6)),
]


def _assert_matches_oracle(ev, clustered, system, shadow):
    """Every observable aggregate equals the scalar oracle's schedule."""
    schedule = evaluate_assignment(clustered, system, shadow)
    assert ev.assignment == shadow
    assert ev.total_time == schedule.total_time
    assert ev.comm_volume == schedule.communication_volume()
    assert np.array_equal(ev.end_times(), schedule.end)
    assert np.array_equal(ev.loads(), schedule.processor_busy_time())


class TestBackendEquivalenceUnderRevert:
    """Oracle walks with deep apply/revert chains.

    The walk interleaves probes and commits with speculative
    ``apply_swap`` chains that are then fully unwound by ``revert()``.
    A stack of shadow assignments mirrors the evaluator's undo stack
    (``apply_swap`` pushes, ``revert`` pops, a plain commit or rebase
    resets it), so the undo stack is exercised at every depth; after
    every operation all observable aggregates must equal the scalar
    oracle's schedule of the shadow's top, bit for bit.
    """

    @pytest.mark.parametrize("name,factory", SYSTEMS, ids=[n for n, _ in SYSTEMS])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lockstep_walk(self, name, factory, seed):
        system = factory()
        clustered = _instance(system, seed)
        n = system.num_nodes
        shadow = [Assignment.random(n, rng=seed)]
        ev = DeltaEvaluator(clustered, system, shadow[-1])
        gen = np.random.default_rng(900 + seed)
        for step in range(60):
            a, b = (int(x) for x in gen.choice(n, size=2, replace=False))
            op = int(gen.integers(0, 5))
            if op == 0:
                probed = evaluate_assignment(clustered, system, shadow[-1].swapped(a, b))
                assert ev.probe_swap(a, b) == probed.total_time
            elif op == 1:
                # A plain commit invalidates (clears) the undo stack.
                shadow = [shadow[-1].swapped(a, b)]
                ev.swap(a, b)
            elif op == 2:
                shadow.append(shadow[-1].swapped(a, b))
                ev.apply_swap(a, b)
            elif op == 3 and len(shadow) > 1:
                shadow.pop()
                ev.revert()
            else:
                shadow = [Assignment.random(n, rng=int(gen.integers(0, 2**31)))]
                ev.evaluate(shadow[-1])
            _assert_matches_oracle(ev, clustered, system, shadow[-1])
        # Unwind whatever speculation is still open: every pop must land
        # on the shadow below it, all the way down.
        while len(shadow) > 1:
            shadow.pop()
            ev.revert()
            _assert_matches_oracle(ev, clustered, system, shadow[-1])

    def test_revert_restores_across_full_stack(self):
        system = hypercube(3)
        clustered = _instance(system, seed=5)
        n = system.num_nodes
        start = Assignment.random(n, rng=5)
        ev = DeltaEvaluator(clustered, system, start)
        before = (ev.total_time, ev.comm_volume, ev.end_times())
        gen = np.random.default_rng(42)
        pushes = 8
        for _ in range(pushes):
            a, b = (int(x) for x in gen.choice(n, size=2, replace=False))
            ev.apply_swap(a, b)
        for _ in range(pushes):
            ev.revert()
        assert (ev.total_time, ev.comm_volume) == before[:2]
        assert np.array_equal(ev.end_times(), before[2])
        _assert_matches_oracle(ev, clustered, system, start)


class TestCommVolumeDeltaBulk:
    """The gain-table batch path must match the scalar swap deltas."""

    def test_delta_swaps_matches_scalar(self):
        system = hypercube(3)
        clustered = _instance(system, seed=2)
        from repro.core import AbstractGraph

        abstract = AbstractGraph(clustered)
        assignment = Assignment.random(system.num_nodes, rng=2)
        ev = CommVolumeDelta(abstract.abs_edge, system, assignment)
        n = system.num_nodes
        gen = np.random.default_rng(7)
        for _ in range(10):
            cluster = int(gen.integers(0, n))
            procs = np.array(
                [p for p in range(n) if int(ev.occupant_view[p]) != cluster],
                dtype=np.int64,
            )
            bulk = ev.delta_swaps(cluster, procs)
            for proc, delta in zip(procs.tolist(), bulk.tolist()):
                other = int(ev.occupant_view[proc])
                assert delta == ev.delta_swap(cluster, other)
            a, b = (int(x) for x in gen.choice(n, size=2, replace=False))
            ev.swap(a, b)
