"""CSR edge cases and sweep-vs-scalar equivalence.

The CSR :class:`~repro.core.TaskGraph` and the level sweep behind every
schedule (:func:`~repro.core.evaluate.evaluate_assignment`,
:func:`~repro.core.evaluate.total_time`,
:class:`~repro.core.DeltaEvaluator`) are only allowed to be *faster*
than the scalar recurrence the tests keep as their oracle
(``tests.conftest.scalar_schedule``), never different.  This module pins
the degenerate shapes (no edges, one task, disconnected components,
duplicate edges) and walks :class:`~repro.core.DeltaEvaluator` against
that oracle over randomized move sequences — including deep
``apply_swap``/``revert`` undo stacks mirrored by a stack of shadow
assignments.  With the dense-matrix size limit lowered below the
instance, the paper's mapper, its schedule, the schedule oracle, the
list scheduler, the metrics and the clusterers must still run: only the
Sec. 3 dump builds a task x task matrix.
"""

import numpy as np
import pytest

import repro.core.clustered
import repro.core.taskgraph
from repro.analysis import compute_metrics
from repro.api import get_clusterer, get_mapper
from repro.clustering import RandomClusterer
from repro.core import (
    Assignment,
    ClusteredGraph,
    DeltaEvaluator,
    TaskGraph,
    collect_matrices,
    evaluate_assignment,
    list_schedule,
    total_time,
    verify_schedule,
)
from repro.core.incremental import CommVolumeDelta
from repro.topology import SystemGraph, chain, hypercube, mesh2d, ring, torus2d
from repro.utils import GraphError
from repro.workloads import layered_random_dag
from tests.conftest import communication_matrix, scalar_schedule


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
        # The sweep (evaluate_assignment, DeltaEvaluator, total_time) and
        # the scalar oracle must both see both components.
        g = TaskGraph([2, 3, 1, 4], [(0, 1, 2), (2, 3, 4)])
        clustering = RandomClusterer(num_clusters=2).cluster(g, rng=3)
        clustered = ClusteredGraph(g, clustering)
        system = chain(2)
        assignment = Assignment.random(2, rng=0)
        schedule = evaluate_assignment(clustered, system, assignment)
        verify_schedule(schedule)
        start, end = scalar_schedule(
            g, communication_matrix(clustered, system, assignment)
        )
        assert np.array_equal(schedule.start, start)
        assert np.array_equal(schedule.end, end)
        ev = DeltaEvaluator(clustered, system, assignment)
        assert ev.total_time == schedule.total_time
        assert total_time(clustered, system, assignment) == schedule.total_time
        assert np.array_equal(ev.end_times(), schedule.end)
        assert ev.verify()


class TestNoDenseMatrixOnTheMappingPath:
    """Every per-edge consumer runs where a dense matrix is refused."""

    @pytest.fixture
    def low_limit(self, monkeypatch):
        monkeypatch.setattr(repro.core.taskgraph, "_DENSE_LIMIT", 64)
        monkeypatch.setattr(repro.core.clustered, "_DENSE_LIMIT", 64)

    @pytest.mark.parametrize("clusterer", ["random", "load_balance", "dsc"])
    def test_map_evaluate_verify_above_the_limit(self, low_limit, clusterer):
        graph = layered_random_dag(num_tasks=96, rng=4)
        system = hypercube(3)
        clustering = get_clusterer(clusterer, num_clusters=8).cluster(graph, rng=4)
        clustered = ClusteredGraph(graph, clustering)
        outcome = get_mapper("critical").map(clustered, system, rng=4)
        schedule = evaluate_assignment(clustered, system, outcome.assignment)
        assert schedule.total_time == outcome.total_time
        verify_schedule(schedule)
        for policy in ("fifo", "blevel"):
            ls = list_schedule(clustered, system, outcome.assignment, policy)
            assert ls.makespan >= schedule.total_time
        metrics = compute_metrics(schedule)
        assert metrics.comm_volume == schedule.communication_volume()
        with pytest.raises(GraphError, match="limit 64"):
            collect_matrices(clustered, system, outcome.assignment)


def _instance(system, seed):
    graph = layered_random_dag(num_tasks=4 * system.num_nodes, rng=seed)
    clustering = RandomClusterer(system.num_nodes).cluster(graph, rng=seed)
    return ClusteredGraph(graph, clustering)


SYSTEMS = [
    ("hypercube", lambda: hypercube(3)),
    ("mesh2d", lambda: mesh2d(3, 3)),
    ("ring", lambda: ring(6)),
]


def _oracle_end(clustered, system, assignment):
    """End times of ``assignment`` by the scalar recurrence."""
    comm = communication_matrix(clustered, system, assignment)
    return scalar_schedule(clustered.graph, comm)[1]


def _assert_matches_oracle(ev, clustered, system, shadow):
    """The evaluator's state equals the scalar oracle's schedule."""
    end = _oracle_end(clustered, system, shadow)
    assert ev.assignment == shadow
    assert ev.total_time == int(end.max())
    assert np.array_equal(ev.end_times(), end)


class TestBackendEquivalenceUnderRevert:
    """Oracle walks with deep apply/revert chains.

    The walk interleaves probes and commits with speculative
    ``apply_swap`` chains that are then fully unwound by ``revert()``.
    A stack of shadow assignments mirrors the evaluator's undo stack
    (``apply_swap`` pushes, ``revert`` pops, a plain commit or rebase
    resets it), so the undo stack is exercised at every depth; after
    every operation the makespan and end times must equal the scalar
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
                probed = _oracle_end(clustered, system, shadow[-1].swapped(a, b))
                assert ev.probe_swap(a, b) == int(probed.max())
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
        before = (ev.total_time, ev.end_times())
        gen = np.random.default_rng(42)
        pushes = 8
        for _ in range(pushes):
            a, b = (int(x) for x in gen.choice(n, size=2, replace=False))
            ev.apply_swap(a, b)
        for _ in range(pushes):
            ev.revert()
        assert ev.total_time == before[0]
        assert np.array_equal(ev.end_times(), before[1])
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

    @pytest.mark.parametrize("case", ["hops", "weighted", "cardinality", "asymmetric"])
    def test_scores_and_volume_across_fold_periods(self, case):
        """Commits fold into the gain table in periods; between folds the
        pending ones must reach every score.  Batches of every processor
        and of a random subset, scored after 0 to several commits, each
        entry against the scalar ``delta_swap`` (the own processor's
        entry is 0), and the volume against a recount after every
        commit, over more than three fold periods on 64 processors: the
        hop metric, weighted distances, Bokhari's 0/1 adjacency, and a
        random asymmetric integer metric under directed traffic (some
        pairs one way, some both ways with different weights)."""
        from repro.core import AbstractGraph
        from repro.core.incremental import _fold_period

        system = hypercube(6) if case != "weighted" else torus2d(8, 8)
        n = system.num_nodes
        if case == "weighted":
            costs = np.random.default_rng(5).integers(1, 6, size=(n, n))
            system = SystemGraph(system.sys_edge, link_weights=costs)
            assert system.is_weighted
        clustered = _instance(system, seed=4)
        abstract = AbstractGraph(clustered)
        weights = abstract.abs_edge if case == "cardinality" else abstract.weights
        traffic, metric = np.triu(weights, 1), system.shortest
        if case == "cardinality":
            metric = system.sys_edge
        elif case == "asymmetric":
            gen = np.random.default_rng(6)
            metric = gen.integers(0, 9, size=(n, n))
            traffic = weights * (gen.random((n, n)) < 0.7)
            traffic += np.triu(traffic, 1).T  # some pairs carry both ways
            assert (metric != metric.T).any() and (traffic != traffic.T).any()
        ev = CommVolumeDelta(
            traffic,
            system,
            Assignment.random(n, rng=4),
            metric=None if case in ("hops", "weighted") else metric,
        )
        assert not np.diagonal(traffic).any()

        def recount() -> int:
            p = ev.placement_view
            return int((traffic * metric[np.ix_(p, p)]).sum())

        gen = np.random.default_rng(11)
        commits, period = 0, _fold_period(n)
        while commits < 3 * period + 2:
            cluster = int(gen.integers(n))
            every = np.arange(n)
            subset = gen.choice(n, size=int(gen.integers(1, n)), replace=False)
            for procs in (every, subset):
                got = ev.delta_swaps(cluster, procs).tolist()
                want = [
                    ev.delta_swap(cluster, int(ev.occupant_view[q])) for q in procs
                ]
                assert got == want, (case, commits)
            assert ev.delta_swaps(cluster, every)[ev.placement_view[cluster]] == 0
            for _ in range(int(gen.integers(0, period + 2))):
                a, b = (int(x) for x in gen.choice(n, size=2, replace=False))
                assert ev.swap(a, b) == recount()
                commits += 1
        assert ev.volume == recount()
