"""Delta-vs-full equivalence for the incremental evaluation subsystem.

The core guarantee of :class:`repro.core.DeltaEvaluator`: on *any* move
sequence — probes, commits, apply/revert chains, full rebases — the
makespan and end times stay bit-for-bit equal to a from-scratch
evaluation, checked by :meth:`~repro.core.DeltaEvaluator.verify` (the
independent validator) and by the scalar recurrence kept in the tests.
Checked across every topology family in :mod:`repro.topology.generators`
with randomized move sequences under fixed seeds, plus a weighted-link
machine.  :class:`~repro.core.CommVolumeDelta` with the 0/1 adjacency as
its metric is checked against Bokhari's closed-form cardinality.
"""

import numpy as np
import pytest

from repro.baselines.bokhari import cardinality
from repro.clustering import RandomClusterer
from repro.core import (
    AbstractGraph,
    Assignment,
    ClusteredGraph,
    CommVolumeDelta,
    DeltaEvaluator,
    communication_matrix,
    total_time,
)
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
from tests.conftest import scalar_schedule

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
        ev = CommVolumeDelta(pair_weights, system, a, metric=system.sys_edge)
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
