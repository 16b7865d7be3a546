"""Swap-sequence equivalence of the incremental evaluator.

:class:`~repro.core.DeltaEvaluator` against the scalar oracle
(:func:`~repro.core.evaluate.evaluate_assignment`) on committed swaps.
"""

import numpy as np
import pytest

from repro.core import Assignment, DeltaEvaluator, evaluate_assignment
from tests.conftest import random_instance


def _oracle_time(clustered, system, assignment) -> int:
    return evaluate_assignment(clustered, system, assignment).total_time


class TestIncrementalEvaluator:
    def test_initial_state_matches_full_eval(self):
        for seed in range(5):
            clustered, system = random_instance(seed)
            a = Assignment.random(system.num_nodes, rng=seed)
            inc = DeltaEvaluator(clustered, system, a)
            full = evaluate_assignment(clustered, system, a)
            assert inc.total_time == full.total_time
            assert np.array_equal(inc.end_times(), full.end)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_swap_sequences_equivalent(self, seed):
        """The core guarantee: any swap sequence stays exact."""
        clustered, system = random_instance(seed)
        gen = np.random.default_rng(seed)
        shadow = Assignment.random(system.num_nodes, rng=seed)
        inc = DeltaEvaluator(clustered, system, shadow)
        for _ in range(25):
            x, y = (int(v) for v in gen.choice(system.num_nodes, size=2, replace=False))
            shadow = shadow.swapped(x, y)
            assert inc.swap(x, y) == _oracle_time(clustered, system, shadow)
            assert inc.verify(), "incremental end times diverged"

    def test_swap_self_noop(self):
        clustered, system = random_instance(0)
        inc = DeltaEvaluator(
            clustered, system, Assignment.random(system.num_nodes, rng=0)
        )
        before = inc.total_time
        assert inc.swap(3, 3) == before

    def test_swap_is_involution(self):
        clustered, system = random_instance(1)
        inc = DeltaEvaluator(
            clustered, system, Assignment.random(system.num_nodes, rng=1)
        )
        before = inc.total_time
        ends = inc.end_times()
        inc.swap(0, 5)
        inc.swap(0, 5)
        assert inc.total_time == before
        assert np.array_equal(inc.end_times(), ends)

    def test_probe_does_not_commit(self):
        clustered, system = random_instance(2)
        a = Assignment.random(system.num_nodes, rng=2)
        inc = DeltaEvaluator(clustered, system, a)
        before = inc.total_time
        ends = inc.end_times()
        probed = inc.probe_swap(1, 4)
        assert probed == _oracle_time(clustered, system, a.swapped(1, 4))
        assert inc.total_time == before
        assert np.array_equal(inc.end_times(), ends)
        assert inc.assignment == a

    def test_assignment_property_tracks_swaps(self):
        clustered, system = random_instance(3)
        a = Assignment.random(system.num_nodes, rng=3)
        inc = DeltaEvaluator(clustered, system, a)
        inc.swap(2, 6)
        assert inc.assignment == a.swapped(2, 6)
