"""Unit tests for the metaheuristic baselines (genetic, tabu)."""

from collections import Counter

import numpy as np
import pytest

from repro.baselines import (
    genetic_mapping,
    order_crossover,
    tabu_mapping,
)
from repro.core import Assignment, lower_bound, total_time
from repro.topology import chain, hypercube, mesh2d, ring, star
from repro.utils import MappingError
from tests.conftest import oracle_tabu_mapping, random_instance


class _ListReporter:
    """In-memory anytime reporter: records checkpoints, stops on demand."""

    def __init__(self, stop_after=None):
        self.checkpoints = []
        self.stop_after = stop_after

    def report(self, iteration, best_metric, best_assignment):
        self.checkpoints.append((iteration, best_metric, best_assignment))

    def should_stop(self):
        return self.stop_after is not None and len(self.checkpoints) >= self.stop_after


class TestOrderCrossover:
    @pytest.mark.parametrize("seed", range(10))
    def test_always_permutation(self, seed):
        gen = np.random.default_rng(seed)
        a = gen.permutation(8)
        b = gen.permutation(8)
        child = order_crossover(a, b, gen)
        assert sorted(child.tolist()) == list(range(8))

    def test_inherits_slice_from_first_parent(self):
        gen = np.random.default_rng(0)
        a = np.arange(10)
        b = np.arange(10)[::-1].copy()
        child = order_crossover(a, b, gen)
        # Wherever the kept slice is, those positions match parent A.
        matches = child == a
        assert matches.any()

    def test_identical_parents_identity(self):
        gen = np.random.default_rng(1)
        a = np.asarray([3, 1, 0, 2])
        child = order_crossover(a, a.copy(), gen)
        assert child.tolist() == a.tolist()

    def test_single_gene(self):
        gen = np.random.default_rng(2)
        child = order_crossover(np.asarray([0]), np.asarray([0]), gen)
        assert child.tolist() == [0]


class TestGenetic:
    def test_result_consistent(self):
        clustered, system = random_instance(0)
        result = genetic_mapping(clustered, system, rng=0, generations=10)
        assert result.total_time == total_time(
            clustered, system, result.assignment
        )
        assert result.total_time >= lower_bound(clustered)
        assert result.evaluations > 0

    def test_early_termination_at_bound(self):
        from repro.workloads import running_example_clustered, running_example_system

        clustered = running_example_clustered()
        system = running_example_system()
        bound = lower_bound(clustered)
        result = genetic_mapping(
            clustered, system, rng=0, lower_bound=bound, generations=200
        )
        assert result.reached_lower_bound
        assert result.total_time == bound

    def test_beats_single_random_usually(self):
        wins = 0
        for seed in range(5):
            clustered, system = random_instance(seed)
            ga = genetic_mapping(clustered, system, rng=seed, generations=15)
            rand_time = total_time(
                clustered, system, Assignment.random(system.num_nodes, rng=seed)
            )
            wins += ga.total_time <= rand_time
        assert wins >= 4

    def test_deterministic_by_seed(self):
        clustered, system = random_instance(1)
        a = genetic_mapping(clustered, system, rng=5, generations=5)
        b = genetic_mapping(clustered, system, rng=5, generations=5)
        assert a.total_time == b.total_time

    def test_bad_population(self):
        """Used to raise a bare ValueError."""
        clustered, system = random_instance(0)
        with pytest.raises(MappingError, match="population must be >= 2, got 1"):
            genetic_mapping(clustered, system, population=1)

    @pytest.mark.parametrize("tournament", [40, 0])
    def test_bad_tournament_raises_mapping_error(self, tournament):
        """Used to fail inside numpy: "Cannot take a larger sample than
        population" (40 of 30) and "argmin of an empty sequence" (0)."""
        clustered, system = random_instance(0, num_tasks=60)
        message = rf"tournament must be in 1..population \(30\), got {tournament}"
        with pytest.raises(MappingError, match=message):
            genetic_mapping(clustered, system, rng=0, generations=2, tournament=tournament)

    def test_tournament_of_the_whole_population_is_allowed(self):
        clustered, system = random_instance(0)
        result = genetic_mapping(
            clustered, system, rng=0, population=4, tournament=4, generations=3
        )
        assert result.total_time == total_time(clustered, system, result.assignment)

    @pytest.mark.parametrize("seed", range(3))
    def test_checkpoints_are_exact_and_every_individual_counts(self, seed):
        """Each generation is scored in one batch: every checkpoint's
        best time is its assignment's total time, and each individual of
        each generation counts as one evaluation."""
        clustered, system = random_instance(seed, num_tasks=48)
        reporter = _ListReporter()
        result = genetic_mapping(
            clustered, system, rng=seed, population=7, generations=6,
            reporter=reporter,
        )
        assert result.evaluations == 7 * (1 + result.generations)
        for _, best_time, best in reporter.checkpoints:
            assert total_time(clustered, system, best) == best_time


#: scan event -> (system, tenure): instances whose scans exercise it.
TABU_CASES = {
    "reset": (chain(3), 10),
    "tie": (ring(4), None),
    "tie-star": (star(5), 10),
    "aspiration": (hypercube(3), 10),
    "aspiration-default-tenure": (hypercube(3), None),
    "plain": (mesh2d(2, 3), None),
}


class TestTabuMatchesTheScalarScan:
    """The batched neighbourhood against the per-pair scan kept in
    ``tests/conftest.py``: same assignment, result, evaluations and
    anytime checkpoints, including makespan ties (first minimum wins),
    aspiration, and the reset when everything is tabu."""

    @pytest.mark.parametrize("case", sorted(TABU_CASES))
    def test_same_result_evaluations_and_checkpoints(self, case):
        system, tenure = TABU_CASES[case]
        events = Counter()
        for seed in range(4):
            clustered, system = random_instance(
                seed, num_tasks=5 * system.num_nodes, system=system
            )
            bound = lower_bound(clustered)
            want_rep, got_rep = _ListReporter(), _ListReporter()
            want, seen = oracle_tabu_mapping(
                clustered, system, rng=seed, iterations=12, tenure=tenure,
                lower_bound=bound, reporter=want_rep,
            )
            got = tabu_mapping(
                clustered, system, rng=seed, iterations=12, tenure=tenure,
                lower_bound=bound, reporter=got_rep,
            )
            assert got == want, (case, seed)
            assert got_rep.checkpoints == want_rep.checkpoints
            events.update(seen)
        event = case.split("-")[0]
        if event != "plain":
            assert events[event] > 0, f"no {event} in the {case} scans"

    def test_stop_request_ends_both_at_the_same_iteration(self):
        clustered, system = random_instance(5, num_tasks=40)
        want, _ = oracle_tabu_mapping(
            clustered, system, rng=5, reporter=_ListReporter(stop_after=3)
        )
        got = tabu_mapping(clustered, system, rng=5, reporter=_ListReporter(stop_after=3))
        assert got == want
        assert got.iterations == 3


class TestTabu:
    def test_result_consistent(self):
        clustered, system = random_instance(0)
        result = tabu_mapping(clustered, system, rng=0, iterations=10)
        assert result.total_time == total_time(
            clustered, system, result.assignment
        )
        assert result.total_time >= lower_bound(clustered)

    def test_never_worse_than_initial(self):
        clustered, system = random_instance(1)
        start = Assignment.random(system.num_nodes, rng=9)
        start_time = total_time(clustered, system, start)
        result = tabu_mapping(
            clustered, system, rng=1, initial=start, iterations=15
        )
        assert result.total_time <= start_time

    def test_early_termination_at_bound(self):
        from repro.workloads import running_example_clustered, running_example_system

        clustered = running_example_clustered()
        system = running_example_system()
        bound = lower_bound(clustered)
        result = tabu_mapping(clustered, system, rng=0, lower_bound=bound)
        assert result.reached_lower_bound

    def test_escapes_local_optimum(self):
        """Tabu memory must allow uphill moves: final best over a long run
        is at least as good as a pure greedy (quench) from the same start."""
        from repro.baselines import anneal_mapping

        clustered, system = random_instance(2)
        start = Assignment.random(system.num_nodes, rng=3)
        greedy = anneal_mapping(
            clustered, system, rng=3, initial=start, quench=True
        )
        tabu = tabu_mapping(
            clustered, system, rng=3, initial=start, iterations=40
        )
        assert tabu.total_time <= greedy.total_time + 2
