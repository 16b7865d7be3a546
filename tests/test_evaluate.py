"""Unit tests for repro.core.evaluate (the Sec. 4.3.4 evaluator)."""

import numpy as np
import pytest

from repro.core import (
    Assignment,
    ClusteredGraph,
    Clustering,
    evaluate_assignment,
    ideal_schedule,
    total_time,
)
from repro.topology import chain, complete, ring
from tests.conftest import random_instance


class TestEvaluateAssignment:
    def test_diamond_on_chain(self, diamond_clustered):
        system = chain(4)
        sched = evaluate_assignment(diamond_clustered, system, Assignment.identity(4))
        # 0:[0,2); 1 starts 2+1*1=3 ends 6; 2 starts 2+2*2=6 ends 7;
        # 3 starts max(6+2*2, 7+1*1) = 10, ends 12.
        assert sched.start.tolist() == [0, 3, 6, 10]
        assert sched.end.tolist() == [2, 6, 7, 12]
        assert sched.total_time == 12

    def test_closure_matches_ideal(self, diamond_clustered):
        """Evaluating on the complete graph reproduces the ideal schedule."""
        ideal = ideal_schedule(diamond_clustered)
        sched = evaluate_assignment(
            diamond_clustered, complete(4), Assignment.identity(4)
        )
        assert np.array_equal(sched.start, ideal.i_start)
        assert np.array_equal(sched.end, ideal.i_end)
        assert sched.total_time == ideal.total_time

    def test_total_time_matches_schedule(self, medium_instance):
        clustered, system = medium_instance
        for seed in range(5):
            a = Assignment.random(system.num_nodes, rng=seed)
            assert (
                total_time(clustered, system, a)
                == evaluate_assignment(clustered, system, a).total_time
            )

    def test_never_below_lower_bound(self):
        """Theorem 3's premise: every assignment >= ideal makespan."""
        for seed in range(10):
            clustered, system = random_instance(seed)
            bound = ideal_schedule(clustered).total_time
            a = Assignment.random(system.num_nodes, rng=seed)
            assert total_time(clustered, system, a) >= bound

    def test_per_task_never_earlier_than_ideal(self, medium_instance):
        clustered, system = medium_instance
        ideal = ideal_schedule(clustered)
        sched = evaluate_assignment(
            clustered, system, Assignment.random(system.num_nodes, rng=0)
        )
        assert (sched.start >= ideal.i_start).all()
        assert (sched.end >= ideal.i_end).all()

    def test_precedence_respected(self, medium_instance):
        clustered, system = medium_instance
        sched = evaluate_assignment(
            clustered, system, Assignment.random(system.num_nodes, rng=1)
        )
        srcs, dsts, _ = clustered.graph.in_edge_arrays()
        assert (sched.start[dsts] >= sched.end[srcs] + sched.comm).all()

    def test_latest_tasks(self, diamond_clustered):
        sched = evaluate_assignment(
            diamond_clustered, chain(4), Assignment.identity(4)
        )
        assert sched.latest_tasks().tolist() == [3]

    def test_processor_of_and_tasks_on(self, diamond_graph):
        cg = ClusteredGraph(diamond_graph, Clustering([0, 0, 1, 1]))
        sched = evaluate_assignment(cg, chain(2), Assignment([1, 0]))
        # cluster 0 -> system 1, cluster 1 -> system 0.
        assert sched.processor_of(0) == 1
        assert sched.processor_of(3) == 0
        assert sorted(sched.tasks_on(1).tolist()) == [0, 1]
        assert sorted(sched.tasks_on(0).tolist()) == [2, 3]

    def test_processor_busy_time(self, diamond_graph):
        cg = ClusteredGraph(diamond_graph, Clustering([0, 0, 1, 1]))
        sched = evaluate_assignment(cg, chain(2), Assignment.identity(2))
        assert sched.processor_busy_time().tolist() == [5, 3]

    def test_communication_volume(self, diamond_clustered):
        sched = evaluate_assignment(
            diamond_clustered, complete(4), Assignment.identity(4)
        )
        assert sched.communication_volume() == diamond_clustered.graph.total_comm

    def test_isomorphic_placements_same_time(self, diamond_clustered):
        """Rotating a ring placement cannot change the makespan."""
        system = ring(4)
        base = Assignment.from_placement([0, 1, 2, 3])
        rotated = Assignment.from_placement([1, 2, 3, 0])
        assert total_time(diamond_clustered, system, base) == total_time(
            diamond_clustered, system, rotated
        )

    def test_arrays_read_only(self, diamond_clustered):
        sched = evaluate_assignment(
            diamond_clustered, chain(4), Assignment.identity(4)
        )
        with pytest.raises(ValueError):
            sched.start[0] = 1
        with pytest.raises(ValueError):
            sched.comm[0] = 1
