"""Tests for the independent schedule validator."""

import numpy as np
import pytest

from repro.core import (
    Assignment,
    ClusteredGraph,
    Clustering,
    ScheduleViolation,
    TaskGraph,
    evaluate_assignment,
    verify_schedule,
    verify_times,
)
from repro.sim import SimConfig, simulate
from repro.topology import chain
from tests.conftest import random_instance


class TestVerifySchedule:
    def test_evaluator_output_always_valid(self):
        for seed in range(8):
            clustered, system = random_instance(seed)
            schedule = evaluate_assignment(
                clustered, system, Assignment.random(system.num_nodes, rng=seed)
            )
            verify_schedule(schedule)  # must not raise

    def test_simulator_paper_mode_valid(self):
        clustered, system = random_instance(1)
        a = Assignment.random(system.num_nodes, rng=1)
        sim = simulate(clustered, system, a)
        verify_times(clustered, system, a, sim.start, sim.end)

    def test_serialized_simulator_valid_without_asap(self):
        """Serialized runs insert queueing delay: legal, but not ASAP."""
        clustered, system = random_instance(2)
        a = Assignment.random(system.num_nodes, rng=2)
        sim = simulate(clustered, system, a, SimConfig(serialize_processors=True))
        verify_times(
            clustered, system, a, sim.start, sim.end, require_asap=False
        )

    def test_detects_short_duration(self, diamond_clustered, ring4):
        a = Assignment.identity(4)
        schedule = evaluate_assignment(diamond_clustered, ring4, a)
        end = schedule.end.copy()
        end[0] -= 1
        with pytest.raises(ScheduleViolation, match="runs for"):
            verify_times(diamond_clustered, ring4, a, schedule.start, end)

    def test_detects_precedence_violation(self, diamond_clustered):
        system = chain(4)
        a = Assignment.identity(4)
        schedule = evaluate_assignment(diamond_clustered, system, a)
        start = schedule.start.copy()
        end = schedule.end.copy()
        start[3] = 0  # task 3 starts before its inputs
        end[3] = start[3] + diamond_clustered.task_sizes[3]
        with pytest.raises(ScheduleViolation, match="before its input"):
            verify_times(diamond_clustered, system, a, start, end)

    def test_detects_negative_start(self, diamond_clustered, ring4):
        a = Assignment.identity(4)
        schedule = evaluate_assignment(diamond_clustered, ring4, a)
        start = schedule.start.copy()
        end = schedule.end.copy()
        start[0] -= 1
        end[0] -= 1
        with pytest.raises(ScheduleViolation, match="before time 0"):
            verify_times(diamond_clustered, ring4, a, start, end)

    def test_detects_idle_entry_under_asap(self):
        g = TaskGraph([2, 2], [(0, 1, 1)])
        cg = ClusteredGraph(g, Clustering([0, 1]))
        system = chain(2)
        a = Assignment.identity(2)
        start = np.asarray([5, 8])
        end = np.asarray([7, 10])
        with pytest.raises(ScheduleViolation, match="idles"):
            verify_times(cg, system, a, start, end)
        # But it is a legal (non-ASAP) schedule.
        verify_times(cg, system, a, start, end, require_asap=False)

    def test_detects_late_start_under_asap(self):
        g = TaskGraph([2, 2], [(0, 1, 1)])
        cg = ClusteredGraph(g, Clustering([0, 1]))
        system = chain(2)
        a = Assignment.identity(2)
        start = np.asarray([0, 5])  # input complete at 3
        end = np.asarray([2, 7])
        with pytest.raises(ScheduleViolation, match="as-soon-as-possible"):
            verify_times(cg, system, a, start, end)

    def test_detects_wrong_shape(self, diamond_clustered, ring4):
        with pytest.raises(ScheduleViolation, match="shape"):
            verify_times(
                diamond_clustered, ring4, Assignment.identity(4),
                np.zeros(3), np.zeros(3),
            )
