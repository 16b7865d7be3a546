"""Unit tests for repro.analysis.metrics."""

import numpy as np
import pytest

from repro.analysis import compute_metrics, format_metrics
from repro.core import (
    Assignment,
    ClusteredGraph,
    Clustering,
    TaskGraph,
    evaluate_assignment,
)
from repro.topology import SystemGraph, chain, complete
from tests.conftest import chain4_one_task_per_cluster, random_instance, weighted_ring4


def _schedule(clustered, system, seed=0):
    return evaluate_assignment(
        clustered, system, Assignment.random(system.num_nodes, rng=seed)
    )


class TestMetrics:
    def test_hand_checked_values(self, diamond_clustered):
        schedule = evaluate_assignment(
            diamond_clustered, complete(4), Assignment.identity(4)
        )
        m = compute_metrics(schedule)
        assert m.makespan == 10
        assert m.total_work == 8
        assert m.speedup == pytest.approx(0.8)
        assert m.efficiency == pytest.approx(0.2)
        assert m.comm_volume == 6  # all edges at distance 1
        assert m.stretched_edges == 0

    def test_stretched_edges_counted(self, diamond_clustered):
        schedule = evaluate_assignment(
            diamond_clustered, chain(4), Assignment.identity(4)
        )
        m = compute_metrics(schedule)
        # (0,2) and (1,3) span two hops on the chain under identity.
        assert m.stretched_edges == 2
        assert m.comm_volume > diamond_clustered.graph.total_comm

    def test_stretched_edges_count_hops_not_cost(self):
        # Regression: on a machine whose 0-1 link costs 3, the message on
        # that link crosses one link but used to count as stretched.
        schedule = evaluate_assignment(
            chain4_one_task_per_cluster(), weighted_ring4(), Assignment.identity(4)
        )
        assert schedule.comm.tolist() == [3, 1, 1]  # edges 0->1, 1->2, 2->3
        assert compute_metrics(schedule).stretched_edges == 0

    def test_single_processor_degenerate(self):
        g = TaskGraph([4, 4])
        cg = ClusteredGraph(g, Clustering([0, 0]))
        system = SystemGraph(np.zeros((1, 1), dtype=int))
        m = compute_metrics(evaluate_assignment(cg, system, Assignment.identity(1)))
        # The paper's model overlaps independent same-cluster tasks.
        assert m.makespan == 4
        assert m.speedup == pytest.approx(2.0)
        assert m.load_imbalance == pytest.approx(0.0)
        assert m.comm_volume == 0

    def test_utilization_bounds(self):
        for seed in range(5):
            clustered, system = random_instance(seed)
            m = compute_metrics(_schedule(clustered, system, seed))
            assert 0.0 < m.avg_utilization <= clustered.num_tasks
            assert m.load_imbalance >= 0.0
            assert m.comm_to_comp >= 0.0

    def test_format(self, diamond_clustered):
        schedule = evaluate_assignment(
            diamond_clustered, complete(4), Assignment.identity(4)
        )
        text = format_metrics(compute_metrics(schedule))
        assert "makespan          : 10" in text
        assert "speedup" in text

    def test_format_notes_shares_over_100_percent(self, diamond_clustered):
        """The paper's model overlaps the tasks on a processor, so busy
        time can exceed the makespan; the report says so."""
        g = TaskGraph([4, 4])
        cg = ClusteredGraph(g, Clustering([0, 0]))
        system = SystemGraph(np.zeros((1, 1), dtype=int))
        over = compute_metrics(evaluate_assignment(cg, system, Assignment.identity(1)))
        lines = format_metrics(over).splitlines()
        note = " (over 100%: tasks on a processor overlap)"
        assert f"efficiency        : 200.00%{note}" in lines
        assert f"avg utilization   : 200.00%{note}" in lines

        under = compute_metrics(
            evaluate_assignment(diamond_clustered, complete(4), Assignment.identity(4))
        )
        lines = format_metrics(under).splitlines()
        assert "efficiency        : 20.00%" in lines
        assert "avg utilization   : 20.00%" in lines

    def test_format_appends_extra_metric_lines(self, diamond_clustered):
        """Regression: requested registry metrics used to be dropped from
        the report; they must appear as aligned lines after the built-ins."""
        schedule = evaluate_assignment(
            diamond_clustered, complete(4), Assignment.identity(4)
        )
        m = compute_metrics(schedule)
        text = format_metrics(m, extra={"sim_makespan": 12.0, "hop_bytes": 6.0})
        lines = text.splitlines()
        assert lines[-2] == "hop_bytes         : 6"
        assert lines[-1] == "sim_makespan      : 12"
        assert format_metrics(m, extra={}) == format_metrics(m)
