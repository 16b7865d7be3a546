"""Tests for the sensitivity-sweep experiment module."""

import pytest

from repro.experiments import (
    format_sweep,
    sweep_comm_ratio,
    sweep_edge_density,
    sweep_problem_size,
)


class TestSweeps:
    def test_comm_ratio_monotone_random_column(self):
        """Heavier communication pushes random mapping further from the
        bound — the core calibration fact behind the workload defaults."""
        points = sweep_comm_ratio(rng=5, comm_highs=(2, 10), instances=2)
        assert points[0].random_pct_mean < points[1].random_pct_mean

    def test_density_pushes_everyone_up(self):
        points = sweep_edge_density(rng=5, densities=(0.25, 3.0), instances=2)
        assert points[0].ours_pct_mean < points[1].ours_pct_mean
        assert points[0].random_pct_mean < points[1].random_pct_mean

    def test_problem_size_hit_rate(self):
        points = sweep_problem_size(rng=5, task_counts=(40, 300), instances=3)
        # Small instances hit the bound at least as often as huge ones.
        assert points[0].hit_rate >= points[1].hit_rate

    def test_point_fields(self):
        (point,) = sweep_comm_ratio(rng=1, comm_highs=(5,), instances=1)
        assert point.knob == "comm_hi"
        assert point.value == 5
        assert point.instances == 2  # two default systems x 1 instance
        assert point.ours_pct_mean >= 100.0
        assert point.improvement_mean == pytest.approx(
            point.random_pct_mean - point.ours_pct_mean
        )

    def test_format(self):
        points = sweep_comm_ratio(rng=1, comm_highs=(2, 5), instances=1)
        text = format_sweep(points, "comm sweep")
        assert "comm sweep" in text
        assert "comm_hi" in text
        assert "improvement" in text
