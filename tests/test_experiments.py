"""Tests for the worked example (experiment E6, Figs. 2-6 and 18-24)."""

from repro.experiments import format_worked_example, run_worked_example


class TestWorkedExample:
    def test_all_milestones(self):
        report = run_worked_example()
        assert report.ideal_matches_fig22
        assert report.lower_bound_is_14
        assert report.reached_lower_bound
        assert report.refinement_trials == 0
        assert report.all_milestones_pass

    def test_format(self):
        text = format_worked_example(run_worked_example())
        assert "ALL MILESTONES PASS             : True" in text
        assert "total time = 14" in text
