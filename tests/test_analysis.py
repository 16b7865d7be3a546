"""Unit tests for the repro.analysis package (gantt charts, tables)."""

from repro.analysis import (
    render_gantt,
    render_ideal_gantt,
    render_table,
)
from repro.core import Assignment, evaluate_assignment, ideal_schedule
from repro.workloads import (
    running_example_assignment_vector,
    running_example_clustered,
    running_example_system,
)


class TestTables:
    def test_render_table_alignment(self):
        text = render_table(["name", "value"], [("a", 1), ("bb", 22)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_float_formatting(self):
        text = render_table(["x"], [(1.2345,)])
        assert "1.2" in text


class TestGantt:
    def test_ideal_gantt_matches_fig6(self):
        ideal = ideal_schedule(running_example_clustered())
        text = render_ideal_gantt(ideal)
        assert "total time = 14" in text
        lines = text.splitlines()
        assert lines[0].startswith("time |")
        # Task 1 occupies cluster column C0 at time 0.
        assert "[1]" in lines[2]

    def test_assignment_gantt(self):
        clustered = running_example_clustered()
        schedule = evaluate_assignment(
            clustered,
            running_example_system(),
            Assignment(running_example_assignment_vector()),
        )
        text = render_gantt(schedule)
        assert "total time = 14" in text
        assert "P0" in text and "P3" in text

    def test_truncation(self):
        clustered = running_example_clustered()
        schedule = evaluate_assignment(
            clustered,
            running_example_system(),
            Assignment(running_example_assignment_vector()),
        )
        text = render_gantt(schedule, max_rows=5)
        assert "more time units" in text

    def test_overlap_rendering(self):
        """Two overlapping tasks on one processor are stacked with '/'."""
        from repro.core import ClusteredGraph, Clustering, TaskGraph

        g = TaskGraph([3, 3])
        cg = ClusteredGraph(g, Clustering([0, 0]))
        import numpy as np

        from repro.topology import SystemGraph

        system = SystemGraph(np.zeros((1, 1), dtype=int))
        schedule = evaluate_assignment(cg, system, Assignment.identity(1))
        text = render_gantt(schedule)
        assert "[1]/[2]" in text


class TestSimGantt:
    def test_serialized_run_shows_no_overlap(self):
        """The sim-trace gantt of a serialized run never stacks tasks."""
        import numpy as np

        from repro.analysis import render_sim_gantt
        from repro.core import ClusteredGraph, Clustering, TaskGraph
        from repro.sim import SimConfig, simulate
        from repro.topology import SystemGraph

        g = TaskGraph([3, 3])
        cg = ClusteredGraph(g, Clustering([0, 0]))
        system = SystemGraph(np.zeros((1, 1), dtype=int))
        sim = simulate(
            cg, system, Assignment.identity(1),
            SimConfig(serialize_processors=True),
        )
        text = render_sim_gantt(sim, num_processors=1)
        assert "/" not in text.replace("-+-", "")  # no stacked cells
        assert "total time = 6" in text

    def test_matches_analytic_gantt_in_paper_mode(self):
        from repro.analysis import render_sim_gantt
        from repro.sim import simulate
        from repro.workloads import (
            running_example_assignment_vector,
            running_example_clustered,
            running_example_system,
        )

        clustered = running_example_clustered()
        system = running_example_system()
        a = Assignment(running_example_assignment_vector())
        sim = simulate(clustered, system, a)
        text = render_sim_gantt(sim, num_processors=system.num_nodes)
        assert "total time = 14" in text
