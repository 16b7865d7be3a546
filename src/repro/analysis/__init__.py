"""Analysis and visualization: Gantt charts, tables, schedule metrics."""

from .gantt import render_gantt, render_ideal_gantt, render_sim_gantt
from .metrics import ScheduleMetrics, compute_metrics, format_metrics
from .report import mapping_report
from .tables import render_table

__all__ = [
    "ScheduleMetrics",
    "compute_metrics",
    "format_metrics",
    "mapping_report",
    "render_gantt",
    "render_ideal_gantt",
    "render_sim_gantt",
    "render_table",
]
