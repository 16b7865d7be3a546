"""Schedule quality metrics beyond the paper's single total-time number.

The paper reports only the makespan ratio; downstream users of a mapping
library want the standard parallel-performance vocabulary too.  All
metrics are derived from a :class:`~repro.core.evaluate.Schedule` (the
paper's model) and are exact under it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..core.evaluate import Schedule

__all__ = ["ScheduleMetrics", "compute_metrics", "format_metrics"]


@dataclass(frozen=True)
class ScheduleMetrics:
    """Standard parallel metrics for one mapped schedule.

    Attributes
    ----------
    makespan:
        Total time (the paper's objective).
    total_work:
        Sum of task sizes (serial time with zero communication).
    speedup:
        ``total_work / makespan`` — how much faster than one processor
        executing the bare work.
    efficiency:
        ``speedup / processors``.
    avg_utilization:
        Mean busy fraction across processors.

        Neither is bounded by 1.  The paper's model does not serialize
        the tasks on a processor (the simulator does only under
        ``serialize_processors``), so a processor's busy time, the sum
        of its task sizes, can exceed the makespan: a default
        2,000-task map on ``hypercube:8`` reports about 550%.
    load_imbalance:
        ``max(busy) / mean(busy) - 1`` (0 = perfectly balanced).
    comm_volume:
        Hop-weighted communication (sum of the per-edge ``comm`` costs).
    comm_to_comp:
        ``comm_volume / total_work``.
    stretched_edges:
        Number of inter-cluster problem edges whose message crossed more
        than one system link (route hops, not weighted cost).
    """

    makespan: int
    total_work: int
    speedup: float
    efficiency: float
    avg_utilization: float
    load_imbalance: float
    comm_volume: int
    comm_to_comp: float
    stretched_edges: int


def compute_metrics(schedule: Schedule) -> ScheduleMetrics:
    """Derive all metrics from one schedule."""
    clustered = schedule.clustered
    total_work = int(clustered.task_sizes.sum())
    processors = schedule.system.num_nodes
    busy = schedule.processor_busy_time().astype(np.float64)
    makespan = schedule.total_time

    speedup = total_work / makespan if makespan else 0.0
    volume = schedule.communication_volume()
    mean_busy = busy.mean() if busy.size else 0.0
    imbalance = (busy.max() / mean_busy - 1.0) if mean_busy > 0 else 0.0

    host = schedule.assignment.placement[clustered.clustering.labels]
    srcs, dsts, _ = clustered.graph.edge_arrays()
    stretched = int((schedule.system.route_hops[host[srcs], host[dsts]] > 1).sum())

    return ScheduleMetrics(
        makespan=makespan,
        total_work=total_work,
        speedup=speedup,
        efficiency=speedup / processors if processors else 0.0,
        avg_utilization=float(busy.sum() / (processors * makespan))
        if makespan
        else 0.0,
        load_imbalance=float(imbalance),
        comm_volume=volume,
        comm_to_comp=volume / total_work if total_work else 0.0,
        stretched_edges=stretched,
    )


def _share(value: float) -> str:
    """A percentage, with a note when overlapping tasks take it past 100%."""
    note = " (over 100%: tasks on a processor overlap)" if value > 1.0 else ""
    return f"{value:.2%}{note}"


def format_metrics(
    metrics: ScheduleMetrics, extra: Mapping[str, float] | None = None
) -> str:
    """One-fact-per-line report.

    ``extra`` appends registry metrics (``repro.metrics``) to the report,
    one aligned line per key.  Earlier versions silently dropped them,
    so ``mimdmap map --metrics ...`` printed nothing for the very values
    it was asked to compute.
    """
    lines = [
        f"makespan          : {metrics.makespan}",
        f"total work        : {metrics.total_work}",
        f"speedup           : {metrics.speedup:.2f}",
        f"efficiency        : {_share(metrics.efficiency)}",
        f"avg utilization   : {_share(metrics.avg_utilization)}",
        f"load imbalance    : {metrics.load_imbalance:.2%}",
        f"comm volume (hops): {metrics.comm_volume}",
        f"comm / comp       : {metrics.comm_to_comp:.2f}",
        f"stretched edges   : {metrics.stretched_edges}",
    ]
    for key in sorted(extra or {}):
        lines.append(f"{key:<18}: {float(extra[key]):g}")
    return "\n".join(lines)
