"""Experiments E4/E5: the Sec. 2.2 counterexamples, proved exhaustively.

The paper's argument (Figs. 7-17): optimizing an *indirect* measure —
Bokhari's cardinality or Lee & Aggarwal's phase communication cost —
can yield assignments that are strictly worse in total time than the
true optimum.  We reconstruct both instances and *prove* the phenomena
by enumerating all ``8! = 40320`` assignments:

* among assignments maximizing cardinality, the best total time is
  strictly larger than the global optimum (E4, Figs. 7-12);
* among assignments minimizing the Lee cost, the best total time is
  strictly larger than the global optimum (E5, Figs. 13-17).

Each objective is scored by its one implementation in
:mod:`repro.baselines`, all ``8!`` placements in one call.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..baselines.bokhari import cardinalities
from ..baselines.exhaustive import all_assignment_total_times, invert_permutations
from ..baselines.lee_aggarwal import LeeCost
from ..core.abstract import AbstractGraph
from ..core.clustered import ClusteredGraph
from ..core.ideal import lower_bound
from ..topology.base import SystemGraph
from ..workloads.paper_examples import (
    bokhari_counterexample_system,
    bokhari_counterexample_task_graph,
    lee_counterexample_phases,
    lee_counterexample_system,
    lee_counterexample_task_graph,
    singleton_clustering,
)

__all__ = [
    "CounterexampleReport",
    "run_bokhari_counterexample",
    "run_lee_counterexample",
    "format_counterexample",
]


@dataclass(frozen=True)
class CounterexampleReport:
    """Outcome of one exhaustive counterexample experiment.

    ``objective_name`` is the indirect measure; ``objective_best`` its
    optimum; ``time_at_objective_optimum`` the best *total time* among
    assignments attaining that optimum; ``global_best_time`` the true
    time optimum over all assignments.
    """

    name: str
    objective_name: str
    objective_best: int
    time_at_objective_optimum: int
    global_best_time: int
    lower_bound: int
    assignments_enumerated: int

    @property
    def phenomenon_holds(self) -> bool:
        """True iff the indirect-measure optimum is not time-optimal."""
        return self.time_at_objective_optimum > self.global_best_time

    @property
    def gap(self) -> int:
        """Extra time units paid by trusting the indirect measure."""
        return self.time_at_objective_optimum - self.global_best_time


def _certify(
    name: str,
    objective_name: str,
    clustered: ClusteredGraph,
    system: SystemGraph,
    score: Callable[[np.ndarray], np.ndarray],
    maximize: bool,
) -> CounterexampleReport:
    """Enumerate every assignment, score all of them with ``score`` (a
    ``(k, na)`` batch of placements -> objective values) and compare the
    objective's optimum with the time optimum."""
    perms, times = all_assignment_total_times(clustered, system)
    scores = score(invert_permutations(perms))
    best = int(scores.max() if maximize else scores.min())
    return CounterexampleReport(
        name=name,
        objective_name=objective_name,
        objective_best=best,
        time_at_objective_optimum=int(times[scores == best].min()),
        global_best_time=int(times.min()),
        lower_bound=lower_bound(clustered),
        assignments_enumerated=perms.shape[0],
    )


def run_bokhari_counterexample() -> CounterexampleReport:
    """E4: cardinality-optimal != time-optimal (paper Figs. 7-12)."""
    graph = bokhari_counterexample_task_graph()
    system = bokhari_counterexample_system()
    clustered = ClusteredGraph(graph, singleton_clustering(graph))
    abstract = AbstractGraph(clustered)
    return _certify(
        "Bokhari cardinality (Figs. 7-12)",
        "cardinality (maximize)",
        clustered,
        system,
        lambda placements: cardinalities(abstract, system, placements),
        maximize=True,
    )


def run_lee_counterexample() -> CounterexampleReport:
    """E5: comm-cost-optimal != time-optimal (paper Figs. 13-17)."""
    graph = lee_counterexample_task_graph()
    system = lee_counterexample_system()
    clustered = ClusteredGraph(graph, singleton_clustering(graph))
    objective = LeeCost(clustered, system, lee_counterexample_phases())
    return _certify(
        "Lee & Aggarwal communication cost (Figs. 13-17)",
        "phase communication cost (minimize)",
        clustered,
        system,
        objective.costs,
        maximize=False,
    )


def format_counterexample(report: CounterexampleReport) -> str:
    """Human-readable summary of one counterexample experiment."""
    verdict = "HOLDS" if report.phenomenon_holds else "does NOT hold"
    return "\n".join(
        [
            f"{report.name}",
            f"  indirect objective : {report.objective_name}, optimum = "
            f"{report.objective_best}",
            f"  best total time among objective-optimal assignments : "
            f"{report.time_at_objective_optimum}",
            f"  global best total time : {report.global_best_time} "
            f"(ideal lower bound {report.lower_bound})",
            f"  assignments enumerated : {report.assignments_enumerated}",
            f"  => indirect-optimal is {report.gap} time units slower; "
            f"phenomenon {verdict}",
        ]
    )
