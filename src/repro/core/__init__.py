"""Core of the reproduction: graphs, criticality, and the mapping strategy.

Everything in this package follows the paper's Sec. 2-4 exactly; each
module's docstring names the section it implements and the
interpretation choices it makes where the text leaves them open.
"""

from .abstract import AbstractGraph
from .anytime import AnytimeReporter, FileReporter, active_reporter, use_reporter
from .assignment import Assignment, communication_matrix
from .clustered import ClusteredGraph, Clustering
from .critical import CriticalityAnalysis, analyze_criticality
from .evaluate import Schedule, evaluate_assignment, total_time
from .ideal import IdealSchedule, ideal_schedule, lower_bound
from .incremental import CardinalityDelta, CommVolumeDelta, DeltaEvaluator
from .listsched import ListSchedule, bottom_levels, list_schedule
from .initial import initial_assignment
from .mapper import CriticalEdgeMapper, MappingResult, map_graph
from .matrices import PaperMatrices, collect_matrices
from .multilevel import (
    MultilevelHierarchy,
    MultilevelResult,
    abstract_taskgraph,
    build_hierarchy,
    multilevel_map,
)
from .refine import (
    RefinementResult,
    critical_abstract_nodes,
    refine_pairwise,
    refine_random,
)
from .taskgraph import Edge, TaskGraph
from .validate import ScheduleViolation, verify_schedule, verify_times

__all__ = [
    "AbstractGraph",
    "AnytimeReporter",
    "Assignment",
    "FileReporter",
    "ClusteredGraph",
    "Clustering",
    "CardinalityDelta",
    "CommVolumeDelta",
    "CriticalEdgeMapper",
    "CriticalityAnalysis",
    "DeltaEvaluator",
    "Edge",
    "IdealSchedule",
    "ListSchedule",
    "MappingResult",
    "MultilevelHierarchy",
    "MultilevelResult",
    "PaperMatrices",
    "RefinementResult",
    "Schedule",
    "ScheduleViolation",
    "TaskGraph",
    "abstract_taskgraph",
    "active_reporter",
    "analyze_criticality",
    "bottom_levels",
    "build_hierarchy",
    "collect_matrices",
    "communication_matrix",
    "critical_abstract_nodes",
    "evaluate_assignment",
    "ideal_schedule",
    "initial_assignment",
    "list_schedule",
    "lower_bound",
    "map_graph",
    "multilevel_map",
    "refine_pairwise",
    "refine_random",
    "total_time",
    "use_reporter",
    "verify_schedule",
    "verify_times",
]
