"""Baseline mappers: random, Bokhari, Lee & Aggarwal, annealing, genetic,
tabu, and the exhaustive test oracle."""

from .annealing import AnnealResult, anneal_mapping
from .bokhari import BokhariResult, bokhari_mapping, cardinalities, cardinality
from .exhaustive import (
    ExhaustiveResult,
    all_assignment_total_times,
    enumerate_assignments,
    exhaustive_optimum,
)
from .genetic import GeneticResult, genetic_mapping, order_crossover
from .lee_aggarwal import (
    LeeCost,
    LeeResult,
    communication_cost,
    lee_mapping,
    phases_by_level,
)
from .random_map import RandomMappingStats, average_random_mapping, random_mapping
from .tabu import TabuResult, tabu_mapping

__all__ = [
    "AnnealResult",
    "BokhariResult",
    "ExhaustiveResult",
    "GeneticResult",
    "LeeCost",
    "LeeResult",
    "RandomMappingStats",
    "TabuResult",
    "all_assignment_total_times",
    "anneal_mapping",
    "average_random_mapping",
    "bokhari_mapping",
    "cardinalities",
    "cardinality",
    "communication_cost",
    "enumerate_assignments",
    "exhaustive_optimum",
    "genetic_mapping",
    "lee_mapping",
    "order_crossover",
    "phases_by_level",
    "random_mapping",
    "tabu_mapping",
]
