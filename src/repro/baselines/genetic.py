"""Genetic-algorithm mapper — the other classic metaheuristic baseline.

Alongside simulated annealing (ref [3]), genetic algorithms were the
standard general-purpose attack on the mapping problem in the early-90s
literature.  This implementation uses the canonical permutation-GA
design:

* individuals are assignments (permutations cluster -> processor);
* fitness is the paper's objective, total time (lower is better);
* selection is tournament (size 3);
* crossover is *order crossover* (OX), the standard permutation-safe
  operator: a slice of parent A is kept in place, the remaining slots
  are filled with parent B's genes in B's order;
* mutation swaps two random genes;
* elitism keeps the best individual each generation;
* the paper's termination condition applies: reaching a supplied lower
  bound stops the search with a provably optimal mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.anytime import AnytimeReporter
from ..core.assignment import Assignment
from ..core.clustered import ClusteredGraph
from ..core.incremental import DeltaEvaluator
from ..topology.base import SystemGraph
from ..utils import as_rng

__all__ = ["GeneticResult", "genetic_mapping", "order_crossover"]


@dataclass(frozen=True)
class GeneticResult:
    """Outcome of a GA run."""

    assignment: Assignment
    total_time: int
    generations: int
    evaluations: int
    reached_lower_bound: bool


def order_crossover(
    parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Order crossover (OX) of two permutations.

    A random slice of ``parent_a`` is inherited in place; the remaining
    positions are filled with the genes missing from the slice, in the
    order they appear in ``parent_b``.  Always yields a permutation.
    """
    n = parent_a.size
    if n < 2:
        return parent_a.copy()
    lo, hi = np.sort(rng.choice(n + 1, size=2, replace=False))
    child = np.full(n, -1, dtype=np.int64)
    child[lo:hi] = parent_a[lo:hi]
    kept = set(parent_a[lo:hi].tolist())
    fill = [g for g in parent_b.tolist() if g not in kept]
    slots = [i for i in range(n) if not (lo <= i < hi)]
    for slot, gene in zip(slots, fill):
        child[slot] = gene
    return child


def genetic_mapping(
    clustered: ClusteredGraph,
    system: SystemGraph,
    rng: int | np.random.Generator | None = None,
    population: int = 30,
    generations: int = 40,
    crossover_rate: float = 0.9,
    mutation_rate: float = 0.2,
    tournament: int = 3,
    lower_bound: int | None = None,
    reporter: AnytimeReporter | None = None,
) -> GeneticResult:
    """Evolve assignments on the total-time objective.

    ``reporter`` (optional) gets one anytime checkpoint per generation
    and may stop the run between generations with the best-so-far.
    """
    if population < 2:
        raise ValueError("population must be >= 2")
    gen = as_rng(rng)
    n = system.num_nodes

    # Individuals change too much per generation to be reached by swaps;
    # the delta evaluator's full-evaluation path skips the O(V^2)
    # communication matrix on every fitness call.
    evaluator = DeltaEvaluator(clustered, system, Assignment.identity(n))
    pop = [gen.permutation(n) for _ in range(population)]
    fitness = np.array(
        [evaluator.evaluate(Assignment(p)) for p in pop], dtype=np.int64
    )
    evaluations = population
    best_idx = int(fitness.argmin())
    best, best_time = pop[best_idx].copy(), int(fitness[best_idx])

    def done() -> bool:
        return lower_bound is not None and best_time <= lower_bound

    g = 0
    while g < generations and not done() and n >= 2:
        g += 1
        next_pop = [best.copy()]  # elitism
        while len(next_pop) < population:
            contenders = gen.choice(population, size=tournament, replace=False)
            pa = pop[int(contenders[np.argmin(fitness[contenders])])]
            contenders = gen.choice(population, size=tournament, replace=False)
            pb = pop[int(contenders[np.argmin(fitness[contenders])])]
            child = (
                order_crossover(pa, pb, gen)
                if gen.random() < crossover_rate
                else pa.copy()
            )
            if gen.random() < mutation_rate:
                i, j = gen.choice(n, size=2, replace=False)
                child[i], child[j] = child[j], child[i]
            next_pop.append(child)
        pop = next_pop
        fitness = np.array(
            [evaluator.evaluate(Assignment(p)) for p in pop],
            dtype=np.int64,
        )
        evaluations += population
        idx = int(fitness.argmin())
        if fitness[idx] < best_time:
            best, best_time = pop[idx].copy(), int(fitness[idx])
        if reporter is not None:
            reporter.report(g, best_time, Assignment(best.copy()))
            if reporter.should_stop():
                break

    return GeneticResult(
        assignment=Assignment(best),
        total_time=best_time,
        generations=g,
        evaluations=evaluations,
        reached_lower_bound=lower_bound is not None and best_time <= lower_bound,
    )
