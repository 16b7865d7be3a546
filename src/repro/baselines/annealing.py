"""Simulated annealing and quenching on total time (refs [3], [14]).

The paper cites Kirkpatrick et al. [3] and its own group's comparison of
quenching vs. slow annealing for the mapping problem [14].  This module
provides both as strong general-purpose baselines for ablation A5:

* :func:`anneal_mapping` — classic simulated annealing over the space of
  assignments with pairwise-swap moves, geometric cooling, and Metropolis
  acceptance on the total-time objective.
* ``quench=True`` — zero-temperature variant (only improving moves are
  accepted), i.e. randomized hill climbing.

Both honour the paper's termination condition: hitting a supplied lower
bound stops the search immediately with a provably optimal mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.anytime import AnytimeReporter
from ..core.assignment import Assignment
from ..core.clustered import ClusteredGraph
from ..core.incremental import DeltaEvaluator
from ..topology.base import SystemGraph
from ..utils import as_rng

__all__ = ["AnnealResult", "anneal_mapping"]


@dataclass(frozen=True)
class AnnealResult:
    """Outcome of an annealing run."""

    assignment: Assignment
    total_time: int
    evaluations: int
    reached_lower_bound: bool


def anneal_mapping(
    clustered: ClusteredGraph,
    system: SystemGraph,
    rng: int | np.random.Generator | None = None,
    initial: Assignment | None = None,
    lower_bound: int | None = None,
    initial_temperature: float | None = None,
    cooling: float = 0.95,
    moves_per_temperature: int | None = None,
    min_temperature: float = 0.1,
    quench: bool = False,
    reporter: AnytimeReporter | None = None,
) -> AnnealResult:
    """Anneal the assignment on the total-time objective.

    Parameters
    ----------
    initial:
        Starting assignment (random if omitted).
    lower_bound:
        Optional ideal-graph bound for early termination (Theorem 3).
    initial_temperature:
        Defaults to the initial total time / 10 — large enough to accept
        most early uphill moves on integer-time instances.
    cooling:
        Geometric cooling factor per temperature level.
    moves_per_temperature:
        Defaults to ``2 * ns`` swap proposals per level.
    quench:
        When True, temperature is ignored and only improvements are
        accepted (the "quenching" of ref [14]).
    reporter:
        Optional anytime hook: a checkpoint every eighth of a
        temperature level (reporting touches no randomness, so the
        proposal sequence is unchanged), and a graceful best-so-far
        return when it asks to stop.  The fine cadence keeps the stop
        reaction — and a racing controller's kill ordinals — cheap
        relative to a level.  A run that is never stopped is
        bit-identical to one without a reporter.
    """
    gen = as_rng(rng)
    n = system.num_nodes
    current = initial if initial is not None else Assignment.random(n, rng=gen)
    # The inner loop runs on the delta evaluator: probe the candidate swap
    # with one vectorized level sweep and commit only on acceptance — no
    # O(V^2) communication matrix per proposal.
    evaluator = DeltaEvaluator(clustered, system, current)
    current_time = evaluator.total_time
    best, best_time = current, current_time
    evaluations = 1

    if lower_bound is not None and best_time <= lower_bound:
        return AnnealResult(best, best_time, evaluations, True)
    if n < 2:
        return AnnealResult(best, best_time, evaluations, False)

    temp = (
        initial_temperature
        if initial_temperature is not None
        else max(1.0, current_time / 10.0)
    )
    moves = moves_per_temperature if moves_per_temperature is not None else 2 * n

    report_every = max(1, moves // 8)
    stopped = False
    while temp > min_temperature and not stopped:
        accepted_any = False
        for step in range(moves):
            a, b = gen.choice(n, size=2, replace=False)
            t = evaluator.probe_swap(int(a), int(b))
            evaluations += 1
            delta = t - current_time
            accept = delta <= 0 if quench else (
                delta <= 0 or gen.random() < math.exp(-delta / temp)
            )
            if accept:
                evaluator.swap(int(a), int(b))
                current_time = t
                accepted_any = True
                if current_time < best_time:
                    best, best_time = evaluator.assignment, current_time
                    if lower_bound is not None and best_time <= lower_bound:
                        return AnnealResult(best, best_time, evaluations, True)
            if reporter is not None and (step + 1) % report_every == 0:
                reporter.report(evaluations, best_time, best)
                if reporter.should_stop():
                    stopped = True
                    break
        temp *= cooling
        if quench and not accepted_any:
            break  # local optimum; cooling is irrelevant without temperature
    return AnnealResult(
        best,
        best_time,
        evaluations,
        lower_bound is not None and best_time <= lower_bound,
    )
