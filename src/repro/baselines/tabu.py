"""Tabu-search mapper: best-improvement swaps with a recency memory.

The third classic metaheuristic of the mapping literature.  Each
iteration examines every cluster-pair swap of the current assignment,
takes the best non-tabu move (aspiration: a tabu move is allowed if it
beats the best-so-far), and marks the swapped pair tabu for ``tenure``
iterations.  The paper's termination condition applies.
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

__all__ = ["TabuResult", "tabu_mapping"]


@dataclass(frozen=True)
class TabuResult:
    """Outcome of a tabu-search run."""

    assignment: Assignment
    total_time: int
    iterations: int
    evaluations: int
    reached_lower_bound: bool


def tabu_mapping(
    clustered: ClusteredGraph,
    system: SystemGraph,
    rng: int | np.random.Generator | None = None,
    iterations: int = 40,
    tenure: int | None = None,
    initial: Assignment | None = None,
    lower_bound: int | None = None,
    reporter: AnytimeReporter | None = None,
) -> TabuResult:
    """Best-improvement tabu search over pairwise swaps.

    Parameters
    ----------
    tenure:
        Tabu tenure in iterations; defaults to ``ns // 2 + 1``.
    reporter:
        Optional anytime hook: one checkpoint per iteration, stoppable
        between iterations with the best-so-far returned.
    """
    gen = as_rng(rng)
    n = system.num_nodes
    current = initial if initial is not None else Assignment.random(n, rng=gen)
    # Best-improvement scans probe every pair swap; the delta evaluator
    # answers each probe with one vectorized level sweep (no O(V^2)
    # communication matrix), and only the chosen move is committed.
    evaluator = DeltaEvaluator(clustered, system, current)
    current_time = evaluator.total_time
    best, best_time = current, current_time
    evaluations = 1
    if tenure is None:
        tenure = n // 2 + 1

    tabu_until = np.zeros((n, n), dtype=np.int64)
    it = 0
    while it < iterations and n >= 2:
        it += 1
        if lower_bound is not None and best_time <= lower_bound:
            break
        move_best: tuple[int, int] | None = None
        move_time = None
        for a in range(n - 1):
            for b in range(a + 1, n):
                t = evaluator.probe_swap(a, b)
                evaluations += 1
                tabu = tabu_until[a, b] >= it
                aspirated = t < best_time
                if tabu and not aspirated:
                    continue
                if move_time is None or t < move_time:
                    move_best, move_time = (a, b), t
        if move_best is None:  # everything tabu and nothing aspirates
            tabu_until[:] = 0
            continue
        a, b = move_best
        tabu_until[a, b] = tabu_until[b, a] = it + tenure
        current_time = evaluator.swap(a, b)
        if current_time < best_time:
            best, best_time = evaluator.assignment, current_time
        if reporter is not None:
            reporter.report(it, best_time, best)
            if reporter.should_stop():
                break

    return TabuResult(
        assignment=best,
        total_time=best_time,
        iterations=it,
        evaluations=evaluations,
        reached_lower_bound=lower_bound is not None and best_time <= lower_bound,
    )
