"""Refinement of an initial assignment (paper Sec. 4.3.3).

The paper refines by *random re-placement*: keep the **critical abstract
nodes** pinned (definition 5: nodes incident to a critical abstract edge
that the current assignment maps onto a single system edge — their
placement is exactly what the initial assignment worked for), randomly
re-place everything else, keep the better assignment, and allow ``ns``
such changes.  The refinement — and the whole mapping — stops the moment
any assignment's total time equals the ideal lower bound, because Theorem
3 then certifies optimality.

The paper reports that this random re-placement beats pairwise exchange
[2]; :func:`refine_pairwise` implements the pairwise-exchange alternative
so the claim can be tested (ablation A3 in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..topology.base import SystemGraph
from ..utils import as_rng
from .assignment import Assignment
from .clustered import ClusteredGraph
from .critical import CriticalityAnalysis
from .incremental import DeltaEvaluator

__all__ = [
    "RefinementResult",
    "critical_abstract_nodes",
    "refine_random",
    "refine_pairwise",
]


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of a refinement run.

    Attributes
    ----------
    assignment:
        Best assignment found.
    total_time:
        Its makespan.
    lower_bound:
        The ideal-graph makespan used for termination.
    reached_lower_bound:
        True when the termination condition fired — the assignment is then
        provably optimal (Theorem 3).
    trials:
        Number of candidate assignments evaluated (excluding the input).
    improved:
        True when refinement beat the initial assignment.
    """

    assignment: Assignment
    total_time: int
    lower_bound: int
    reached_lower_bound: bool
    trials: int
    improved: bool


def critical_abstract_nodes(
    analysis: CriticalityAnalysis, system: SystemGraph, assignment: Assignment
) -> np.ndarray:
    """Boolean mask of *critical abstract nodes* (paper definition 5).

    An abstract node is critical iff some incident critical abstract edge
    is mapped onto a single system edge (hosts at distance 1).  These are
    the nodes refinement must not move.
    """
    c_abs = analysis.c_abs_edge
    na = c_abs.shape[0]
    pinned = np.zeros(na, dtype=bool)
    hosts = assignment.placement
    srcs, dsts = np.nonzero(np.triu(c_abs, 1))
    for a, b in zip(srcs.tolist(), dsts.tolist()):
        if system.shortest[hosts[a], hosts[b]] == 1:
            pinned[a] = pinned[b] = True
    return pinned


def refine_random(
    clustered: ClusteredGraph,
    system: SystemGraph,
    analysis: CriticalityAnalysis,
    initial: Assignment,
    rng: int | np.random.Generator | None = None,
    max_trials: int | None = None,
) -> RefinementResult:
    """The paper's refinement procedure (Sec. 4.3.3, steps 1-4).

    Parameters
    ----------
    max_trials:
        Number of random re-placements to try; the paper fixes this to
        ``ns`` ("a total of ns changes are allowed"), which is the default.
    """
    gen = as_rng(rng)
    bound = analysis.ideal.total_time
    trials_allowed = system.num_nodes if max_trials is None else max_trials

    # Re-placements move many clusters at once, so each trial uses the
    # delta evaluator's full-evaluation fast path (no O(V^2) comm matrix).
    evaluator = DeltaEvaluator(clustered, system, initial)
    best = initial
    best_time = evaluator.total_time
    initial_time = best_time
    if best_time == bound:  # step 3: initial assignment already optimal
        return RefinementResult(best, best_time, bound, True, 0, False)

    pinned = critical_abstract_nodes(analysis, system, initial)
    movable = np.flatnonzero(~pinned)
    # The processors the movable clusters currently occupy are exactly the
    # processors not occupied by pinned clusters; re-placements permute the
    # movable clusters over that fixed pool (paper step 4-a).
    pool = initial.placement[movable]

    trials = 0
    if movable.size >= 2:
        for trials in range(1, trials_allowed + 1):
            perm = gen.permutation(movable.size)
            candidate = best.with_placement_updates(
                {int(c): int(p) for c, p in zip(movable, pool[perm])}
            )
            t = evaluator.evaluate(candidate)
            if t == bound:  # step 4-c: provably optimal, stop
                return RefinementResult(candidate, t, bound, True, trials, True)
            if t < best_time:  # step 4-d
                best, best_time = candidate, t
    return RefinementResult(
        best, best_time, bound, best_time == bound, trials, best_time < initial_time
    )


def refine_pairwise(
    clustered: ClusteredGraph,
    system: SystemGraph,
    analysis: CriticalityAnalysis,
    initial: Assignment,
    rng: int | np.random.Generator | None = None,
    max_trials: int | None = None,
) -> RefinementResult:
    """Pairwise-exchange refinement (the alternative the paper rejects).

    Each trial swaps two random *movable* clusters and keeps the swap when
    it helps; the same trial budget and termination condition as
    :func:`refine_random` make the two directly comparable (ablation A3).
    """
    gen = as_rng(rng)
    bound = analysis.ideal.total_time
    trials_allowed = system.num_nodes if max_trials is None else max_trials

    # Each trial swaps a pair within the current best assignment, so the
    # delta evaluator probes it with one level sweep and commits only
    # improvements — its state always mirrors ``best``.
    evaluator = DeltaEvaluator(clustered, system, initial)
    best = initial
    best_time = evaluator.total_time
    initial_time = best_time
    if best_time == bound:
        return RefinementResult(best, best_time, bound, True, 0, False)

    pinned = critical_abstract_nodes(analysis, system, initial)
    movable = np.flatnonzero(~pinned)

    trials = 0
    if movable.size >= 2:
        for trials in range(1, trials_allowed + 1):
            a, b = gen.choice(movable, size=2, replace=False)
            t = evaluator.probe_swap(int(a), int(b))
            if t == bound:
                evaluator.swap(int(a), int(b))
                return RefinementResult(
                    evaluator.assignment, t, bound, True, trials, True
                )
            if t < best_time:
                evaluator.swap(int(a), int(b))
                best, best_time = evaluator.assignment, t
    return RefinementResult(
        best, best_time, bound, best_time == bound, trials, best_time < initial_time
    )
