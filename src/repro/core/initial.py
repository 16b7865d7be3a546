"""The critical-degree-guided initial assignment (paper Sec. 4.3.2).

Three phases, each growing the placement outward from what is already
placed:

1. Seed: the abstract node with the largest *critical degree* goes onto
   the system node with the largest degree.
2. Critical growth: while abstract nodes touched by critical abstract
   edges remain, pick the unplaced one with the largest critical degree
   that is connected *by a critical abstract edge* to an already-placed
   node, and put it on an unused system node adjacent to that anchor's
   processor; if no adjacent processor is free, use the closest free one.
3. Intensity growth: place the remaining abstract nodes the same way but
   ranked by communication intensity ``mca`` and anchored through plain
   abstract adjacency.

Interpretation choices (the 1991 text leaves them open):

* **Ties** — the paper says "select any qualifying node arbitrarily" at
  every choice point.  On the regular topologies the paper evaluates
  (hypercubes, meshes) *every* candidate has the same degree, so the
  tie-break carries nearly all of the placement quality.  The default
  ``tie_break="affinity"`` resolves ties by the candidate processor's
  total weighted distance to the processors of the new node's already-
  placed communication partners (critical weights counted first, full
  abstract weights second), then by degree, then by index / RNG.
  ``tie_break="degree"`` reproduces the literal degree-only reading, and
  ablation A2' in the benchmarks compares the two.
* **Multiple anchors** — when the new abstract node has several placed
  critical neighbors, any of their processors' free neighbors qualifies
  in step (b); the paper anchors on the single node found in (a), which
  is a subset of this behaviour.  Step (c)'s "closest" is taken to the
  nearest qualifying anchor.
* **Disconnected critical subgraph / abstract graph** — if no unplaced
  candidate is connected to the placed region, we fall back to the
  highest-ranked unplaced node and seed it on the best free system node
  (a fresh phase-1 step for the new component).
"""

from __future__ import annotations

import numpy as np

from ..topology.base import SystemGraph
from ..utils import MappingError, as_rng
from .abstract import AbstractGraph
from .assignment import Assignment
from .critical import CriticalityAnalysis

__all__ = ["initial_assignment"]

#: Critical-edge weight multiplier in the affinity score: one unit of
#: critical weight outranks any realistic amount of non-critical weight,
#: mirroring the paper's absolute priority of critical edges.
_CRITICAL_PRIORITY = 10_000


def initial_assignment(
    abstract: AbstractGraph,
    analysis: CriticalityAnalysis,
    system: SystemGraph,
    rng: int | np.random.Generator | None = None,
    tie_break: str = "affinity",
) -> Assignment:
    """Run the three-phase initial assignment; returns a full bijection.

    Parameters
    ----------
    tie_break:
        ``"affinity"`` (default) or ``"degree"`` — see module docstring.
    """
    if tie_break not in ("affinity", "degree"):
        raise ValueError(f"tie_break must be 'affinity' or 'degree', got {tie_break!r}")
    na = abstract.num_nodes
    ns = system.num_nodes
    if na != ns:
        raise MappingError(f"na ({na}) must equal ns ({ns}) for the mapping stage")
    gen = None if rng is None else as_rng(rng)

    placement = np.full(na, -1, dtype=np.int64)  # cluster -> system node
    sys_used = np.zeros(ns, dtype=bool)
    abs_placed = np.zeros(na, dtype=bool)

    c_abs = analysis.c_abs_edge
    crit_deg = analysis.critical_degree
    mca = abstract.mca
    weights = abstract.weights
    deg = system.deg
    shortest = system.shortest
    # Combined partner weights for the affinity tie-break: critical weight
    # dominates, total clustered weight breaks the rest.
    affinity_w = c_abs * _CRITICAL_PRIORITY + weights

    def pick(candidates: np.ndarray, score: np.ndarray) -> int:
        """Highest score wins; residual ties break by lowest index or rng."""
        best = candidates[score[candidates] == score[candidates].max()]
        if gen is not None and best.size > 1:
            return int(best[gen.integers(0, best.size)])
        return int(best[0])

    def pick_system_node(cluster: int, candidates: np.ndarray) -> int:
        """Choose a processor for ``cluster`` among ``candidates``.

        ``degree`` mode: the paper's literal rule (max degree, arbitrary
        ties).  ``affinity`` mode: minimal weighted distance to the
        processors of already-placed partners, degree as tie-break.
        """
        if tie_break == "degree" or candidates.size == 1:
            return pick(candidates, deg)
        partners = np.flatnonzero((affinity_w[cluster] > 0) & abs_placed)
        if partners.size == 0:
            return pick(candidates, deg)
        hosts = placement[partners]
        cost = (
            shortest[np.ix_(candidates, hosts)].astype(np.float64)
            * affinity_w[cluster, partners][None, :]
        ).sum(axis=1)
        # Lower cost is better; convert to a max-score with degree bonus.
        score = -cost * (deg.max() + 1.0)
        score = score + deg[candidates]
        best = candidates[score == score.max()]
        if gen is not None and best.size > 1:
            return int(best[gen.integers(0, best.size)])
        return int(best[0])

    def place(cluster: int, system_node: int) -> None:
        placement[cluster] = system_node
        sys_used[system_node] = True
        abs_placed[cluster] = True

    def free_sys() -> np.ndarray:
        return np.flatnonzero(~sys_used)

    def seed(cluster: int) -> None:
        """Phase-1-style placement on the best free system node."""
        place(cluster, pick_system_node(cluster, free_sys()))

    def grow(cluster: int, anchors: np.ndarray) -> None:
        """Place ``cluster`` adjacent to (or else nearest to) ``anchors``.

        ``anchors`` are the *system* nodes hosting the placed neighbors
        found in step (a).  Implements steps (b) and (c).
        """
        adjacent = np.flatnonzero(system.sys_edge[anchors].any(axis=0) & ~sys_used)
        if adjacent.size:  # step (b)
            place(cluster, pick_system_node(cluster, adjacent))
            return
        # Step (c): closest free node to any anchor, then the usual pick.
        free = free_sys()
        dist_to_anchor = shortest[np.ix_(free, anchors)].min(axis=1)
        nearest = free[dist_to_anchor == dist_to_anchor.min()]
        place(cluster, pick_system_node(cluster, nearest))

    def growth_phase(eligible_mask: np.ndarray, rank: np.ndarray, link: np.ndarray) -> None:
        """Shared driver for phases 2 and 3.

        ``eligible_mask`` limits which abstract nodes this phase must
        place, ``rank`` scores candidates, ``link`` is the adjacency used
        both for the "connected to a placed node" condition (step a) and
        to find the anchor processors.
        """
        while True:
            remaining = np.flatnonzero(eligible_mask & ~abs_placed)
            if remaining.size == 0:
                return
            # Step (a): candidates linked to a placed abstract node.
            connected = remaining[(link[remaining][:, abs_placed] > 0).any(axis=1)]
            if connected.size == 0:
                # Disconnected component: restart growth with a fresh seed.
                seed(pick(remaining, rank))
                continue
            cluster = pick(connected, rank)
            placed_neighbors = np.flatnonzero((link[cluster] > 0) & abs_placed)
            anchors = placement[placed_neighbors]
            grow(cluster, anchors)

    # ------------------------------------------------------------ phase 1
    seed_cluster = pick(np.arange(na), crit_deg)
    place(seed_cluster, pick(np.arange(ns), deg))

    # ------------------------------------------------------------ phase 2
    growth_phase(crit_deg > 0, crit_deg, c_abs)

    # ------------------------------------------------------------ phase 3
    growth_phase(np.ones(na, dtype=bool), mca, abstract.abs_edge)

    return Assignment.from_placement(placement)
