"""Golden outcomes: the mappers' results and the schedule, pinned byte for byte.

One fixed ~250-task ``layered_random`` instance on ``hypercube:4``.  For
the paper's own mapper (``critical`` with its default random refinement,
with ``refinement="none"`` and with pairwise refinement), Lee &
Aggarwal's, and every search mapper (annealing, tabu, genetic, Bokhari,
multilevel), the SHA-256 of the final assignment's placement bytes, the
evaluation count and the makespan are pinned.  So are the SHA-256 of the
ideal schedule (``i_start``, ``i_end``, ``i_edge``), of one assignment's
schedule (``start``, ``end``, ``comm``) and of the plan depth — the
level sweep that computes them may change speed, never these values.
"""

import hashlib

import numpy as np
import pytest

from repro.api import build_topology, build_workload, get_mapper
from repro.clustering import RandomClusterer
from repro.core import Assignment, ClusteredGraph, evaluate_assignment, ideal_schedule

SEED = 12

#: test id -> (mapper, params, (placement SHA-256, evaluations, total_time))
GOLDEN = {
    "annealing": (
        "annealing",
        {"cooling": 0.85},
        ("6e2fd428d4eda486f561414324a938b2faec2e175f4d7be4c3ba690be08ec70f", 1025, 144),
    ),
    "tabu": (
        "tabu",
        {"iterations": 12},
        ("e602a5a2d0403edb3df43403b9177f7c9987a8023bf6754e4e8d1851ba74b1d6", 1441, 140),
    ),
    "genetic": (
        "genetic",
        {"generations": 20},
        ("f9bc9642cbd3a906a525d83073b2e450fe4a0317efc48551b3566e5a7a554f4c", 630, 149),
    ),
    "bokhari": (
        "bokhari",
        {},
        ("aad7f33a6028da651e65cec958bd1936e51fe4e1992a29019d31326249b49691", 724, 178),
    ),
    "critical": (
        "critical",
        {"refinement": "pairwise"},
        ("ce29f946f20fbf97bbeb6c268c1cb19adfdc0890f215a7ba8f33c030546d2510", 16, 159),
    ),
    "critical-random": (
        "critical",
        {},
        ("0dbafa0a51ec9984842ddcfeeb7a70b66110a53ee6e530fd35a0d53940f7ecc7", 16, 158),
    ),
    "critical-none": (
        "critical",
        {"refinement": "none"},
        ("d32904d7e289861b7507e1923903761c45f4de3d253120224fa260eef9b73bcb", 0, 167),
    ),
    "lee": (
        "lee",
        {},
        ("f6c6d52f9de57b30e8bbf8e16211607b93190a69df143dc2fd42cb58b097e60a", 1204, 157),
    ),
    "multilevel": (
        "multilevel",
        {},
        ("0a5a8e64befa5a67fd9f34a1147b5f85ee00d81b30929d572e14637ca75bbeee", 3213, 163),
    ),
}

#: multilevel's refinement counters: (refine_probes, refine_swaps)
MULTILEVEL_REFINE = (3213, 28)


@pytest.fixture(scope="module")
def instance():
    graph = build_workload("layered_random", {"num_tasks": 250}, rng=SEED)
    system = build_topology("hypercube:4")
    clustering = RandomClusterer(system.num_nodes).cluster(graph, rng=SEED)
    return ClusteredGraph(graph, clustering), system


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.asarray(array).astype(np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(GOLDEN))
def test_outcome_is_pinned(instance, case):
    clustered, system = instance
    name, params, expected = GOLDEN[case]
    outcome = get_mapper(name, **params).map(clustered, system, rng=SEED)
    got = (
        _digest(outcome.assignment.placement),
        outcome.evaluations,
        outcome.total_time,
    )
    assert got == expected
    if name == "multilevel":
        extras = outcome.extras
        refine = (int(extras["refine_probes"]), int(extras["refine_swaps"]))
        assert refine == MULTILEVEL_REFINE


def test_ideal_schedule_is_pinned(instance):
    clustered, _ = instance
    ideal = ideal_schedule(clustered)
    assert ideal.total_time == 109
    assert _digest(ideal.i_start, ideal.i_end, ideal.i_edge) == (
        "4b1d7c13efc9a37f744dfaaff161b95361edb5c880d7c1d5743636769028765f"
    )


def test_assignment_schedule_is_pinned(instance):
    clustered, system = instance
    schedule = evaluate_assignment(clustered, system, Assignment.identity(16))
    assert schedule.total_time == 202
    assert _digest(schedule.start, schedule.end, schedule.comm) == (
        "264bc820c138a21c305d0bb3cb1e92b79e18179b0f926463012693b1c7b5dd53"
    )


def test_plan_depth_is_pinned(instance):
    clustered, _ = instance
    depth = clustered.graph.schedule_plan().depth()
    assert int(depth.max()) == 8
    assert _digest(depth) == (
        "0587581cc8b1156b0c143401072d82fc9cc5ce5df59e7d521b884c70e7c3b940"
    )
