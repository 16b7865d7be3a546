"""Golden outcomes: the search mappers' results, pinned byte for byte.

One fixed ~250-task ``layered_random`` instance on ``hypercube:4``.  For
every mapper that drives :class:`~repro.core.DeltaEvaluator` (annealing,
tabu, genetic, pairwise refinement) or its siblings (Bokhari's
:class:`~repro.core.CardinalityDelta`, multilevel's
:class:`~repro.core.incremental.CommVolumeDelta`), the SHA-256 of the
final assignment's placement bytes and the evaluation count are pinned.
A change to how the evaluators compute a schedule may change their
speed, never these values.
"""

import hashlib

import numpy as np
import pytest

from repro.api import build_topology, build_workload, get_mapper
from repro.clustering import RandomClusterer
from repro.core import ClusteredGraph

SEED = 12

#: (mapper, params) -> (placement SHA-256, evaluations, total_time)
GOLDEN = {
    ("annealing", (("cooling", 0.85),)): (
        "6e2fd428d4eda486f561414324a938b2faec2e175f4d7be4c3ba690be08ec70f",
        1025,
        144,
    ),
    ("tabu", (("iterations", 12),)): (
        "e602a5a2d0403edb3df43403b9177f7c9987a8023bf6754e4e8d1851ba74b1d6",
        1441,
        140,
    ),
    ("genetic", (("generations", 20),)): (
        "f9bc9642cbd3a906a525d83073b2e450fe4a0317efc48551b3566e5a7a554f4c",
        630,
        149,
    ),
    ("bokhari", ()): (
        "aad7f33a6028da651e65cec958bd1936e51fe4e1992a29019d31326249b49691",
        724,
        178,
    ),
    ("critical", (("refinement", "pairwise"),)): (
        "ce29f946f20fbf97bbeb6c268c1cb19adfdc0890f215a7ba8f33c030546d2510",
        16,
        159,
    ),
    ("multilevel", ()): (
        "0a5a8e64befa5a67fd9f34a1147b5f85ee00d81b30929d572e14637ca75bbeee",
        3213,
        163,
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


def _digest(placement: np.ndarray) -> str:
    return hashlib.sha256(placement.astype(np.int64).tobytes()).hexdigest()


@pytest.mark.parametrize(
    "name,params", list(GOLDEN), ids=[name for name, _ in GOLDEN]
)
def test_outcome_is_pinned(instance, name, params):
    clustered, system = instance
    outcome = get_mapper(name, **dict(params)).map(clustered, system, rng=SEED)
    got = (
        _digest(outcome.assignment.placement),
        outcome.evaluations,
        outcome.total_time,
    )
    assert got == GOLDEN[name, params]
    if name == "multilevel":
        extras = outcome.extras
        refine = (int(extras["refine_probes"]), int(extras["refine_swaps"]))
        assert refine == MULTILEVEL_REFINE
