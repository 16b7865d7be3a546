"""Golden outcomes: the mappers' results and the schedule, pinned byte for byte.

One fixed ~250-task ``layered_random`` instance on ``hypercube:4``.  For
the paper's own mapper (``critical`` with its default random refinement,
with ``refinement="none"`` and with pairwise refinement), Lee &
Aggarwal's, and every search mapper (annealing, tabu, genetic, Bokhari,
multilevel), the SHA-256 of the final assignment's placement bytes, the
evaluation count and the makespan are pinned; ``critical`` is also pinned
without critical guidance (ablation A2), with the literal
``propagate_through_intra=False`` reading and with the ``degree``
tie-break.  So are the SHA-256 of the ideal schedule (``i_start``,
``i_end`` and the Fig. 22-a ``i_edge``), of one assignment's schedule
(``start``, ``end`` and the Fig. 23-c ``comm``, both dense matrices read
from ``collect_matrices``), of the plan depth, of the criticality
analysis (the sorted critical problem edges, ``c_abs_edge``, the
critical degrees and ``on_critical_path``, under both propagation
settings and a second, ``linear`` clustering where they differ), of
both ``list_schedule`` policies, and the exact ``verify_times`` verdicts
on three broken schedules — the code that computes them may change
speed and layout, never these values.

Routing is pinned the same way: the SHA-256 of ``shortest`` and of the
route-predecessor table ``route_prev`` of one machine per registered
topology family and of two weighted machines.  On the same machines, the
route consumers are pinned for one mapped instance: the sorted
``link_traffic`` items (as a SHA-256), ``hop_bytes``, ``avg_dilation``,
``max_congestion``, the stretched-edge count of ``compute_metrics`` and
the ``analyze_embedding`` report.  The grid generators' ``sys_edge`` is
pinned over every 2-D size up to 5 x 5 and every 3-D size up to 3 x 3 x 3,
with the chain, ring and hypercube they also build.

The multilevel refinement is pinned on larger instances too: placement
digest, ``refine_probes``, ``refine_swaps`` and ``comm_volume`` on
``mesh2d:5x7``, a seeded ``random:64``, ``torus2d:8x8``, a weighted
``hypercube:6`` and two block-clustered wavefronts, whose level graphs
are sparse; the maps that refine on ``hop_bytes``, ``avg_dilation`` and
``max_congestion`` are pinned on a weighted ``hypercube:5`` (placement
digest, ``refine_probes`` and ``refine_swaps``).  The hierarchy under
those maps is pinned level by level on the same six instances, on 1,024
processors and at 20k tasks: the level graphs, the projection maps, the
absorbed weight and the level machines.

So is the stack-ordered ``topological_order``, with the ``linear``
clustering that follows its visit order, the ``dsc`` clustering that
follows the bottom levels and the ``edge_zero`` clustering, on graphs
whose ids are in topological order and graphs whose ids are not
(``gnp``, ``series_parallel``, ``divide_conquer`` and a renumbered
``layered_random``), and on a 300-task ``layered_random`` graph whose
``dsc`` and ``edge_zero`` runs take hundreds of merge rounds.  Both
merging clusterers are also pinned where no cut pair is left to merge,
on an edgeless graph and on a graph whose one edge runs from a higher
id to a lower one.

The simulator is pinned on a 300-task ``layered_random`` instance per
machine (``hypercube:3``, ``mesh2d:3x3``, a seeded ``random:8`` and the
weighted 4-ring) under seven fidelity configurations: the makespan, the
peak link utilization, the FIFO stall time, the peak queue depth, the
SHA-256 of ``start`` and ``end`` and of the ``write_trace_jsonl`` bytes,
which carry every trace record in order.
"""

import hashlib

import numpy as np
import pytest

from repro.analysis import compute_metrics
from repro.api import build_topology, build_workload, get_mapper
from repro.clustering import (
    BlockClusterer,
    DscClusterer,
    EdgeZeroClusterer,
    LinearClusterer,
    RandomClusterer,
)
from repro.core import (
    AbstractGraph,
    Assignment,
    ClusteredGraph,
    ScheduleViolation,
    TaskGraph,
    analyze_criticality,
    build_hierarchy,
    collect_matrices,
    evaluate_assignment,
    ideal_schedule,
    list_schedule,
    verify_times,
)
from repro.metrics import evaluate_metrics, link_traffic
from repro.sim import SimConfig, simulate, write_trace_jsonl
from repro.topology import (
    SystemGraph,
    analyze_embedding,
    chain,
    hypercube,
    mesh2d,
    mesh3d,
    ring,
    torus2d,
    torus3d,
)
from repro.utils import GraphError
from tests.conftest import TOPOLOGY_SPECS, weighted_ring4

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
    "critical-unguided": (
        "critical",
        {"use_critical_guidance": False},
        ("ce12d3aa866667873f63eb9e72e2a03f66df894bd2f1d116a500f8efe598f80d", 16, 159),
    ),
    "critical-literal": (
        "critical",
        {"propagate_through_intra": False},
        ("0dbafa0a51ec9984842ddcfeeb7a70b66110a53ee6e530fd35a0d53940f7ecc7", 16, 158),
    ),
    "critical-degree": (
        "critical",
        {"tie_break": "degree"},
        ("2688e86cb3e35398137fc968ce8602d3a6f0f43072c636e968b0400de6015e8d", 16, 165),
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
    "multilevel-congestion": (
        "multilevel",
        {"refine_metric": "max_congestion"},
        ("fa7e3eb206cb62b3c945e3e3eb2395e0c49e7b7c51ce49bab272873d96fd63eb", 2784, 192),
    ),
}

#: multilevel's refinement counters: (refine_probes, refine_swaps)
MULTILEVEL_REFINE = {"multilevel": (3213, 28), "multilevel-congestion": (2784, 28)}


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
        assert refine == MULTILEVEL_REFINE[case]


def test_ideal_schedule_is_pinned(instance):
    clustered, system = instance
    ideal = ideal_schedule(clustered)
    assert ideal.total_time == 109
    matrices = collect_matrices(clustered, system, ideal=ideal)
    assert _digest(matrices.i_start, matrices.i_end, matrices.i_edge) == (
        "4b1d7c13efc9a37f744dfaaff161b95361edb5c880d7c1d5743636769028765f"
    )


def test_assignment_schedule_is_pinned(instance):
    clustered, system = instance
    schedule = evaluate_assignment(clustered, system, Assignment.identity(16))
    assert schedule.total_time == 202
    matrices = collect_matrices(clustered, system, Assignment.identity(16))
    assert _digest(matrices.start, matrices.end, matrices.comm) == (
        "264bc820c138a21c305d0bb3cb1e92b79e18179b0f926463012693b1c7b5dd53"
    )


#: (clusterer, propagate_through_intra) -> SHA-256 of the sorted critical
#: problem edges, ``c_abs_edge``, ``critical_degree`` and
#: ``on_critical_path``; the ``linear`` clustering propagates through
#: tight intra-cluster edges, the ``random`` one never meets one
CRITICALITY = {
    ("random", True): "28470165018fcd5d08325b87b5979b77d5c96429f3f850c491d06a2ecb0d6ff5",
    ("random", False): "28470165018fcd5d08325b87b5979b77d5c96429f3f850c491d06a2ecb0d6ff5",
    ("linear", True): "7cf847310f209ce7136b80a94b72787ec5c6ddcecc4a46486d4cfaa89d104a9d",
    ("linear", False): "1f638a1272ac0602a2640afc20fe589a50368db6dc35bc1297035fe2028e1b7d",
}


@pytest.mark.parametrize("key", list(CRITICALITY))
def test_criticality_is_pinned(instance, key):
    clustered, _ = instance
    clusterer, propagate = key
    if clusterer == "linear":
        graph = clustered.graph
        clustered = ClusteredGraph(graph, LinearClusterer(16).cluster(graph, rng=SEED))
    an = analyze_criticality(clustered, propagate_through_intra=propagate)
    got = _digest(
        an.critical_problem_edges(),
        an.c_abs_edge,
        an.critical_degree,
        an.on_critical_path,
    )
    assert got == CRITICALITY[key]


#: policy -> (makespan, SHA-256 of ``start`` and ``end``) of the identity
#: assignment's serialized list schedule
LIST_SCHEDULES = {
    "fifo": (214, "35044bfcc87be3464c792a8bb09247275c8872b7f563b0c8f0a69d9b6871609a"),
    "blevel": (210, "a885bc4d10d9b8ef041fb577a3502421d0fce7d3b899148264331d8dcbc7470d"),
}


@pytest.mark.parametrize("policy", list(LIST_SCHEDULES))
def test_list_schedule_is_pinned(instance, policy):
    clustered, system = instance
    ls = list_schedule(clustered, system, Assignment.identity(16), policy)
    assert (ls.makespan, _digest(ls.start, ls.end)) == LIST_SCHEDULES[policy]


#: (broken schedule, require_asap) -> the ``verify_times`` message, or
#: None when it passes; each case shifts one task of the identity
#: assignment's schedule: task 133 one unit early (a late edge) or late
#: (a late start), entry task 13 one unit late (an idle entry task)
VERDICTS = {
    ("late-edge", True): "edge (57 -> 133): task 133 starts at 63 before its input arrives at 64",
    ("late-edge", False): "edge (57 -> 133): task 133 starts at 63 before its input arrives at 64",
    ("late-start", True): (
        "task 133 starts at 65 but its inputs are complete at 64 "
        "(as-soon-as-possible violated)"
    ),
    ("late-start", False): None,
    ("idle-entry", True): (
        "entry task 13 idles until 1 (as-soon-as-possible semantics requires 0)"
    ),
    ("idle-entry", False): None,
}

BROKEN = {"late-edge": (133, -1), "late-start": (133, 1), "idle-entry": (13, 1)}


@pytest.mark.parametrize("key", list(VERDICTS))
def test_verify_times_verdicts_are_pinned(instance, key):
    clustered, system = instance
    case, require_asap = key
    assignment = Assignment.identity(16)
    schedule = evaluate_assignment(clustered, system, assignment)
    task, shift = BROKEN[case]
    start, end = schedule.start.copy(), schedule.end.copy()
    start[task] += shift
    end[task] += shift
    try:
        verify_times(
            clustered, system, assignment, start, end, require_asap=require_asap
        )
        got = None
    except ScheduleViolation as exc:
        got = str(exc)
    assert got == VERDICTS[key]


def test_plan_depth_is_pinned(instance):
    clustered, _ = instance
    depth = clustered.graph.schedule_plan().depth()
    assert int(depth.max()) == 8
    assert _digest(depth) == (
        "0587581cc8b1156b0c143401072d82fc9cc5ce5df59e7d521b884c70e7c3b940"
    )


#: machine -> (SHA-256 of ``shortest``, SHA-256 of ``route_prev``)
ROUTING = {
    "btree:3": (
        "a9fb96e85f690bf83af530bbdb74f85ae4ba136b3041cc444b4d5054785c3b0a",
        "6b94cdaf799ce6b7f8d8b10308edf954217634eb57a41970096e72be4ff61b1e",
    ),
    "butterfly:2": (
        "495217ca519cb1b980ae961ccc1b9d1fd7e9de59c370e0dd6474bf821ebbd8b7",
        "c6c9333b5b47518e0c541e8d6138829216df84bb36c1902242c91763460b015b",
    ),
    "ccc:3": (
        "6c753b0b3247aac6f3114bc47af8d3c0da2a2f300955c56f3068bd0648b12865",
        "43ea7f8bea8bcecf81838226af707cdf532b4ebbbdbea78087f1c15b1c584043",
    ),
    "chain:8": (
        "4764e1a61f9c24657b96ce9281544b428eb893ba77c5c7b549a0b4b6a6b9ee8c",
        "6814056cc400fa41d3a4657edf5687c72abd14e46e4f48ca0dff48c905b7d93e",
    ),
    "chordal:8x3": (
        "e1cfad1a1449576960061cade707d30de22cabe228239ceeb2e7e5f14eac9b56",
        "ae25eab363ff31c0981c2734d5daa4f576d7fa7f488a366b1fb4094633b6715e",
    ),
    "complete:8": (
        "d15861b7222d5ce19b2983d37dd7ba347e7d84a69b49c66239e066761b03c858",
        "000996f8ba6f3ff83df5d2259ad6dac99ff41a1e85699eac1970dc712e435e47",
    ),
    "debruijn:3": (
        "2132904fb93fecee38ef46cc5a57779f717bf35dd57ce2ef0f70dd02a16d483c",
        "f6408416633a1c4bcb8fd24b77950c364c821bb36fa56f7032024b24dc9619c7",
    ),
    "hypercube:3": (
        "5f2d811c5dca05fcdc93c66105721734e1d4b550b46efe5b1cd335f894ce5232",
        "2c181420f31ffb04f94b62abd6011755f8527bbe0abccb6365e88539ca8f87eb",
    ),
    "kautz:2x2": (
        "8e9e75ae68a2a63916bff5e3d3a75502c871dd0c6b986fba3f0e39bcf8da6cc3",
        "b57f5b9f9137ec14e23a1cb545b1ed4ae11c78246cc31f7c2ed0d41c1c936b97",
    ),
    "kbipartite:3x3": (
        "6ff9a374030face722c3cf43538515fc87ca7b031f786a7cde3b0d5dfa25b03a",
        "d57aea809f01958bf4f4522bee1c9a926a4dc5d191f7ae942a3a4d70d840fb88",
    ),
    "mesh2d:2x4": (
        "f3ac99720e86e8ef445db55d6eb3371535371e64a5cd9ba2772ce2737a041c2a",
        "386c75519b550232bb56466db81464085a6e1d137471eccc06ea0f48ae4354e0",
    ),
    "mesh3d:2x2x2": (
        "5f2d811c5dca05fcdc93c66105721734e1d4b550b46efe5b1cd335f894ce5232",
        "2c181420f31ffb04f94b62abd6011755f8527bbe0abccb6365e88539ca8f87eb",
    ),
    "mesh:8": (
        "f3ac99720e86e8ef445db55d6eb3371535371e64a5cd9ba2772ce2737a041c2a",
        "386c75519b550232bb56466db81464085a6e1d137471eccc06ea0f48ae4354e0",
    ),
    "petersen": (
        "b641c68b05c15a1abffd251bee63c7ad8dbb7ee00308724408c4ef955ee49a3c",
        "03a3f0917be5dffba88cc979350b7381d8836a8b4b42f229ad681c9a5f2e638e",
    ),
    "random:8": (
        "b771e461e61ffc4730c0d3a11e556f9145a5767560c9fb5e7ba6db93b8ccbe27",
        "9c6e4df624e972abf2a871032905b04144d1549361744d58969849cfdb61c90a",
    ),
    "regular:8x3": (
        "5d4f49fb6790582d3ded95c5adee35a4a602c4ad620e5557ef785ad5a0efe6fe",
        "c6a3ca2221c2dcda3c795d400b9f96fdbbbb5ef54fd0f04ed273d17a5d254922",
    ),
    "ring:8": (
        "203aaeeb3e16259a986ba29482002cecdff0db82917af01b9eed72d66aca1c26",
        "629045b2028fcb980734bb308e3c8157e8f93852882ec4858151844932eca0d7",
    ),
    "star:8": (
        "bb06d408343c8a6f932e05f8ffaf6b22b194e515dd20c958edd610323c3e0b71",
        "5d49d507af187865c9d57ebb02c3509152bcda545ab312dc6d910280416606dc",
    ),
    "torus2d:2x4": (
        "6d9277cf4231bc1abab689a100ae69359cddd3938ef2b34dd9a5d9d7fa8288fe",
        "96db1766d7db33bb92425e8d21c8f1f04009d7d01f4ace3dc2585c858bbed3da",
    ),
    "torus3d:2x2x2": (
        "5f2d811c5dca05fcdc93c66105721734e1d4b550b46efe5b1cd335f894ce5232",
        "2c181420f31ffb04f94b62abd6011755f8527bbe0abccb6365e88539ca8f87eb",
    ),
    "torus:8": (
        "6d9277cf4231bc1abab689a100ae69359cddd3938ef2b34dd9a5d9d7fa8288fe",
        "96db1766d7db33bb92425e8d21c8f1f04009d7d01f4ace3dc2585c858bbed3da",
    ),
    "torus2d:4x4+w1": (
        "a759895fa6c551f12585dac53e320eaad01906db7538d90bcd6786f81f3a3902",
        "09022ad7857472fa16f0042873854cb73edc3a61b416cce3dceabcb30c17e700",
    ),
    "random:12+w2": (
        "5c32da37dec74ee2a8d20f60e3dc623a4fd74443636fb46bf002c5f36de11db8",
        "f29278030b58fa2cfa410036b25b66c625a238db4a6f06a69d560ae1c305c92e",
    ),
}


def _routing_system(key: str) -> SystemGraph:
    """``"<spec>+w<seed>"`` is ``<spec>`` with seeded random link costs 1-5."""
    spec, _, seed = key.partition("+w")
    system = build_topology(spec, rng=0)
    if not seed:
        return system
    n = system.num_nodes
    weights = np.random.default_rng(int(seed)).integers(1, 6, size=(n, n))
    return SystemGraph(system.sys_edge, name=key, link_weights=weights)


@pytest.mark.parametrize(
    "key", [*sorted(TOPOLOGY_SPECS.values()), "torus2d:4x4+w1", "random:12+w2"]
)
def test_routing_is_pinned(key):
    system = _routing_system(key)
    assert (_digest(system.shortest), _digest(system.route_prev)) == ROUTING[key]


#: machine -> (SHA-256 of the sorted ``link_traffic`` items, (``hop_bytes``,
#: ``avg_dilation``, ``max_congestion``, stretched edges), the
#: ``analyze_embedding`` report) for one mapped 60-task instance
ROUTE_METRICS = {
    "btree:3": (
        "cad16d58be960029b896ef6bbbd81a5a2c9684613cbcd664f5493d41527547e8",
        (1601.0, 2.081924577373212, 252.0, 104),
        "dilation max 4 / avg 2.29, 6/21 edges on single links, congestion max 12 (weighted 398), expansion 1.00",
    ),
    "butterfly:2": (
        "144f38426b9327d976a009de75726e97fcc4253cae1a5c6c50ebb5b5584f6499",
        (1920.0, 2.3529411764705883, 144.0, 114),
        "dilation max 4 / avg 2.25, 13/56 edges on single links, congestion max 15 (weighted 301), expansion 1.00",
    ),
    "ccc:3": (
        "449f44cee399d4478c7e0c95244d586dcf3819b318a56c5eb3dc9fc7b7b77418",
        (2615.0, 3.0983412322274884, 83.0, 123),
        "dilation max 6 / avg 3.13, 19/103 edges on single links, congestion max 18 (weighted 130), expansion 1.00",
    ),
    "chain:8": (
        "53f9ed710b56d40d598fd31a3edb61470471f567937cd8a2328231d81ab4b9c7",
        (2181.0, 2.736511919698871, 258.0, 100),
        "dilation max 7 / avg 2.89, 7/27 edges on single links, congestion max 15 (weighted 443), expansion 1.00",
    ),
    "chordal:8x3": (
        "bb013d91a7833608020522bc89bed2092d0cc1c6947d2f0042183a99e493f37c",
        (1127.0, 1.4140526976160601, 111.0, 53),
        "dilation max 2 / avg 1.41, 16/27 edges on single links, congestion max 6 (weighted 207), expansion 1.00",
    ),
    "complete:8": (
        "5c691f27524d6387590861ec7ef683826dca13e60de4ea7a4f95bdde0852de43",
        (797.0, 1.0, 47.0, 0),
        "dilation max 1 / avg 1.00, 27/27 edges on single links, congestion max 1 (weighted 91), expansion 1.00",
    ),
    "debruijn:3": (
        "521b1a00c82d9694eeaf7b592e30ee0d15cec902378e7a28bf3c8de3da938457",
        (1315.0, 1.6499372647427855, 141.0, 79),
        "dilation max 3 / avg 1.63, 13/27 edges on single links, congestion max 7 (weighted 232), expansion 1.00",
    ),
    "hypercube:3": (
        "77414b42f8e7ea1bcd10ca26e67223c4f137e21f55d83d72b08c23555b7be446",
        (1286.0, 1.6135508155583438, 189.0, 79),
        "dilation max 3 / avg 1.70, 12/27 edges on single links, congestion max 9 (weighted 259), expansion 1.00",
    ),
    "kautz:2x2": (
        "1922e12bc65b922ccc0f44931b95f0c7e76255b1f7035faf5ef99af824bf22df",
        (1502.0, 1.8406862745098038, 94.0, 96),
        "dilation max 3 / avg 1.89, 19/56 edges on single links, congestion max 10 (weighted 141), expansion 1.00",
    ),
    "kbipartite:3x3": (
        "a8a0c862c1256f719c563621c7fb628f6af6ba337c1b704377d5d9c7bce488ef",
        (956.0, 1.335195530726257, 170.0, 40),
        "dilation max 2 / avg 1.40, 9/15 edges on single links, congestion max 5 (weighted 306), expansion 1.00",
    ),
    "mesh2d:2x4": (
        "5c2c75a496ba77d1da1cb4526d858cfe2da22e7a9273cc04d7c994324602df42",
        (1454.0, 1.824341279799247, 185.0, 81),
        "dilation max 4 / avg 1.96, 10/27 edges on single links, congestion max 11 (weighted 328), expansion 1.00",
    ),
    "mesh3d:2x2x2": (
        "77414b42f8e7ea1bcd10ca26e67223c4f137e21f55d83d72b08c23555b7be446",
        (1286.0, 1.6135508155583438, 189.0, 79),
        "dilation max 3 / avg 1.70, 12/27 edges on single links, congestion max 9 (weighted 259), expansion 1.00",
    ),
    "mesh:8": (
        "5c2c75a496ba77d1da1cb4526d858cfe2da22e7a9273cc04d7c994324602df42",
        (1454.0, 1.824341279799247, 185.0, 81),
        "dilation max 4 / avg 1.96, 10/27 edges on single links, congestion max 11 (weighted 328), expansion 1.00",
    ),
    "petersen": (
        "4e62cd0a4437c86ab358f87df3c8bfe1ec0b47b7cb778d7e2972301914ec3519",
        (1327.0, 1.6649937264742785, 79.0, 94),
        "dilation max 2 / avg 1.68, 13/40 edges on single links, congestion max 5 (weighted 138), expansion 1.00",
    ),
    "random:8": (
        "38c30b84e59d9d3f0b37940f7cd7f000004d7a1559f2553281cbf0e09a389e3a",
        (1335.0, 1.6750313676286073, 148.0, 74),
        "dilation max 3 / avg 1.70, 12/27 edges on single links, congestion max 7 (weighted 258), expansion 1.00",
    ),
    "regular:8x3": (
        "099396b2fbad4142d64a6395391782da2106a6b5a57aeadfa531763e4f08e616",
        (1281.0, 1.6072772898368883, 102.0, 90),
        "dilation max 2 / avg 1.56, 12/27 edges on single links, congestion max 5 (weighted 182), expansion 1.00",
    ),
    "ring:8": (
        "8c81a595390ebc6afbc0c377abd7830ebaa6f5b775ed3d3abf83bd7e835dbf8b",
        (1849.0, 2.3199498117942285, 188.0, 97),
        "dilation max 4 / avg 2.30, 8/27 edges on single links, congestion max 9 (weighted 292), expansion 1.00",
    ),
    "star:8": (
        "499661702680f3e0f596f21b9d2f0094bab017f68a373701f37dc1c77d365f81",
        (1354.0, 1.698870765370138, 148.0, 103),
        "dilation max 2 / avg 1.74, 7/27 edges on single links, congestion max 7 (weighted 282), expansion 1.00",
    ),
    "torus2d:2x4": (
        "f03320d4a6117b57965451875c2b0770e4264c9d759c7cf822405a2644da30fc",
        (1294.0, 1.6235884567126726, 146.0, 73),
        "dilation max 3 / avg 1.67, 12/27 edges on single links, congestion max 8 (weighted 271), expansion 1.00",
    ),
    "torus3d:2x2x2": (
        "77414b42f8e7ea1bcd10ca26e67223c4f137e21f55d83d72b08c23555b7be446",
        (1286.0, 1.6135508155583438, 189.0, 79),
        "dilation max 3 / avg 1.70, 12/27 edges on single links, congestion max 9 (weighted 259), expansion 1.00",
    ),
    "torus:8": (
        "f03320d4a6117b57965451875c2b0770e4264c9d759c7cf822405a2644da30fc",
        (1294.0, 1.6235884567126726, 146.0, 73),
        "dilation max 3 / avg 1.67, 12/27 edges on single links, congestion max 8 (weighted 271), expansion 1.00",
    ),
    "torus2d:4x4+w1": (
        "a53cb3e6db5c18cf01573ea6b4adf329cca108a7d5eb994ccc92c6fbf5ecf00f",
        (1828.0, 2.1480611045828435, 355.0, 110),
        "dilation max 4 / avg 1.99, 25/81 edges on single links, congestion max 15 (weighted 214), expansion 1.00",
    ),
    "random:12+w2": (
        "b3b02e6bb42561b870eae81a3a7083db8900f57e1b196261b7f832bb0d076c7e",
        (2050.0, 2.5122549019607843, 736.0, 115),
        "dilation max 5 / avg 2.32, 14/56 edges on single links, congestion max 19 (weighted 300), expansion 1.00",
    ),
}


@pytest.mark.parametrize("key", list(ROUTE_METRICS))
def test_route_metrics_are_pinned(key):
    system = _routing_system(key)
    graph = build_workload("layered_random", {"num_tasks": 60}, rng=SEED)
    clustering = RandomClusterer(system.num_nodes).cluster(graph, rng=SEED)
    clustered = ClusteredGraph(graph, clustering)
    assignment = Assignment.random(system.num_nodes, rng=SEED)
    loads = sorted(link_traffic(clustered, system, assignment).items())
    scores = evaluate_metrics(
        clustered, system, assignment, ["hop_bytes", "avg_dilation", "max_congestion"]
    )
    schedule = evaluate_assignment(clustered, system, assignment)
    got = (
        _digest([(a, b, w) for (a, b), w in loads]),
        (
            scores["hop_bytes"],
            scores["avg_dilation"],
            scores["max_congestion"],
            compute_metrics(schedule).stretched_edges,
        ),
        str(analyze_embedding(AbstractGraph(clustered), system, assignment)),
    )
    assert got == ROUTE_METRICS[key]


#: (machine key, workload) -> (placement SHA-256, refine_probes,
#: refine_swaps, comm_volume) of a seed-0 ``multilevel`` map.  The
#: machines cover irregular degrees (``mesh2d``, a seeded ``random``), a
#: weighted machine (the ``+w`` keys of :func:`_routing_system`) and
#: levels that commit 100-230 swaps; the block-clustered wavefronts give
#: sparse level graphs.
MULTILEVEL_PINS = {
    ("mesh2d:5x7", "layered"): (
        "b6ac05edb4ca99cc0ed33b88cd2716864ae3e6b23fb512984b02c8a7cf3cef30",
        13636, 73, 144920,
    ),
    ("random:64", "layered"): (
        "5bd5b20e2bfc6e510b965951dd6f4e601beb74e0066a04506e3fd86140e937f8",
        159376, 151, 72666,
    ),
    ("torus2d:8x8", "layered"): (
        "9e02a7319f618df69aaf73930abf9c499d1b0dd4a929261a6926d363b696f54a",
        59271, 120, 149199,
    ),
    ("hypercube:6+w2", "layered"): (
        "caaef3f42c43a1ceeb2e2a51c6f59ca7b3a86cfeb6dcb4f5e14ef9d55fccc446",
        106604, 106, 314927,
    ),
    ("torus2d:8x8", "wavefront"): (
        "6464aeff7faeef2f1a92700572ad9d17e02d6dafe2e781fc091f2dd4a708ddf8",
        2499, 23, 2219,
    ),
    ("hypercube:8", "wavefront"): (
        "6601b4a8214ef2dab40403860874b57b3faa140a0dfaf711efac27e1fcf98ed5",
        61082, 232, 5510,
    ),
}


def _multilevel_instance(
    spec: str, workload: str, num_tasks: int = 3000
) -> tuple[ClusteredGraph, SystemGraph]:
    """A ``num_tasks``-task ``layered_random`` graph under the random
    clusterer, or a square ``wavefront`` (40 x 40 on 64 processors,
    60 x 60 on 256) under the block clusterer, on ``spec``'s machine."""
    system = _routing_system(spec)
    n = system.num_nodes
    if workload == "layered":
        graph = build_workload("layered_random", {"num_tasks": num_tasks}, rng=0)
        clustering = RandomClusterer(n).cluster(graph, rng=0)
    else:
        side = 40 if n == 64 else 60
        graph = build_workload("wavefront", {"rows": side, "cols": side})
        clustering = BlockClusterer(n).cluster(graph, rng=0)
    return ClusteredGraph(graph, clustering), system


@pytest.mark.parametrize("key", list(MULTILEVEL_PINS), ids="/".join)
def test_multilevel_refinement_is_pinned(key):
    clustered, system = _multilevel_instance(*key)
    outcome = get_mapper("multilevel").map(clustered, system, rng=0)
    extras = outcome.extras
    got = (
        _digest(outcome.assignment.placement),
        int(extras["refine_probes"]),
        int(extras["refine_swaps"]),
        int(extras["comm_volume"]),
    )
    assert got == MULTILEVEL_PINS[key]


#: (machine key, tasks, refinement objective) -> (placement SHA-256,
#: refine_probes, refine_swaps) of a seed-0 ``multilevel`` map of a
#: ``layered_random`` graph.  The machines are weighted, so ``route_hops``
#: differs by direction on some pairs and ``hop_bytes`` and
#: ``avg_dilation`` part from ``comm_volume``; ``max_congestion`` routes
#: every message over weighted links.
OBJECTIVE_PINS = {
    ("hypercube:5+w3", 1500, "hop_bytes"): (
        "e258b26e52d211f6973d6bf64e1ce815eaea0f05e94bf59345135ba6ef63e351",
        15354, 46,
    ),
    ("hypercube:5+w3", 1500, "avg_dilation"): (
        "e258b26e52d211f6973d6bf64e1ce815eaea0f05e94bf59345135ba6ef63e351",
        15354, 46,
    ),
    ("hypercube:5+w3", 1500, "max_congestion"): (
        "c82e2cda512a00eb13b6d4406daa6a40ba74095b015ace52d7797055a0f54a78",
        16719, 36,
    ),
    ("hypercube:6+w2", 3000, "hop_bytes"): (
        "41ae60371f3f442562a7fef163a8c92629ce61f27df12f0c929e971284e9ea24",
        93720, 146,
    ),
}


@pytest.mark.parametrize(
    "key", list(OBJECTIVE_PINS), ids=lambda key: "/".join(map(str, key))
)
def test_refinement_objective_is_pinned(key):
    spec, num_tasks, objective = key
    clustered, system = _multilevel_instance(spec, "layered", num_tasks)
    mapper = get_mapper("multilevel", refine_metric=objective)
    outcome = mapper.map(clustered, system, rng=0)
    extras = outcome.extras
    got = (
        _digest(outcome.assignment.placement),
        int(extras["refine_probes"]),
        int(extras["refine_swaps"]),
    )
    assert got == OBJECTIVE_PINS[key]


#: (machine key, workload, tasks) -> one SHA-256 per level of
#: ``build_hierarchy`` at its defaults, finest first, over the level
#: graph's task sizes and out-CSR arrays, ``node_map``, ``proc_map``,
#: ``absorbed`` and the level machine's ``shortest`` and
#: ``link_weights``.  The instances are ``MULTILEVEL_PINS``' six, a
#: 3k-task graph on 1,024 processors (whose sparse levels stop shrinking
#: at ``max_levels``) and a 20k-task one on 256.
HIERARCHY_PINS = {
    ("mesh2d:5x7", "layered", 3000): (
        "1afc668bc467ede097aeabdb43ad050d166e481d2823210b6a924a43602cf60b",
        "a4b13dee0db68c07b462c34a7a43e33997a06adbd80e010a4d98939bc7e80bd7",
        "d279d66c43e6dbe981da40cd34fd1a84b8ffbf67f4d5d9a826b7bb8fa40c3edc",
        "d0ddf36d93116ba1c98fba3f8fc62e183683f7bb35a0cb58fc42e50a0e409c13",
    ),
    ("random:64", "layered", 3000): (
        "a00a092b0fb9bd4f80244709539b74a4d060083d06b1574659ba359fc4353ed5",
        "e7b6fb4c8480d78708d3a1331b927a3b3580e14fdfb0b3e458615541622477d0",
        "9dd62e6cce4a6c42c914a7f3735ebb5f79b8e564c638d1b68f9bb53475f6446c",
        "293120ce908a5f4877412d668a6f4bcb2052348853231f1bbbe769fa76f781f7",
    ),
    ("torus2d:8x8", "layered", 3000): (
        "24eea5da0165c1c6837349434ad882c1ef2757aab1390d267b86b54e1c42793d",
        "95c1114609fdcac65d9e34f3caffdff69007e1ce59ebdeddb61b937ec71413a3",
        "1380c75311d0c235564f79f0877636f3abb710a0825f14dbdb5c5873213d5a8b",
        "d4215360d9309ebb06ea4bd78e221164652b6e18731b4c34ba3f827f070bab8f",
    ),
    ("hypercube:6+w2", "layered", 3000): (
        "54345acfe104a5a2a1d9116a768bfcb918e14c8c2a9dc19ca4edc4adeb513d0f",
        "ad4a061a6c10335984daf1cfb5b4647959899bac1ebcf9d6e8ee3b8f99cd6454",
        "47d7b52560b8de654e78e4b0a481b3ec2ad974ba11dfe32f3d74c91bea5096d8",
        "4f911a87c5ae578886bdefb245c33b44f7f6f34729b8032d691b9313a6da53da",
    ),
    ("torus2d:8x8", "wavefront", 1600): (
        "d45dc4187f30a2404dae8e0718cebc02793bbc0a7c4437c1ae6039ff6384fa6d",
        "ab448eeb0fbae6bc1892671de1558cc570f282b9d2206dfe74c262589f63c596",
        "77e1540f9e8ba6cd360c4712c3923a779812b4e625d55ecfc562827587334fe1",
        "ad23424f49b14c4aa86ff19fa21bcb6583043fbfa86614fc05090f5ea13bc17b",
    ),
    ("hypercube:8", "wavefront", 3600): (
        "e2762585cd4f008ec8248961259d9c7b9dbbb0a741effec88c4ebf56ad40ea24",
        "cc5bfee8b513420e353c7d1f8393798ccf7812c9b2846c0461a15f29aa6f5aea",
        "cbfa5d0f60046d5b4933c7ea69548ac23854dfd74c6cb4a0dcae940f6c347313",
        "8c81b2feb959b5f50756a296a7135c3db46a8e52427702bfd15634f6d87b7a38",
        "5bc57b615beaf5eedde84afa505f4ca46862a4bea8f800ba21fda03b45719c6a",
        "0042ef40f888793634506dc62b2c0ab003c767a73359e780961a9837f7a3d358",
        "d34393d566da75bfecb6f43d060c121bbeaa4fe73e5340292ca674228a251018",
    ),
    ("hypercube:10", "layered", 3000): (
        "bce3e47df08812b92e08a507ed77c7f4753663ccbb2886d458aa95d04677506d",
        "a35321350d70e040e1b89956ce8aa4d9d7591461a1d40558f19d78ae12c31db4",
        "a3d92d1921b7a71a013e0e76483dd59fa933c1ce126240ab68fb7634a77aa207",
        "20d82733bed520f09b75dee8d60528446b7f8ecdd862c614b4914a0cc7c46fec",
        "e9dd914887d2c27d595bb7f85e494674ce1edc87dbb7ceba05522f499d09c430",
        "c1738412f4a1da4034e894732dfe858f797f58df291f146e2873e35df1086b6e",
        "a16fa137f3935e7f7ce18ac741ebb27de0194f3037206190488ea317780a0f45",
        "62cce1c78d2d53d255b66dbcb3b10c5c74100f806ccf5a212a93563d7900f900",
        "8d8a6c3df07a006baa0aa6c2a438a6afc44a5b14e9f2ae33679528b5fa29b0cb",
        "908c64670abe623a219ac2969001725ca5b1923b68edd46fcad8d8b4fbe3a3ec",
        "40710f48ac0093c91ce380b334ff018a8ac628a99e16b3552c7a9fca53ba99e5",
        "5421d12fb88fe44f5189e1b8fc7cba13ba88a0e15865bd3c8f85d7a6c88c038f",
    ),
    ("hypercube:8", "layered", 20000): (
        "ab06c1fdfb0cac027a33df308e1b2343d021bb1b07f0a17138b510567b740b95",
        "e33ce2dd8e0c15219d4a7f734be3a511d9e2d1de3014a01a7d8a65f133a664e2",
        "22b969682d1f7e58e26d4a23f0759b9952a017508af528d5b06f4a479a33649e",
        "55ca03468ea9a68c5b191da77c13d79cd47a3eae69b3d33fee8ed20ea05356fd",
        "4373e61ed1ec9d8455ce160fc46cdcbf8eedc3dc461980cb1188642f86a25464",
        "03aa737a2f8f7ea71511231c60b4e1477fe7659a385e82b3b1cf19ee15d5f8e6",
    ),
}


@pytest.mark.parametrize(
    "key", list(HIERARCHY_PINS), ids=lambda key: "/".join(map(str, key))
)
def test_hierarchy_is_pinned(key):
    spec, workload, num_tasks = key
    clustered, system = _multilevel_instance(spec, workload, num_tasks)
    assert clustered.graph.num_tasks == num_tasks
    none = np.empty(0, dtype=np.int64)
    got = tuple(
        _digest(
            level.graph.task_sizes,
            level.graph.out_indptr,
            level.graph.out_indices,
            level.graph.out_weights,
            none if level.node_map is None else level.node_map,
            none if level.proc_map is None else level.proc_map,
            [level.absorbed],
            level.system.shortest,
            level.system.link_weights,
        )
        for level in build_hierarchy(clustered, system).levels
    )
    assert got == HIERARCHY_PINS[key]


SIZES_2D =[(r, c) for r in range(1, 6) for c in range(1, 6)]
SIZES_3D = [(x, y, z) for x in range(1, 4) for y in range(1, 4) for z in range(1, 4)]

#: generator -> (sizes, smallest size per axis, name prefix, SHA-256 of
#: ``sys_edge`` over the valid sizes in order)
GRIDS = {
    "mesh2d": (
        SIZES_2D,
        1,
        "mesh",
        "5bf3435c7cd200251a17fbb450b1d40cec060ac9a69884ad38cdd4a2bf9f9fac",
    ),
    "torus2d": (
        SIZES_2D,
        2,
        "torus",
        "faf36f93b24dc1967bedf57aad7ecadd33b74874d8b2b7dfb306751e98cf1414",
    ),
    "mesh3d": (
        SIZES_3D,
        1,
        "mesh3d",
        "5796cba56d22ad885f70c9a6f65e0c7309c69ade0061666937f292e6555f0be2",
    ),
    "torus3d": (
        SIZES_3D,
        2,
        "torus3d",
        "61bac811372d4cb03eb3f80367fc55b7bee926242917f0b9701a9037d9cf2f55",
    ),
}


@pytest.mark.parametrize("name", list(GRIDS))
def test_grids_are_pinned(name):
    generator = {"mesh2d": mesh2d, "torus2d": torus2d, "mesh3d": mesh3d, "torus3d": torus3d}[name]
    sizes, smallest, prefix, expected = GRIDS[name]
    systems = []
    for dims in sizes:
        if min(dims) < smallest:
            with pytest.raises(GraphError, match=f"dimensions must be >= {smallest}"):
                generator(*dims)
            continue
        system = generator(*dims)
        assert system.name == f"{prefix}-" + "x".join(map(str, dims))
        systems.append(system.sys_edge)
    assert _digest(*systems) == expected


#: generator -> (sizes, SHA-256 of ``sys_edge`` over them in order); the
#: chain and ring are 1-D grids and the ``d``-cube a 2 x ... x 2 one
LINES_AND_CUBES = {
    "chain": (
        range(1, 9),
        "c0827a0862a464dfc5a6a21b91c89415960f6870c68b739d92ec6aa7b7931f3f",
    ),
    "ring": (
        range(3, 9),
        "9ec8b53a524a8d3860562385b751c5f3051f47088b0299ba907045c00c067b0a",
    ),
    "hypercube": (
        range(0, 6),
        "50bc3f00fa8ffb652b65141e8e776faede77e7bfa598eb3e7d777638708a5372",
    ),
}


@pytest.mark.parametrize("name", list(LINES_AND_CUBES))
def test_lines_and_cubes_are_pinned(name):
    generator = {"chain": chain, "ring": ring, "hypercube": hypercube}[name]
    sizes, expected = LINES_AND_CUBES[name]
    assert _digest(*(generator(k).sys_edge for k in sizes)) == expected


#: graph -> (SHA-256 of ``topological_order``, of the ``linear`` labels
#: with 6 clusters, of the ``dsc`` labels with 8 clusters, of the
#: ``edge_zero`` labels with 8 clusters)
TRAVERSAL = {
    "layered_random-60": (
        "235ddc9324549791831741b4e06c3fbb59412b8bb7facf7ed488f99263c73fb0",
        "47811c473fc68d9af2bad7a3776eab8b729ac3e957daea17aa9ab51af242d618",
        "df6e113c87c97d0ea0b6a70049d3477e7a8d2ddc68518b396a8f63e58a38969d",
        "efeb7444757d3be9f3d6dcb123f79c0ba4620661de909ccfe2b2917a473b91ab",
    ),
    "gnp-40": (
        "6187a369996f07a32361093128d1a823891db4d836b3f58c8c54b07792fa44a8",
        "f6b3912110e84c93408fab14c43b22d8841d8a2fe8610609f03fd72149659373",
        "905ea460cc95e6d9ca10cee47ba3c82504979a914f53d170c5a16e40e07def27",
        "d33d291197a24d1ec8113da838c8c04f2681a957eb6e02ad2038c609a8e99e49",
    ),
    "series_parallel-3x3": (
        "751ee5ca4a64286098249f67de8b6c5ac3b96cf8b0e0f348fa8503b882087332",
        "6e7a5122a68584da4fcfffbc36561a20feb5ea43f0ef7be868b211e0e9c587f0",
        "167264632fc0f9fda346da697ce8035974e225c5ceec74dd6476959edc8bcb1f",
        "c0f190f86cd2f4f896fb351b095faa8e07889b1f48bc483c2949854eda9ee41c",
    ),
    "divide_conquer-4": (
        "9e13e92a91eeb879457d7471df9837aca99bff0ad4f713f261e5690b8d37612d",
        "661b6586c79210c9c8a80f6df45799879e5bbf24dd8dd4c024ff06535ee20430",
        "e96b1c0c3622a0d5aad9937979f20346c73c483b0c2123685707cddc6385586d",
        "3e97f57e12587c2b12675e1978f9818178a032a3cd5573ce998a5053294e7817",
    ),
    "layered_random-50-relabeled": (
        "035d7584409108e4839c308c409c648f99f32f71d25adf4c67b66f64b61ceec8",
        "8bd1f7786fc9884a090fa604b367104a5e947001767529c0d9f6a15a65279e44",
        "3ec9331113911ec046b72ab51d3463962cf13d11954686faa23a8ee19cdf20cd",
        "cef1d46f1de1962c4df202bce6cb8d3f71b8b6c8c33e716f58acf64d54ebe92f",
    ),
    "layered_random-300": (
        "4262766dfacd73bf8e781bc359229608ea9807bc905d9263fa65f8483c7b530f",
        "f1425b1940ab9980b86d6d8ba2b2e1a0e1139a44ccab440e353481c3b3dc2c44",
        "31d9f9cef3e0658658a5c1f61865b521ab00aa0210bc57f55f5c26d68bdbbc7c",
        "1affc0a2edd9edb56c720643cc0a09d9ec16e286a6e75f48d27fa8af0a828eeb",
    ),
}


def _traversal_graph(key: str):
    return {
        "layered_random-60": lambda: build_workload(
            "layered_random", {"num_tasks": 60}, rng=3
        ),
        "gnp-40": lambda: build_workload(
            "gnp", {"num_tasks": 40, "edge_prob": 0.15}, rng=5
        ),
        "series_parallel-3x3": lambda: build_workload(
            "series_parallel", {"depth": 3, "branching": 3}, rng=2
        ),
        "divide_conquer-4": lambda: build_workload("divide_conquer", {"levels": 4}),
        "layered_random-50-relabeled": lambda: build_workload(
            "layered_random", {"num_tasks": 50}, rng=7
        ).relabeled(np.random.default_rng(11).permutation(50)),
        "layered_random-300": lambda: build_workload(
            "layered_random", {"num_tasks": 300}, rng=0
        ),
    }[key]()


@pytest.mark.parametrize("key", list(TRAVERSAL))
def test_traversal_is_pinned(key):
    graph = _traversal_graph(key)
    got = (
        _digest(graph.topological_order),
        _digest(LinearClusterer(6).cluster(graph, rng=0).labels),
        _digest(DscClusterer(8).cluster(graph, rng=0).labels),
        _digest(EdgeZeroClusterer(8).cluster(graph, rng=0).labels),
    )
    assert got == TRAVERSAL[key]


#: (graph, clusters) -> (``dsc`` labels, ``edge_zero`` labels) where the
#: merges run out of cut pairs and merge the two lowest cluster ids: an
#: edgeless graph, and one whose only edge runs from a higher id to a
#: lower one
MERGE_FALLBACK = {
    ("edgeless", 2): ([0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1]),
    ("edgeless", 3): ([0, 0, 0, 0, 1, 2], [0, 0, 0, 0, 1, 2]),
    ("high-to-low", 2): ([0, 0, 0, 1, 0], [0, 1, 1, 1, 0]),
    ("high-to-low", 3): ([0, 0, 1, 2, 0], [0, 1, 1, 2, 0]),
}


@pytest.mark.parametrize("case", list(MERGE_FALLBACK))
def test_merge_fallback_is_pinned(case):
    name, clusters = case
    graph = {
        "edgeless": lambda: TaskGraph([3, 1, 4, 1, 5, 9]),
        "high-to-low": lambda: TaskGraph([1] * 5, [(4, 0, 5)]),
    }[name]()
    got = (
        DscClusterer(clusters).cluster(graph).labels.tolist(),
        EdgeZeroClusterer(clusters).cluster(graph).labels.tolist(),
    )
    assert got == MERGE_FALLBACK[case]


#: the fidelity configurations the simulator is pinned under
SIM_CONFIGS = {
    "paper": SimConfig(),
    "serialized": SimConfig(True, False),
    "contention": SimConfig(False, True),
    "serialized+contention": SimConfig(True, True),
    "fifo=1": SimConfig(True, True, fifo_depth=1),
    "fifo=2": SimConfig(False, True, fifo_depth=2),
    "setup=3": SimConfig(True, True, link_setup=3),
}

#: (machine, config) -> (makespan, max_link_utilization, fifo_stall_time,
#: max_queue_depth, SHA-256 of ``start`` and ``end``, SHA-256 of the
#: ``write_trace_jsonl`` bytes)
SIMULATION = {
    ("hypercube:3", "paper"): (
        159, 4.10062893081761, 0, 98,
        "9ae8b470dbac9ba217ccf8e459ea41f6f462abde5df8cbce1769f882d108609d",
        "3ea9b58e8a9eddd5b4b4bbfe0835854bb234f485d36c0ff6bfe29e4c5ad867ba",
    ),
    ("hypercube:3", "serialized"): (
        298, 2.1879194630872485, 0, 80,
        "3b12455fc141573cb83c4593ffb8765d73ccee96397ca8c2736393f731477175",
        "7b6c8fb5ca5bbc503523b3ce45201875d4f6576ef86ce991113fa1b3e1d23e3e",
    ),
    ("hypercube:3", "contention"): (
        724, 0.9005524861878453, 0, 53,
        "a41ec44bab3a98095ec684d45e9498452fdca2d29550feee60ddd1e13f3ccaaf",
        "d29dfb03691977cef62257314f8d06980fe85d3160ac4aab6ee88658efcd9c14",
    ),
    ("hypercube:3", "serialized+contention"): (
        719, 0.9068150208623088, 0, 54,
        "5f435f49b42399932e8e31193e9910bf860d8cad0690d4587adaf5bee4c73479",
        "8015bd4fdd41fdb7dd79d6841c701e7c33375bf9d9b03a1ebf843c03979eed9e",
    ),
    ("hypercube:3", "fifo=1"): (
        719, 0.9068150208623088, 34305, 1,
        "5f435f49b42399932e8e31193e9910bf860d8cad0690d4587adaf5bee4c73479",
        "1a82762187e739028cd6bbdef4e422b92297236b74a67e0da4eb9e69dad02b22",
    ),
    ("hypercube:3", "fifo=2"): (
        724, 0.9005524861878453, 31504, 2,
        "a41ec44bab3a98095ec684d45e9498452fdca2d29550feee60ddd1e13f3ccaaf",
        "3f32ba9f5e9415540c6e78af560e264216c65a2e931f72cadcb7de992f8597d0",
    ),
    ("hypercube:3", "setup=3"): (
        1098, 0.924408014571949, 0, 54,
        "68a785e4aa67dd446aeea10b99b7cf9bd5e366231798059384f282f4066bbabe",
        "8944272b1c0fcb772f1bcec8093e2eb538b22d5bc157da8b987ab3affe04eed1",
    ),
    ("mesh2d:3x3", "paper"): (
        176, 3.5568181818181817, 0, 86,
        "54ca8cfa703ce32a5e84be400fc2146ff840589c44dd51a2480ce706a381ee93",
        "c8073722880cd6285eb515349ce8d5000beb3e9799d629c4d1be846182e28f31",
    ),
    ("mesh2d:3x3", "serialized"): (
        288, 2.173611111111111, 0, 65,
        "b4f8582b84504f43306253431b6a6e1e7398a855c5ef97d1b5b5e7dde326c6f4",
        "62e884c9cd8f76ea120224c99952c477c8d226072ba187de803f7354541ead6a",
    ),
    ("mesh2d:3x3", "contention"): (
        709, 0.8829337094499294, 0, 27,
        "e5c45349d453bd4a65941bea8df7ca89e9578582d40cc20bb682dedfd93d5fcc",
        "5fa73cdfa87f0c8dc76fc726df6c75752e6a063a75bb6c92137f0a6c2469a9b7",
    ),
    ("mesh2d:3x3", "serialized+contention"): (
        711, 0.8804500703234881, 0, 28,
        "6c1ca2f6027b5ae6e152fbf6cad90fc5b19877a07572717875621296889c7537",
        "428dcdebb409d2c14791ddcf09fc7c29cdd4afa24cbec67cdfa12b624e8a0e14",
    ),
    ("mesh2d:3x3", "fifo=1"): (
        711, 0.8804500703234881, 37183, 1,
        "6c1ca2f6027b5ae6e152fbf6cad90fc5b19877a07572717875621296889c7537",
        "3eb09a7b7226574da1ce48c1f3212eb198709e6e96714f2faf92b0ab8fd84c21",
    ),
    ("mesh2d:3x3", "fifo=2"): (
        709, 0.8829337094499294, 33489, 2,
        "e5c45349d453bd4a65941bea8df7ca89e9578582d40cc20bb682dedfd93d5fcc",
        "f8b2bfea2887e401b806e823b150ad72f3b2501851f1430bcf60a73e63a0af58",
    ),
    ("mesh2d:3x3", "setup=3"): (
        1044, 0.9128352490421456, 0, 29,
        "42025613c388baba0543e478f8fcc5429d4757ff19f40deed51fed72c8d69796",
        "0ca068748c77876e171139975aa0f93d6178cf350de78fbcdb70b940cec656a9",
    ),
    ("random:8", "paper"): (
        162, 5.469135802469136, 0, 134,
        "d3f83220137b092f4b824412eab2c337c08619348b4e3795e762802e23bc3f79",
        "2257602a566ca55d651153322f1ebfaef2d5cd921aeeb0df4af61c5b2af84247",
    ),
    ("random:8", "serialized"): (
        303, 2.924092409240924, 0, 114,
        "00085ba53d8416c0db55f9d70cedc19e900b2ad761b92caf7dbbc4aa6bac358e",
        "d34366e0afdc3c8420616c8ad032d910edf22e14d8a6c40ed32829f8c92e6f5e",
    ),
    ("random:8", "contention"): (
        916, 0.9672489082969432, 0, 55,
        "531cef42a65d537d9205434ba431cb00fd66fa38a5b9a1d116ffb8ffbbdc2a85",
        "6df36d837c4689f9543c058b38f5221861e78a720b328f340491aa9985a198df",
    ),
    ("random:8", "serialized+contention"): (
        919, 0.9640914036996736, 0, 52,
        "77833c398eb21338ce1541c1f92dd0f8df0abff9c7c2e3c5f4d2c2db91b6870d",
        "82411771fdf6d2afbe55d60f7e4a1b42009d37142fe3eaba9fd272c9a2f28b1a",
    ),
    ("random:8", "fifo=1"): (
        919, 0.9640914036996736, 51320, 1,
        "77833c398eb21338ce1541c1f92dd0f8df0abff9c7c2e3c5f4d2c2db91b6870d",
        "68754b5e4db02be392829cd0f3b58c31a424bf70be3ed58c5bb2dcc726186d38",
    ),
    ("random:8", "fifo=2"): (
        916, 0.9672489082969432, 48822, 2,
        "531cef42a65d537d9205434ba431cb00fd66fa38a5b9a1d116ffb8ffbbdc2a85",
        "3404d4f07705ef0e045a432c0cd001db448f99702aaf59099fca7b3240aa41aa",
    ),
    ("random:8", "setup=3"): (
        1384, 0.9783236994219653, 0, 52,
        "94bf2bc5aabf3e90394366ec2a685b5eeee770150b138f43d608756c39449253",
        "7d473dbb3967f6d4ca7ff97ce8bb97926cd5cede5f7af052b578c2be99cdf68c",
    ),
    ("ring-4-w01", "paper"): (
        161, 5.552795031055901, 0, 139,
        "94383c1b9b25aaa00f1ec840d65b30177583174344ccc64f2b66d431fbac5fe4",
        "fb6d30456feb4e9bca2f7cfb09643de50b886c657ae4d9d0d7837a4ba032e80e",
    ),
    ("ring-4-w01", "serialized"): (
        505, 1.7702970297029703, 0, 79,
        "a01db0a00b4a45cc5e7d8727af9ae4518a641912d501a18d954a4e59bdbfae99",
        "c33bd5743d4c6458b41e3bc156daac670b1c92c35704040ffb9479c078353d58",
    ),
    ("ring-4-w01", "contention"): (
        906, 0.9867549668874173, 0, 41,
        "02d984b4851e3f2175b2c35108e5186a510a31c1ff355dda115c103d1bf6a860",
        "e743a4a8575997732cb135e188b0191591b9fb9c3511d52462f6e8ac84a0e13e",
    ),
    ("ring-4-w01", "serialized+contention"): (
        918, 0.9738562091503268, 0, 41,
        "6adaf96f1c5a61c29d4c36093b28605daef65ef50a52df6f87626d71be53eb8d",
        "5070ad20173fe7958891a701b7c29d87ab188efed8c7eb9969717219f0ad4a5e",
    ),
    ("ring-4-w01", "fifo=1"): (
        918, 0.9738562091503268, 54017, 1,
        "6adaf96f1c5a61c29d4c36093b28605daef65ef50a52df6f87626d71be53eb8d",
        "db632b55d42b5cfc77ec39d3e6880e290536d891efaa2268656b0287b4600a48",
    ),
    ("ring-4-w01", "fifo=2"): (
        906, 0.9867549668874173, 53082, 2,
        "02d984b4851e3f2175b2c35108e5186a510a31c1ff355dda115c103d1bf6a860",
        "04e21ccd9cb60a875007145f52c2819f7fd49e20ca6f619e8798ca5a7f7b2e17",
    ),
    ("ring-4-w01", "setup=3"): (
        1406, 0.9772403982930299, 0, 45,
        "9086a69a0dd79158b6ba914fafa8a3b13e8660b638c7a952e9dc77e0d3266771",
        "aba2405001915f29a9fe9af89d966aac9948bb30c530d9cdf0b37f75e768c7f4",
    ),
}


@pytest.fixture(scope="module")
def sim_instances():
    """machine -> (clustered, system, assignment) for a 300-task instance."""
    systems = {
        "hypercube:3": build_topology("hypercube:3"),
        "mesh2d:3x3": build_topology("mesh2d:3x3"),
        "random:8": build_topology("random:8", rng=SEED),
        "ring-4-w01": weighted_ring4(),
    }
    graph = build_workload("layered_random", {"num_tasks": 300}, rng=SEED)
    out = {}
    for key, system in systems.items():
        clustering = RandomClusterer(system.num_nodes).cluster(graph, rng=SEED)
        assignment = Assignment.random(system.num_nodes, rng=SEED)
        out[key] = (ClusteredGraph(graph, clustering), system, assignment)
    return out


@pytest.mark.parametrize("key", list(SIMULATION))
def test_simulation_is_pinned(sim_instances, key, tmp_path):
    machine, config = key
    clustered, system, assignment = sim_instances[machine]
    result = simulate(clustered, system, assignment, SIM_CONFIGS[config])
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(result, path)
    got = (
        result.makespan,
        result.max_link_utilization,
        result.fifo_stall_time,
        result.max_queue_depth,
        _digest(result.start, result.end),
        hashlib.sha256(path.read_bytes()).hexdigest(),
    )
    assert got == SIMULATION[key]
