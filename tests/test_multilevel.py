"""Multilevel coarsen–map–refine mapper (``repro.core.multilevel``).

Locks down the coarsening invariants (valid projection maps, work and
communication conservation across contraction levels, the cheapest
member link on weighted machines against a per-link oracle), the four
array-built hierarchy steps against the sorting loops they replaced
(``tests/conftest.py``'s oracles: the abstract graph's cluster-pair sums,
heavy-edge matching, graph contraction and processor pairing, on tied
weights, edges running high to low, every merge budget and every
topology family), the contraction's dense-size limit, the projection's
bijection guarantee at every level, the refinement's neighbour order
against a per-row sort, the ``max_levels=1`` bit-identity contract with
the plain sub-mapper, the adapter's MapOutcome contract, nested
sub-mapper parameters reaching the service fingerprint, and the
registry's near-miss suggestions.
"""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.api import (
    UnknownMapperError,
    available_mappers,
    build_topology,
    get_mapper,
    solve_instance,
)
from repro.api.scenario import Scenario
from repro.clustering import RandomClusterer
from repro.core import (
    AbstractGraph,
    Assignment,
    ClusteredGraph,
    TaskGraph,
    build_hierarchy,
    evaluate_assignment,
    verify_schedule,
)
from repro.core.multilevel import (
    abstract_taskgraph,
    contract_graph,
    heavy_edge_matching,
    match_processors,
    project_assignment,
    refine_metric,
)
from repro.service.fingerprint import instance_fingerprint
from repro.topology import SystemGraph, hypercube, mesh2d
from repro.utils import GraphError, MappingError
from repro.workloads import layered_random_dag
from tests.conftest import (
    TOPOLOGY_SPECS,
    oracle_abstract_weights,
    oracle_contract_graph,
    oracle_contracted_link_weights,
    oracle_heavy_edge_matching,
    oracle_match_processors,
)


def make_instance(num_tasks=120, num_clusters=16, rng=3, system=None):
    graph = layered_random_dag(num_tasks=num_tasks, rng=rng)
    clustering = RandomClusterer(num_clusters=num_clusters).cluster(graph, rng=rng)
    return ClusteredGraph(graph, clustering), system or hypercube(4)


@pytest.fixture(scope="module")
def instance():
    return make_instance()


class TestAbstractTaskGraph:
    def test_conserves_communication(self, instance):
        clustered, _ = instance
        level0 = abstract_taskgraph(clustered)
        assert level0.total_comm == clustered.cut_weight()

    def test_node_sizes_are_cluster_loads(self, instance):
        clustered, _ = instance
        level0 = abstract_taskgraph(clustered)
        expected = clustered.clustering.load(clustered.graph)
        assert np.array_equal(level0.task_sizes, expected)
        assert level0.total_work == clustered.graph.total_work

    def test_is_a_dag_with_low_to_high_edges(self, instance):
        clustered, _ = instance
        level0 = abstract_taskgraph(clustered)
        # Edges only run low id -> high id, so the matrix is strictly
        # upper triangular (TaskGraph construction already rejects cycles).
        assert not np.tril(level0.prob_edge).any()


class TestHierarchy:
    def test_sizes_shrink_and_respect_floor(self, instance):
        clustered, system = instance
        h = build_hierarchy(clustered, system, min_coarse_tasks=2)
        sizes = h.sizes()
        assert sizes[0] == clustered.num_clusters
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert all(s >= 2 for s in sizes)

    def test_every_level_keeps_na_equal_ns(self, instance):
        clustered, system = instance
        h = build_hierarchy(clustered, system, min_coarse_tasks=2)
        for level in h.levels:
            assert level.graph.num_tasks == level.system.num_nodes

    def test_comm_volume_conserved_across_contraction(self, instance):
        clustered, system = instance
        h = build_hierarchy(clustered, system, min_coarse_tasks=2)
        assert h.num_levels > 2
        for fine, coarse in zip(h.levels, h.levels[1:]):
            assert (
                coarse.graph.total_comm + fine.absorbed == fine.graph.total_comm
            )
        total_absorbed = sum(level.absorbed for level in h.levels)
        assert (
            h.coarsest.graph.total_comm + total_absorbed
            == h.levels[0].graph.total_comm
        )

    def test_work_conserved_across_contraction(self, instance):
        clustered, system = instance
        h = build_hierarchy(clustered, system, min_coarse_tasks=2)
        for level in h.levels:
            assert level.graph.total_work == clustered.graph.total_work

    def test_projection_maps_are_dense_surjections(self, instance):
        clustered, system = instance
        h = build_hierarchy(clustered, system, min_coarse_tasks=2)
        for fine, coarse in zip(h.levels, h.levels[1:]):
            for mapping in (fine.node_map, fine.proc_map):
                assert mapping.size == fine.graph.num_tasks
                assert set(mapping.tolist()) == set(
                    range(coarse.graph.num_tasks)
                )
        assert h.coarsest.node_map is None
        assert h.coarsest.proc_map is None

    def test_max_levels_one_disables_coarsening(self, instance):
        clustered, system = instance
        h = build_hierarchy(clustered, system, max_levels=1)
        assert h.num_levels == 1
        assert h.coarsest.graph.num_tasks == clustered.num_clusters

    def test_bad_arguments_rejected(self, instance):
        clustered, system = instance
        with pytest.raises(MappingError, match="max_levels"):
            build_hierarchy(clustered, system, max_levels=0)
        with pytest.raises(MappingError, match="min_coarse_tasks"):
            build_hierarchy(clustered, system, min_coarse_tasks=0)

    def test_matching_is_disjoint_and_bounded(self, instance):
        clustered, _ = instance
        level0 = abstract_taskgraph(clustered)
        pairs = heavy_edge_matching(level0, max_merges=5)
        assert len(pairs) <= 5
        touched = [node for pair in pairs for node in pair]
        assert len(touched) == len(set(touched))

    def test_processor_matching_validates_budget(self):
        system = mesh2d(2, 3)
        with pytest.raises(MappingError, match="merge"):
            match_processors(system, 4)
        pairs = match_processors(system, 3)
        assert len(pairs) == 3

    def test_weighted_links_survive_contraction(self):
        from repro.core.multilevel import contract_system
        from repro.topology.base import SystemGraph

        adj = np.zeros((4, 4), dtype=np.int64)
        weights = np.zeros((4, 4), dtype=np.int64)
        for u, v, w in [(0, 1, 5), (1, 2, 2), (2, 3, 7), (3, 0, 3)]:
            adj[u, v] = adj[v, u] = 1
            weights[u, v] = weights[v, u] = w
        system = SystemGraph(adj, name="ring4", link_weights=weights)
        coarse, proc_map = contract_system(system, [(0, 1), (2, 3)])
        assert coarse.is_weighted
        # The two coarse nodes are linked by both the 1-2 (cost 2) and
        # 3-0 (cost 3) fine links; the cheapest member link survives.
        assert coarse.link_weight(0, 1) == 2

    def test_unweighted_contraction_stays_unweighted(self):
        from repro.core.multilevel import contract_system

        coarse, _ = contract_system(hypercube(3), [(0, 1), (2, 3)])
        assert not coarse.is_weighted

    @pytest.mark.parametrize("family", sorted(TOPOLOGY_SPECS))
    @pytest.mark.parametrize("top", [3, 10**6])
    def test_weighted_contraction_matches_the_oracle(self, family, top):
        """Random link costs on one machine per family, contracted as a
        hierarchy does it (as many nearest pairs as possible), then
        contracted once more: every coarse link keeps its cheapest member
        link, and the distances are those of a machine built from the
        oracle's costs."""
        from repro.core.multilevel import contract_system

        system = build_topology(TOPOLOGY_SPECS[family], rng=0)
        n = system.num_nodes
        costs = np.random.default_rng(n + top).integers(1, top + 1, size=(n, n))
        system = SystemGraph(system.sys_edge, name=family, link_weights=costs)
        for _ in range(2):
            if system.num_nodes < 2:
                break
            pairs = match_processors(system, system.num_nodes // 2)
            coarse, proc_map = contract_system(system, pairs)
            expected = oracle_contracted_link_weights(system, proc_map)
            assert np.array_equal(coarse.link_weights, expected)
            rebuilt = SystemGraph(expected > 0, link_weights=expected)
            assert np.array_equal(coarse.shortest, rebuilt.shortest)
            system = coarse


def tied_graph(seed: int, num_tasks: int, direction: str = "mixed") -> TaskGraph:
    """A random DAG whose edge weights are 1 or 2, so ties are everywhere.
    ``direction`` ``"mixed"`` numbers the tasks at random, so edges run
    both ways; ``"down"`` makes every edge run from a higher id to a
    lower one."""
    gen = np.random.default_rng(seed)
    lo, hi = np.nonzero(np.triu(gen.random((num_tasks, num_tasks)) < 0.3, 1))
    weights = gen.integers(1, 3, size=lo.size)
    sizes = gen.integers(1, 6, size=num_tasks)
    if direction == "down":
        return TaskGraph.from_edge_arrays(sizes, hi, lo, weights, name="down")
    perm = gen.permutation(num_tasks)
    return TaskGraph.from_edge_arrays(sizes, perm[lo], perm[hi], weights, name="mixed")


TIED_GRAPHS = [(seed, 12 + 7 * seed, "mixed") for seed in range(4)] + [
    (7, 30, "down"),
    (8, 5, "mixed"),
]
TIED_IDS = ["-".join(map(str, case)) for case in TIED_GRAPHS]


def assert_same_graph(got: TaskGraph, expected: TaskGraph) -> None:
    assert got.name == expected.name
    assert np.array_equal(got.task_sizes, expected.task_sizes)
    for accessor in ("edge_arrays", "in_edge_arrays"):
        for a, b in zip(getattr(got, accessor)(), getattr(expected, accessor)()):
            assert np.array_equal(a, b)
    assert np.array_equal(got.out_indptr, expected.out_indptr)
    assert np.array_equal(got.in_indptr, expected.in_indptr)
    assert np.array_equal(got.prob_edge, expected.prob_edge)


def tied_machines() -> list[SystemGraph]:
    """One machine per topology family, seeded ``random:N`` machines, a
    2-D mesh with an odd side, machines whose link costs are 1 or 2 (so
    distances tie across hop counts) or 1-4, one whose costs run to a
    million (so nearly every distance is its own class), and a
    contracted machine."""
    machines = [build_topology(spec, rng=0) for spec in TOPOLOGY_SPECS.values()]
    machines += [build_topology("random:14", rng=seed) for seed in range(1, 4)]
    machines.append(mesh2d(3, 5))
    weighted = [
        ("mesh2d:3x4", 2), ("torus2d:4x4", 2), ("random:12", 2), ("hypercube:4", 2),
        ("random:16", 4), ("torus2d:4x4", 10**6),
    ]
    for seed, (spec, top) in enumerate(weighted):
        base = build_topology(spec, rng=seed)
        n = base.num_nodes
        costs = np.random.default_rng(seed).integers(1, top + 1, size=(n, n))
        machines.append(
            SystemGraph(base.sys_edge, name=f"{spec}+w{top}", link_weights=costs)
        )
    from repro.core.multilevel import contract_system

    cube = hypercube(5)
    machines.append(contract_system(cube, match_processors(cube, 11))[0])
    return machines


class TestAgainstTheOracles:
    """The array-built hierarchy steps return exactly what the sorting
    loops in ``tests/conftest.py`` return."""

    @pytest.mark.parametrize("case", TIED_GRAPHS, ids=TIED_IDS)
    def test_heavy_edge_matching_for_every_budget(self, case):
        graph = tied_graph(*case)
        for max_merges in range(graph.num_tasks + 1):
            assert heavy_edge_matching(graph, max_merges) == oracle_heavy_edge_matching(
                graph, max_merges
            ), max_merges

    @pytest.mark.parametrize("case", TIED_GRAPHS, ids=TIED_IDS)
    def test_contract_graph_for_every_budget(self, case):
        graph = tied_graph(*case)
        for max_merges in range(graph.num_tasks + 1):
            pairs = oracle_heavy_edge_matching(graph, max_merges)
            coarse, node_map, absorbed = contract_graph(graph, pairs)
            expected, expected_map, expected_absorbed = oracle_contract_graph(graph, pairs)
            assert_same_graph(coarse, expected)
            assert np.array_equal(node_map, expected_map)
            assert absorbed == expected_absorbed
            assert coarse.total_comm + absorbed == graph.total_comm

    def test_contract_graph_merges_any_disjoint_pairs(self):
        """Pairs with no edge between them, given high id first."""
        graph = tied_graph(7, 30, "down")
        order = np.random.default_rng(5).permutation(30)
        pairs = [(int(a), int(b)) for a, b in zip(order[0:20:2], order[1:20:2])]
        coarse, node_map, absorbed = contract_graph(graph, pairs)
        expected, expected_map, expected_absorbed = oracle_contract_graph(graph, pairs)
        assert_same_graph(coarse, expected)
        assert np.array_equal(node_map, expected_map)
        assert absorbed == expected_absorbed > 0

    def test_edgeless_graph(self):
        graph = TaskGraph([3, 1, 2, 5])
        assert heavy_edge_matching(graph, 2) == []
        coarse, node_map, absorbed = contract_graph(graph, [(2, 0)])
        assert_same_graph(coarse, oracle_contract_graph(graph, [(2, 0)])[0])
        assert node_map.tolist() == [0, 1, 0, 2]
        assert absorbed == 0

    @pytest.mark.parametrize("system", tied_machines(), ids=lambda s: s.name)
    def test_match_processors_for_every_budget(self, system):
        for num_merges in range(1, system.num_nodes // 2 + 1):
            assert match_processors(system, num_merges) == oracle_match_processors(
                system, num_merges
            ), num_merges

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("num_clusters", [1, 5, 16])
    def test_abstract_weights(self, seed, num_clusters):
        graph = layered_random_dag(num_tasks=80, rng=seed)
        clustering = RandomClusterer(num_clusters=num_clusters).cluster(graph, rng=seed)
        clustered = ClusteredGraph(graph, clustering)
        abstract = AbstractGraph(clustered)
        expected = oracle_abstract_weights(clustered)
        assert np.array_equal(abstract.weights, expected)
        assert np.array_equal(abstract.abs_edge, (expected > 0).astype(np.int64))
        assert np.array_equal(abstract.mca, expected.sum(axis=1))

    def test_contraction_above_the_dense_limit_is_refused_unallocated(self):
        """20,001 nodes would need a 3.2 GB matrix: the contraction raises
        before it allocates anything of that order."""
        graph = TaskGraph(np.ones(20_001, dtype=np.int64))
        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match="limit 20000"):
                contract_graph(graph, [])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


class TestProjection:
    def test_projected_assignments_are_valid_at_every_level(self, instance):
        clustered, system = instance
        h = build_hierarchy(clustered, system, min_coarse_tasks=2)
        assignment = Assignment.random(h.coarsest.graph.num_tasks, rng=9)
        for level in reversed(h.levels[:-1]):
            assignment = project_assignment(level, assignment)
            # Assignment construction enforces the bijection; make the
            # invariant explicit anyway.
            assert np.array_equal(
                np.sort(assignment.placement), np.arange(level.graph.num_tasks)
            )
        assert assignment.size == clustered.num_clusters

    def test_final_mapping_passes_the_independent_oracle(self, instance):
        clustered, system = instance
        outcome = solve_instance(
            clustered, system, mapper="multilevel", rng=5, min_coarse_tasks=2
        )
        schedule = evaluate_assignment(clustered, system, outcome.assignment)
        verify_schedule(schedule)
        assert schedule.total_time == outcome.total_time
        assert schedule.communication_volume() == outcome.extras["comm_volume"]

    def test_refinement_never_increases_comm_volume(self, instance):
        clustered, system = instance
        level0 = abstract_taskgraph(clustered)
        start = Assignment.random(clustered.num_clusters, rng=17)
        _, before, _, _ = refine_metric(level0, system, start, passes=0)
        refined, after, probes, swaps = refine_metric(
            level0, system, start, passes=4
        )
        assert after <= before
        assert probes >= swaps
        # The level-0 abstract volume is exact for the original instance.
        schedule = evaluate_assignment(clustered, system, refined)
        assert schedule.communication_volume() == after

    def test_neighbor_lists_match_a_per_row_sort(self):
        """Heaviest edge first, ties by id, against a sort of each row's
        nonzeros on its own; weights 1-3 make ties common."""
        from repro.core.multilevel import _neighbor_lists

        gen = np.random.default_rng(3)
        weights = gen.integers(1, 4, size=(40, 40)) * (gen.random((40, 40)) < 0.3)
        upper = np.triu(weights, 1)
        sym = upper + upper.T
        got = _neighbor_lists(sym)
        assert len(got) == 40
        for row, nbrs in zip(sym, got):
            ids = np.flatnonzero(row)
            assert nbrs.tolist() == ids[np.lexsort((ids, -row[ids]))].tolist()

    def test_comm_volume_delta_matches_schedule(self, instance):
        """CommVolumeDelta must track the schedule's communication volume
        exactly over random committed swap sequences."""
        from repro.core import CommVolumeDelta

        clustered, system = instance
        level0 = abstract_taskgraph(clustered)
        n = level0.num_tasks
        shadow = Assignment.random(n, rng=23)
        light = CommVolumeDelta(level0.prob_edge, system, shadow)

        def volume(assignment):
            schedule = evaluate_assignment(clustered, system, assignment)
            return schedule.communication_volume()

        assert light.volume == volume(shadow)
        gen = np.random.default_rng(23)
        for _ in range(40):
            a, b = (int(x) for x in gen.choice(n, size=2, replace=False))
            swapped = shadow.swapped(a, b)
            assert light.delta_swap(a, b) == volume(swapped) - volume(shadow)
            light.swap(a, b)
            shadow = swapped
            assert light.volume == volume(shadow)
        assert light.assignment == shadow

    def test_contract_graph_records_absorbed_weight(self, instance):
        clustered, _ = instance
        level0 = abstract_taskgraph(clustered)
        pairs = heavy_edge_matching(level0, max_merges=level0.num_tasks // 2)
        coarse, node_map, absorbed = contract_graph(level0, pairs)
        assert coarse.total_comm + absorbed == level0.total_comm
        assert node_map.size == level0.num_tasks

    def test_project_requires_matching_sizes(self, instance):
        clustered, system = instance
        h = build_hierarchy(clustered, system, min_coarse_tasks=2)
        with pytest.raises(MappingError, match="coarsest"):
            project_assignment(h.coarsest, Assignment.identity(2))
        wrong = Assignment.identity(h.levels[0].graph.num_tasks)
        with pytest.raises(MappingError, match="coarse assignment"):
            project_assignment(h.levels[0], wrong)


class TestBitIdentity:
    """``multilevel(initial=X, max_levels=1)`` must equal plain ``X``."""

    @pytest.mark.parametrize("sub", ["critical", "tabu", "annealing"])
    def test_identical_to_sub_mapper(self, instance, sub):
        clustered, system = instance
        plain = solve_instance(clustered, system, mapper=sub, rng=42)
        wrapped = solve_instance(
            clustered, system, mapper="multilevel", rng=42, initial=sub, max_levels=1
        )
        assert wrapped.assignment == plain.assignment
        assert wrapped.total_time == plain.total_time
        assert wrapped.evaluations == plain.evaluations
        assert wrapped.reached_lower_bound == plain.reached_lower_bound
        assert wrapped.mapper == "multilevel"
        assert wrapped.extras["levels"] == 1.0

    def test_small_graph_skips_coarsening(self):
        clustered, system = make_instance(num_tasks=24, num_clusters=4, system=hypercube(2))
        outcome = solve_instance(clustered, system, mapper="multilevel", rng=1)
        # 4 clusters <= min_coarse_tasks=8: the hierarchy collapses and
        # the default critical sub-mapper solves the original instance.
        assert outcome.extras["levels"] == 1.0
        plain = solve_instance(clustered, system, mapper="critical", rng=1)
        assert outcome.assignment == plain.assignment


class TestAdapter:
    def test_registered(self):
        assert "multilevel" in available_mappers()

    def test_params_reach_the_factory(self):
        mapper = get_mapper(
            "multilevel",
            initial="annealing",
            initial_params={"cooling": 0.9},
            max_levels=3,
            min_coarse_tasks=4,
            refine_passes=2,
        )
        assert mapper.initial == "annealing"
        assert mapper.initial_params == {"cooling": 0.9}
        assert mapper.max_levels == 3
        assert mapper.min_coarse_tasks == 4
        assert mapper.refine_passes == 2

    def test_invalid_params_fail_fast(self):
        with pytest.raises(MappingError, match="max_levels"):
            get_mapper("multilevel", max_levels=0)
        with pytest.raises(MappingError, match="min_coarse_tasks"):
            get_mapper("multilevel", min_coarse_tasks=0)
        with pytest.raises(MappingError, match="refine_passes"):
            get_mapper("multilevel", refine_passes=-1)
        with pytest.raises(UnknownMapperError):
            get_mapper("multilevel", initial="no_such_mapper")
        with pytest.raises(TypeError):
            get_mapper("multilevel", initial="tabu", initial_params={"bogus": 1})

    def test_picklable(self):
        mapper = get_mapper("multilevel", initial="tabu", min_coarse_tasks=4)
        clone = pickle.loads(pickle.dumps(mapper))
        assert clone.initial == "tabu"
        assert clone.min_coarse_tasks == 4

    def test_deterministic_under_fixed_seed(self, instance):
        clustered, system = instance
        a = solve_instance(
            clustered, system, mapper="multilevel", rng=7, min_coarse_tasks=4
        )
        b = solve_instance(
            clustered, system, mapper="multilevel", rng=7, min_coarse_tasks=4
        )
        assert a.assignment == b.assignment
        assert a.total_time == b.total_time
        assert a.evaluations == b.evaluations

    def test_refine_passes_zero_is_projection_only(self, instance):
        clustered, system = instance
        outcome = solve_instance(
            clustered,
            system,
            mapper="multilevel",
            rng=3,
            min_coarse_tasks=4,
            refine_passes=0,
        )
        assert outcome.extras["refine_swaps"] == 0.0
        assert outcome.extras["levels"] > 1.0
        schedule = evaluate_assignment(clustered, system, outcome.assignment)
        verify_schedule(schedule)

    def test_runs_through_scenarios(self):
        scenario = Scenario(
            workload="layered_random",
            workload_params={"num_tasks": 32},
            topology="hypercube:2",
            mapper="multilevel",
            mapper_params={"min_coarse_tasks": 2, "initial": "critical"},
            seed=4,
        )
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt == scenario
        from repro.api.sweep import run_scenario_once

        outcome = run_scenario_once(scenario, 0)
        assert outcome.mapper == "multilevel"
        assert outcome.total_time >= outcome.lower_bound


class TestFingerprint:
    """Nested sub-mapper parameters must reach the cache key."""

    def test_nested_initial_params_change_the_fingerprint(self, instance):
        clustered, system = instance

        def fp(**params):
            return instance_fingerprint(
                clustered, system, "multilevel", params, seed=1
            )

        base = fp(initial="annealing", initial_params={"cooling": 0.9})
        same = fp(initial="annealing", initial_params={"cooling": 0.9})
        assert base == same
        assert base != fp(initial="annealing", initial_params={"cooling": 0.8})
        assert base != fp(initial="tabu", initial_params={"cooling": 0.9})
        assert base != fp(initial="annealing")

    def test_cached_repeat_is_bit_identical(self, instance):
        clustered, system = instance
        kwargs = dict(
            mapper="multilevel", rng=11, initial="tabu", min_coarse_tasks=4
        )
        first = solve_instance(clustered, system, **kwargs)
        second = solve_instance(clustered, system, **kwargs)
        assert second is first  # served from the service cache


class TestNearMissSuggestions:
    def test_close_name_gets_a_suggestion(self):
        with pytest.raises(UnknownMapperError, match="did you mean 'multilevel'"):
            get_mapper("multilevl")

    def test_typo_of_critical(self):
        with pytest.raises(UnknownMapperError, match="did you mean 'critical'"):
            get_mapper("critcal")

    def test_distant_name_lists_everything(self):
        with pytest.raises(UnknownMapperError, match="available:"):
            get_mapper("zzzzqqqq")

    def test_topology_spec_suggests_too(self):
        from repro.api import UnknownComponentError, parse_topology_spec

        with pytest.raises(UnknownComponentError, match="did you mean 'hypercube'"):
            parse_topology_spec("hypercub:3")

    def test_scenario_axis_suggests_too(self):
        from repro.api.scenario import ScenarioError

        with pytest.raises(ScenarioError, match="did you mean 'multilevel'"):
            Scenario(
                workload="layered_random",
                topology="hypercube:2",
                mapper="multilevell",
            )
