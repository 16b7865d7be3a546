"""Multilevel coarsen–map–refine mapper (``repro.core.multilevel``).

Locks down the coarsening invariants (valid projection maps, work and
communication conservation across contraction levels, the cheapest
member link on weighted machines against a per-link oracle), the
projection's bijection guarantee at every level, the refinement's
neighbour order against a per-row sort, the ``max_levels=1`` bit-identity
contract with the plain sub-mapper, the adapter's MapOutcome contract,
nested sub-mapper parameters reaching the service fingerprint, and the
registry's near-miss suggestions.
"""

import pickle

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
    Assignment,
    ClusteredGraph,
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
from repro.utils import MappingError
from repro.workloads import layered_random_dag
from tests.conftest import TOPOLOGY_SPECS, oracle_contracted_link_weights


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
        sym = level0.prob_edge + level0.prob_edge.T
        light = CommVolumeDelta(sym, system, shadow)

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
