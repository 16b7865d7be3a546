"""Conformance suite for the unified mapper API (``repro.api``).

Every registered mapper must satisfy the same contract on the same
fixture instance: a valid :class:`MapOutcome` whose assignment passes the
independent schedule oracle, total time at or above the ideal lower
bound, and bit-identical results under a fixed seed.  Registry error
paths (duplicate registration, unknown names) and the batch engine's
serial/parallel equivalence are covered here too.
"""

import pytest

import repro
from repro.api import (
    DuplicateMapperError,
    MapOutcome,
    ProblemInstance,
    UnknownMapperError,
    available_mappers,
    compare,
    derive_seed,
    get_mapper,
    params_tag,
    register_mapper,
    solve,
    solve_instance,
    solve_many,
)
from repro.clustering import RandomClusterer
from repro.core import (
    Assignment,
    ClusteredGraph,
    evaluate_assignment,
    verify_schedule,
)
from repro.topology import hypercube, ring
from repro.utils import MappingError
from repro.workloads import layered_random_dag

ALL_MAPPERS = available_mappers()


@pytest.fixture(scope="module")
def small_instance():
    """A seeded 24-task instance on a 2-cube, shared by the conformance runs."""
    graph = layered_random_dag(num_tasks=24, rng=11)
    clustering = RandomClusterer(num_clusters=4).cluster(graph, rng=11)
    return ClusteredGraph(graph, clustering), hypercube(2)


class TestRegistry:
    def test_all_eight_mappers_registered(self):
        assert set(ALL_MAPPERS) >= {
            "critical",
            "random",
            "bokhari",
            "lee",
            "annealing",
            "quenching",
            "genetic",
            "tabu",
        }

    def test_get_mapper_sets_name(self):
        for name in ALL_MAPPERS:
            assert get_mapper(name).name == name

    def test_unknown_name(self):
        with pytest.raises(UnknownMapperError, match="critical"):
            get_mapper("does_not_exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(DuplicateMapperError, match="tabu"):

            @register_mapper("tabu")
            class Impostor:
                pass

        assert get_mapper("tabu").__class__.__name__ == "TabuAdapter"

    def test_bad_name_rejected(self):
        with pytest.raises(MappingError):
            register_mapper("Not A Name")

    def test_params_reach_the_factory(self):
        mapper = get_mapper("random", samples=3)
        assert mapper.samples == 3
        with pytest.raises(TypeError):
            get_mapper("random", no_such_param=1)


class TestConformance:
    """The shared MapOutcome invariants, one run per registered mapper."""

    @pytest.mark.parametrize("name", ALL_MAPPERS)
    def test_outcome_invariants(self, small_instance, name):
        clustered, system = small_instance
        outcome = solve_instance(clustered, system, mapper=name, rng=5)
        assert isinstance(outcome, MapOutcome)
        assert outcome.mapper == name
        assert outcome.total_time >= outcome.lower_bound
        assert outcome.evaluations >= 0
        assert outcome.wall_time >= 0.0
        # The assignment must be a real permutation producing a schedule
        # the independent oracle accepts, with the reported makespan.
        assert isinstance(outcome.assignment, Assignment)
        schedule = evaluate_assignment(clustered, system, outcome.assignment)
        verify_schedule(schedule)
        assert schedule.total_time == outcome.total_time
        if outcome.reached_lower_bound:
            assert outcome.total_time == outcome.lower_bound

    @pytest.mark.parametrize("name", ALL_MAPPERS)
    def test_deterministic_under_fixed_seed(self, small_instance, name):
        clustered, system = small_instance
        a = solve_instance(clustered, system, mapper=name, rng=42)
        b = solve_instance(clustered, system, mapper=name, rng=42)
        assert a.assignment == b.assignment
        assert a.total_time == b.total_time
        assert a.evaluations == b.evaluations


def _bound_instances():
    """Small instances where most mappers reach the bound on some but not
    all of them, plus two 40-task ones on 16 processors that make
    ``multilevel`` coarsen."""
    out = []
    for seed in range(8):
        tasks = 40 if seed >= 6 else 12 + seed
        graph = layered_random_dag(num_tasks=tasks, comm_range=(1, 3), rng=seed)
        small = (hypercube(2), ring(4), ring(3))[seed % 3]
        system = hypercube(4) if seed >= 6 else small
        clustering = RandomClusterer(system.num_nodes).cluster(graph, rng=seed)
        out.append((ClusteredGraph(graph, clustering), system))
    return out


class TestOptimalityFlag:
    """Theorem 3's certificate means the same for every mapper: an outcome
    reached the bound exactly when its total time equals it."""

    @pytest.mark.parametrize("name", ALL_MAPPERS)
    def test_flag_is_total_time_at_bound(self, name):
        params = {"arms": ["critical", "tabu"]} if name == "portfolio" else {}
        mapper = get_mapper(name, **params)
        at_bound = 0
        for seed, (clustered, system) in enumerate(_bound_instances()):
            outcome = mapper.map(clustered, system, rng=seed)
            assert outcome.reached_lower_bound == (
                outcome.total_time == outcome.lower_bound
            )
            at_bound += outcome.reached_lower_bound
        assert 0 < at_bound < 8


class TestFacade:
    def test_solve_binds_clustering(self, small_instance):
        clustered, system = small_instance
        outcome = solve(
            clustered.graph, clustered.clustering, system, mapper="critical", rng=1
        )
        assert outcome.total_time >= outcome.lower_bound

    def test_solve_accepts_mapper_instance(self, small_instance):
        clustered, system = small_instance
        mapper = get_mapper("tabu", iterations=5)
        outcome = solve_instance(clustered, system, mapper=mapper, rng=1)
        assert outcome.mapper == "tabu"

    def test_params_with_instance_rejected(self, small_instance):
        clustered, system = small_instance
        with pytest.raises(TypeError, match="name"):
            solve_instance(
                clustered, system, mapper=get_mapper("tabu"), rng=1, iterations=5
            )

    def test_package_root_reexports(self):
        assert repro.solve is solve
        assert repro.available_mappers is available_mappers
        assert repro.MapOutcome is MapOutcome

    def test_format_comparison_rejects_empty(self):
        from repro.api import format_comparison

        with pytest.raises(ValueError, match="at least one"):
            format_comparison([])

    def test_format_comparison_bound_survives_sorting(self, small_instance):
        """The title bound comes from the instance, not the fastest mapper."""
        from repro.api import format_comparison

        clustered, system = small_instance
        outcomes = compare(clustered, system, mappers=["tabu", "critical"], seed=2)
        table = format_comparison(outcomes)
        assert f"lower bound = {outcomes[0].lower_bound}" in table
        assert "lower bound = 0" not in table

    def test_outcome_rejects_impossible_report(self, small_instance):
        clustered, system = small_instance
        with pytest.raises(MappingError, match="below the lower bound"):
            MapOutcome(
                mapper="bogus",
                assignment=Assignment.identity(4),
                total_time=3,
                lower_bound=10,
                evaluations=0,
                reached_lower_bound=False,
                wall_time=0.0,
            )


def _instances(count=4, tasks=20):
    out = []
    for seed in range(count):
        graph = layered_random_dag(num_tasks=tasks, rng=seed)
        clustering = RandomClusterer(num_clusters=4).cluster(graph, rng=seed)
        out.append(
            ProblemInstance(ClusteredGraph(graph, clustering), ring(4), name=f"i{seed}")
        )
    return out


class _IdentityMapper:
    """Minimal custom Mapper (module-level so it pickles to workers)."""

    name = "identity"

    def map(self, clustered, system, rng=None):
        from repro.core import Assignment, evaluate_assignment, ideal_schedule

        assignment = Assignment.identity(system.num_nodes)
        schedule = evaluate_assignment(clustered, system, assignment)
        return MapOutcome(
            mapper=self.name,
            assignment=assignment,
            total_time=schedule.total_time,
            lower_bound=ideal_schedule(clustered).total_time,
            evaluations=1,
            reached_lower_bound=False,
            wall_time=0.0,
        )


class TestBatch:
    def test_custom_mapper_instance_parallel(self):
        # An unregistered mapper instance ships to the worker processes.
        outcomes = solve_many(
            _instances(3), mapper=_IdentityMapper(), seed=1, max_workers=2
        )
        assert [o.mapper for o in outcomes] == ["identity"] * 3

    def test_instance_with_params_rejected(self):
        with pytest.raises(TypeError, match="name"):
            solve_many(_instances(1), mapper=_IdentityMapper(), samples=3)

    def test_solve_many_serial(self):
        outcomes = solve_many(_instances(), mapper="critical", seed=9)
        assert len(outcomes) == 4
        assert all(o.total_time >= o.lower_bound for o in outcomes)

    @pytest.mark.parametrize("mapper", ["critical", "annealing"])
    def test_parallel_matches_serial(self, mapper):
        instances = _instances()
        serial = solve_many(instances, mapper=mapper, seed=9, max_workers=1)
        parallel = solve_many(instances, mapper=mapper, seed=9, max_workers=3)
        for a, b in zip(serial, parallel):
            assert a.assignment == b.assignment
            assert a.total_time == b.total_time
            assert a.evaluations == b.evaluations

    def test_accepts_bare_pairs(self):
        pairs = [(inst.clustered, inst.system) for inst in _instances(2)]
        outcomes = solve_many(pairs, mapper="random", seed=0, samples=5)
        assert [o.evaluations for o in outcomes] == [5, 5]

    def test_bad_workers(self):
        with pytest.raises(MappingError):
            solve_many(_instances(1), max_workers=0)

    def test_mismatched_instance_rejected(self):
        graph = layered_random_dag(num_tasks=12, rng=0)
        clustering = RandomClusterer(num_clusters=4).cluster(graph, rng=0)
        with pytest.raises(MappingError, match="clusters"):
            ProblemInstance(ClusteredGraph(graph, clustering), ring(5))

    def test_derived_seeds_differ(self):
        seeds = {derive_seed(0, i, m) for i in range(3) for m in ("tabu", "genetic")}
        assert len(seeds) == 6
        assert derive_seed(1, 2, "tabu") == derive_seed(1, 2, "tabu")


class TestCompare:
    def test_one_outcome_per_mapper(self, small_instance):
        clustered, system = small_instance
        outcomes = compare(clustered, system, seed=2)
        assert [o.mapper for o in outcomes] == ALL_MAPPERS
        bound = outcomes[0].lower_bound
        assert all(o.lower_bound == bound for o in outcomes)

    def test_subset_and_params(self, small_instance):
        clustered, system = small_instance
        outcomes = compare(
            clustered,
            system,
            mappers=["random", "tabu"],
            seed=2,
            mapper_params={"random": {"samples": 7}},
        )
        assert [o.mapper for o in outcomes] == ["random", "tabu"]
        assert outcomes[0].evaluations == 7

    def test_deterministic(self, small_instance):
        clustered, system = small_instance
        a = compare(clustered, system, mappers=["genetic"], seed=3)[0]
        b = compare(clustered, system, mappers=["genetic"], seed=3)[0]
        assert a.assignment == b.assignment


class TestWorkItemKeying:
    """Work items are keyed by (mapper, params, slot): repeated names are
    never deduplicated and every configuration gets its own seed stream."""

    def test_same_mapper_twice_with_different_params(self, small_instance):
        clustered, system = small_instance
        outcomes = compare(
            clustered,
            system,
            mappers=[("random", {"samples": 3}), ("random", {"samples": 8})],
            seed=4,
        )
        assert [o.mapper for o in outcomes] == ["random", "random"]
        # Both configurations really ran — nothing was collapsed.
        assert [o.evaluations for o in outcomes] == [3, 8]

    def test_duplicate_entries_are_independent_replicates(self, small_instance):
        clustered, system = small_instance
        outcomes = compare(clustered, system, mappers=["random", "random"], seed=5)
        assert len(outcomes) == 2
        # Distinct slots derive distinct seeds, so the two replicates draw
        # different random samples (regression: they used to be identical).
        assert (
            outcomes[0].extras["mean_total_time"]
            != outcomes[1].extras["mean_total_time"]
        )

    def test_entry_params_override_mapper_params(self, small_instance):
        clustered, system = small_instance
        outcomes = compare(
            clustered,
            system,
            mappers=["random", ("random", {"samples": 2})],
            seed=6,
            mapper_params={"random": {"samples": 9}},
        )
        assert [o.evaluations for o in outcomes] == [9, 2]

    def test_pinned_seed_derivation(self):
        # The exact per-item derivation is part of the reproducibility
        # contract; these values must never drift silently.
        assert derive_seed(1, 2, "tabu") == 14585938322687758437
        assert params_tag({"iterations": 9}) == 1595335967
        assert (
            derive_seed(1, 2, "tabu", params_tag({"iterations": 9}))
            == 17479814411434209772
        )
        assert derive_seed(5, 0, "annealing") == 14535853848083323465
        assert derive_seed(5, 1, "annealing") == 17661049032777161841

    def test_params_tag_is_order_insensitive_and_zero_for_empty(self):
        assert params_tag({}) == 0
        assert params_tag({"a": 1, "b": 2}) == params_tag({"b": 2, "a": 1})
        assert params_tag({"a": 1}) != params_tag({"a": 2})

    def test_params_change_the_derived_seed(self):
        base = derive_seed(0, 1, "tabu")
        assert base != derive_seed(0, 1, "tabu", params_tag({"iterations": 9}))


def _spellings(name, params):
    """Every spelling of the choice ``(name, params)`` that each consumer
    accepts: a ``{"name", "params"}`` mapping, a ``(name, params)`` tuple
    and, without params, the bare name and its shorter forms."""
    out = [{"name": name, "params": dict(params)}, (name, dict(params))]
    if not params:
        out += [name, {"name": name}, (name, None)]
    return out


TABU_CHOICES = [("tabu", {}), ("tabu", {"iterations": 5})]


class TestChoiceSpellings:
    """One component choice, however it is spelled, resolves to the same
    ``(name, params)`` on every axis that accepts choices."""

    @pytest.mark.parametrize("expected", TABU_CHOICES)
    def test_scenario_mapper_axis(self, expected):
        from repro.api import Scenario

        for spelling in _spellings(*expected):
            axes = [spelling, [spelling]]
            if isinstance(spelling, tuple):
                axes.append([list(spelling)])  # a JSON spec's 2-list
            for axis in axes:
                [scenario] = Scenario.grid(
                    workload={"name": "fft", "params": {"points_log2": 2}},
                    topology="hypercube:2",
                    mapper=axis,
                )
                assert (scenario.mapper, scenario.mapper_params) == expected

    def test_scenario_key_ignores_param_order(self):
        from repro.api import Scenario

        keys = {
            Scenario(
                workload="fft", topology="hypercube:2", mapper="tabu",
                mapper_params=params,
            ).key()
            for params in ({"iterations": 5, "tenure": 3}, {"tenure": 3, "iterations": 5})
        }
        assert keys == {
            "workload=fft/clustering=random/topology=hypercube:2/"
            "mapper=tabu[iterations=5,tenure=3]/seed=0"
        }

    @pytest.mark.parametrize(
        "expected", [("hop_bytes", {}), ("sim_makespan", {"link_setup": 2})]
    )
    def test_metric_specs(self, expected):
        from repro.metrics import normalize_metric_specs

        for spelling in _spellings(*expected):
            assert normalize_metric_specs([spelling]) == [expected]

    @pytest.mark.parametrize(
        "choice, spec",
        [
            (("tabu", {}), "tabu"),
            (("tabu", {"iterations": 5}), {"name": "tabu", "params": {"iterations": 5}}),
        ],
    )
    def test_written_spelling_reads_back(self, choice, spec):
        from repro.api.registry import choice_spec, parse_choice

        assert choice_spec(*choice) == spec
        assert parse_choice(spec, "choice") == choice

    @pytest.mark.parametrize("expected", TABU_CHOICES)
    def test_portfolio_arms(self, expected):
        for spelling in _spellings(*expected):
            mapper = get_mapper("portfolio", arms=[spelling, "critical"])
            assert mapper.arms == [expected, ("critical", {})]

    def test_compare_entries(self, small_instance):
        clustered, system = small_instance
        outcomes = compare(
            clustered,
            system,
            mappers=[
                "tabu",
                ("tabu", {}),
                {"name": "tabu", "params": {"iterations": 5}},
                {"name": "tabu"},
            ],
            seed=3,
        )
        reference = compare(
            clustered,
            system,
            mappers=["tabu", "tabu", ("tabu", {"iterations": 5}), "tabu"],
            seed=3,
        )
        assert [o.assignment for o in outcomes] == [o.assignment for o in reference]
        assert [o.evaluations for o in outcomes] == [o.evaluations for o in reference]
