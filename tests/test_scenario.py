"""Scenario spec + sweep engine tests.

Covers the generic registry machinery, scenario round-tripping
(dict -> JSON -> Scenario equality), grid expansion counts, sweep
streaming/resume (half-written JSONL re-executes only the missing runs,
bit-identically), and serial/parallel byte equality.
"""

import json

import pytest

from repro.api import (
    CLUSTERERS,
    MAPPERS,
    TOPOLOGIES,
    WORKLOADS,
    DuplicateComponentError,
    Registry,
    RegistryError,
    Scenario,
    ScenarioError,
    UnknownComponentError,
    available_clusterers,
    available_mappers,
    available_topologies,
    available_workloads,
    build_topology,
    build_workload,
    expand_spec,
    format_sweep,
    get_clusterer,
    load_spec,
    parse_topology_spec,
    run_scenarios,
    summarize_sweep,
)
from repro.io import read_jsonl
from repro.utils import MappingError

# A tiny 2 x 2 x 2 x 3 grid (24 runs with replicas=1) that runs fast.
GRID_AXES = dict(
    workload=[
        {"name": "fft", "params": {"points_log2": 2}},
        {"name": "layered_random", "params": {"num_tasks": 24}},
    ],
    clustering=["random", "dsc"],
    topology=["hypercube:2", "mesh2d:2x2"],
    mapper=["critical", ("random", {"samples": 4}), ("tabu", {"iterations": 5})],
)


def tiny_grid(seed=3, replicas=1):
    return Scenario.grid(**GRID_AXES, seed=seed, replicas=replicas)


class TestGenericRegistry:
    def test_four_registries_populated(self):
        for available in (
            available_mappers,
            available_clusterers,
            available_workloads,
            available_topologies,
        ):
            assert len(available()) >= 4

    def test_same_bad_name_message_across_registries(self):
        messages = []
        for registry in (MAPPERS, CLUSTERERS, WORKLOADS, TOPOLOGIES):
            with pytest.raises(RegistryError) as excinfo:
                registry.register("Not A Name")
            messages.append(
                str(excinfo.value).replace(registry.kind, "<kind>", 1)
            )
        assert len(set(messages)) == 1

    def test_duplicate_rejected(self):
        reg = Registry("widget")
        reg.register("thing")(lambda: None)
        with pytest.raises(DuplicateComponentError, match="thing"):
            reg.register("thing")(lambda: None)

    def test_unknown_names_kind_and_alternatives(self):
        with pytest.raises(UnknownComponentError, match="clusterer 'nope'"):
            get_clusterer("nope", num_clusters=4)

    def test_deterministic_generators_accept_rng(self):
        g1 = build_workload("cholesky", {"tiles": 3}, rng=1)
        g2 = build_workload("cholesky", {"tiles": 3}, rng=999)
        assert g1.num_tasks == g2.num_tasks

    def test_topology_spec_grammar(self):
        assert parse_topology_spec("torus2d:4x4") == ("torus2d", (4, 4))
        assert parse_topology_spec("petersen") == ("petersen", ())
        assert build_topology("hypercube:3").num_nodes == 8
        assert build_topology("torus2d:4x4").num_nodes == 16
        with pytest.raises(UnknownComponentError, match="unknown topology"):
            parse_topology_spec("moebius:3")
        with pytest.raises(UnknownComponentError, match="malformed"):
            parse_topology_spec("mesh2d:3xbanana")
        with pytest.raises(UnknownComponentError, match="wrong number"):
            build_topology("hypercube:3x3x3x3")

    def test_random_topologies_are_seeded(self):
        assert (
            build_topology("random:8", rng=5).edges()
            == build_topology("random:8", rng=5).edges()
        )


class TestScenarioRoundTrip:
    def test_dict_json_round_trip(self):
        s = Scenario(
            workload="fft",
            workload_params={"points_log2": 3},
            clustering="dsc",
            topology="hypercube:3",
            mapper="tabu",
            mapper_params={"iterations": 9},
            seed=42,
            replicas=3,
            name="demo",
        )
        assert Scenario.from_dict(s.to_dict()) == s
        assert Scenario.from_dict(json.loads(json.dumps(s.to_dict()))) == s

    def test_json_file_round_trip(self, tmp_path):
        s = Scenario(workload="cholesky", workload_params={"tiles": 4},
                     topology="torus2d:3x3", seed=7)
        path = tmp_path / "scenario.json"
        s.to_json(path)
        assert Scenario.from_json(path) == s

    def test_validation_names_the_axis(self):
        cases = [
            (dict(workload="nope", topology="hypercube:2"), "'workload'"),
            (dict(workload="fft", topology="moebius:2"), "'topology'"),
            (dict(workload="fft", topology="hypercube:2", clustering="x"),
             "'clustering'"),
            (dict(workload="fft", topology="hypercube:2", mapper="x"),
             "'mapper'"),
            (dict(workload="fft", topology="hypercube:2", replicas=0),
             "'replicas'"),
            (dict(workload="fft", topology="hypercube:2",
                  mapper_params={1: 2}), "'mapper_params'"),
        ]
        for kwargs, fragment in cases:
            with pytest.raises(ScenarioError, match=fragment):
                Scenario(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, fragments",
        [
            (dict(workload_params={"points_log": 2}),
             ["'workload_params'", "'points_log'", "workload 'fft'", "points_log2"]),
            (dict(clustering="load_balance", clustering_params={"afinity": 1.0}),
             ["'clustering_params'", "'afinity'", "affinity_weight"]),
            (dict(mapper="annealing", mapper_params={"coolng": 0.9}),
             ["'mapper_params'", "'coolng'", "cooling, initial_temperature"]),
            (dict(clustering_params={"num_clusters": 4}),
             ["'clustering_params'", "'num_clusters'", "supplied by the engine"]),
            (dict(workload="layered_random", workload_params={"num_tasks": 24, "rng": 3}),
             ["'workload_params'", "'rng'", "supplied by the engine"]),
        ],
    )
    def test_unknown_params_name_axis_key_and_accepted(self, kwargs, fragments):
        base = dict(workload="fft", workload_params={"points_log2": 2},
                    topology="hypercube:2")
        with pytest.raises(ScenarioError) as excinfo:
            Scenario(**{**base, **kwargs})
        for fragment in fragments:
            assert fragment in str(excinfo.value)

    def test_kwargs_factories_accept_any_param(self):
        from repro.api.scenario import _keyword_names

        def factory(size, **extra):
            return None

        assert _keyword_names(factory) is None
        assert _keyword_names(MAPPERS.factory("tabu")) == {"iterations", "tenure"}

    def test_from_dict_rejects_unknown_and_missing_fields(self):
        with pytest.raises(ScenarioError, match="unknown scenario field"):
            Scenario.from_dict({"workload": "fft", "topology": "hypercube:2",
                                "wat": 1})
        with pytest.raises(ScenarioError, match="'topology'"):
            Scenario.from_dict({"workload": "fft"})


class TestGridExpansion:
    def test_cross_product_count_and_order(self):
        scenarios = tiny_grid()
        assert len(scenarios) == 2 * 2 * 2 * 3
        assert len({s.key() for s in scenarios}) == len(scenarios)
        # workload-major order: the first block shares the first workload.
        assert all(s.workload == "fft" for s in scenarios[:12])

    def test_expand_spec_grid_and_explicit(self):
        spec = {
            "grid": {
                "workload": {"name": "fft", "params": {"points_log2": 2}},
                "topology": ["hypercube:2", "mesh2d:2x2"],
                "mapper": ["critical", "random"],
            },
            "seed": 5,
            "replicas": 2,
            "scenarios": [
                {"workload": "cholesky", "workload_params": {"tiles": 3},
                 "topology": "ring:4"}
            ],
        }
        scenarios = expand_spec(spec)
        assert len(scenarios) == 4 + 1
        assert all(s.replicas == 2 for s in scenarios[:4])
        assert scenarios[-1].workload == "cholesky"

    def test_expand_spec_rejects_misspelled_params(self):
        spec = {"grid": {"workload": {"name": "fft", "params": {"points_log2": 2}},
                         "topology": "hypercube:2",
                         "mapper": ["critical", {"name": "tabu",
                                                 "params": {"iteration": 5}}]}}
        with pytest.raises(ScenarioError, match="'mapper_params'.*'iteration'"):
            expand_spec(spec)
        explicit = {"scenarios": [{"workload": "fft",
                                   "workload_params": {"points": 2},
                                   "topology": "hypercube:2"}]}
        with pytest.raises(ScenarioError, match="'workload_params'.*'points'"):
            expand_spec(explicit)

    @pytest.mark.parametrize(
        "axes, message",
        [
            ({"workload": ("fft", "x")}, "'workload': the params of 'fft'"),
            ({"mapper": [["tabu", 5]]}, "'mapper': the params of 'tabu'"),
            ({"mapper": [("tabu", {}, 1)]}, "'mapper': expected a name"),
            ({"mapper": {"params": {}}}, "'mapper': a mapping needs a 'name'"),
            ({"clustering": [(7, None)]}, "'clustering': the name must be"),
        ],
    )
    def test_malformed_choices_name_the_axis(self, axes, message):
        base = {"workload": "fft", "topology": "hypercube:2"}
        with pytest.raises(ScenarioError, match=message):
            Scenario.grid(**{**base, **axes})

    def test_expand_spec_rejects_bad_shapes(self):
        with pytest.raises(ScenarioError, match="unknown sweep-spec key"):
            expand_spec({"grdi": {}})
        with pytest.raises(ScenarioError, match="unknown grid axis"):
            expand_spec({"grid": {"workload": "fft", "topology": "ring:4",
                                  "mappers": []}})
        with pytest.raises(ScenarioError, match="no scenarios"):
            expand_spec({"scenarios": []})

    def test_load_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "grid": {"workload": {"name": "fft", "params": {"points_log2": 2}},
                     "topology": "hypercube:2"},
        }))
        scenarios = load_spec(path)
        assert len(scenarios) == 1
        assert scenarios[0].mapper == "critical"


class TestSweep:
    @pytest.fixture(scope="class")
    def grid_and_reference(self, tmp_path_factory):
        """The tiny grid run serially once; later tests compare against it."""
        out = tmp_path_factory.mktemp("sweep") / "ref.jsonl"
        scenarios = tiny_grid()
        result = run_scenarios(scenarios, out=out, max_workers=1)
        return scenarios, result, out

    def test_streams_one_record_per_run(self, grid_and_reference):
        scenarios, result, out = grid_and_reference
        assert len(result.records) == 24
        assert result.executed == 24 and result.reused == 0
        on_disk = read_jsonl(out)
        assert on_disk == result.records
        keys = [r["key"] for r in on_disk]
        assert len(set(keys)) == len(keys)

    def test_parallel_is_bit_identical(self, grid_and_reference, tmp_path):
        scenarios, _, ref = grid_and_reference
        out = tmp_path / "parallel.jsonl"
        run_scenarios(scenarios, out=out, max_workers=4)
        assert out.read_bytes() == ref.read_bytes()

    def test_resume_after_truncation(self, grid_and_reference, tmp_path):
        scenarios, reference, ref = grid_and_reference
        lines = ref.read_text().splitlines(keepends=True)
        out = tmp_path / "resume.jsonl"
        # Keep 10 complete records plus a torn 11th line (killed writer).
        out.write_text("".join(lines[:10]) + lines[10][:25])
        result = run_scenarios(scenarios, out=out, max_workers=2)
        assert result.reused == 10
        assert result.executed == 14
        assert out.read_bytes() == ref.read_bytes()
        assert result.records == reference.records

    def test_replicas_expand_and_reseed(self, tmp_path):
        scenarios = Scenario.grid(
            workload={"name": "layered_random", "params": {"num_tasks": 20}},
            topology="hypercube:2",
            mapper=("random", {"samples": 3}),
            seed=1,
            replicas=3,
        )
        result = run_scenarios(scenarios, max_workers=1)
        assert len(result.records) == 3
        assignments = {tuple(r["outcome"]["assignment"]) for r in result.records}
        assert len(assignments) > 1  # replicas draw independent streams

    def test_summary_groups_by_everything_but_mapper(self, grid_and_reference):
        _, result, _ = grid_and_reference
        summaries = summarize_sweep(result.records)
        assert len(summaries) == 8  # 2 workloads x 2 clusterings x 2 topologies
        for _, rows in summaries:
            assert len(rows) == 3  # one row per mapper config
            assert all(row["replicas"] == 1 for row in rows)
        table = format_sweep(result.records)
        assert "mean total time" in table and "tabu[iterations=5]" in table

    def test_rows_rank_by_percent_of_bound_not_raw_total(self):
        """Each mapper draws its own instance, so raw totals are not
        comparable across rows: 'big' has the larger total on a larger
        graph but sits closer to its own bound."""

        def record(mapper, total, bound):
            return {"group": "g", "run": {"mapper_label": mapper},
                    "outcome": {"total_time": total, "lower_bound": bound,
                                "reached_lower_bound": total == bound}}

        records = [record("small", 50, 40), record("big", 130, 120),
                   record("middle", 90, 80)]
        (_, rows), = summarize_sweep(records)
        assert [row["mapper"] for row in rows] == ["big", "middle", "small"]
        assert format_sweep(records).index("big") < format_sweep(records).index("small")

    def test_group_key_is_key_without_mapper(self):
        a = Scenario(workload="fft", workload_params={"points_log2": 2},
                     topology="hypercube:2", mapper="tabu", metrics=["hop_bytes"])
        b = Scenario(workload="fft", workload_params={"points_log2": 2},
                     topology="hypercube:2", metrics=["hop_bytes"])
        c = Scenario(workload="fft", workload_params={"points_log2": 2},
                     topology="hypercube:2", metrics=["comm_volume"])
        assert a.group_key() == b.group_key() != c.group_key()
        assert a.key() != b.key()
        assert "mapper=" not in a.group_key()
        assert "metrics=hop_bytes" in a.group_key()

    def test_records_are_wall_clock_free(self, grid_and_reference):
        _, result, _ = grid_and_reference
        assert all("wall_time" not in r["outcome"] for r in result.records)

    def test_errors_name_the_scenario(self):
        # 4 tasks cannot cover the 8 nodes of a 3-cube.
        bad = Scenario(workload="fft", workload_params={"points_log2": 2},
                       topology="chain:20")
        with pytest.raises(MappingError, match="fft"):
            run_scenarios([bad])

    def test_empty_sweep_rejected(self):
        with pytest.raises(MappingError, match="at least one"):
            run_scenarios([])


class TestSweepCrashSafety:
    """The checkpoint file must survive a failing or interrupted resume."""

    def test_failed_sweep_preserves_existing_checkpoint(self, tmp_path):
        good = Scenario.grid(
            workload={"name": "layered_random", "params": {"num_tasks": 16}},
            topology="hypercube:2",
            mapper=("random", {"samples": 2}),
            seed=9,
        )
        out = tmp_path / "out.jsonl"
        run_scenarios(good, out=out, max_workers=1)
        checkpoint = out.read_bytes()
        # fft:2 has 12 tasks, chain:20 has 20 nodes -> build_scenario_instance
        # raises mid-sweep; the finished checkpoint must not be truncated.
        bad = good + [Scenario(workload="fft", workload_params={"points_log2": 2},
                               topology="chain:20", seed=9)]
        with pytest.raises(MappingError, match="fft"):
            run_scenarios(bad, out=out, max_workers=1)
        assert out.read_bytes() == checkpoint

    def test_interrupted_tmp_records_are_reused(self, tmp_path):
        scenarios = tiny_grid()
        ref = tmp_path / "ref.jsonl"
        reference = run_scenarios(scenarios, out=ref, max_workers=1)
        out = tmp_path / "out.jsonl"
        # Simulate a killed first run: no finished file, 6 records in .tmp.
        lines = ref.read_text().splitlines(keepends=True)
        (tmp_path / "out.jsonl.tmp").write_text("".join(lines[:6]))
        result = run_scenarios(scenarios, out=out, max_workers=1)
        assert result.reused == 6 and result.executed == 18
        assert out.read_bytes() == ref.read_bytes()
        assert result.records == reference.records


class TestSpecScalarValidation:
    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"seed": None}, "'seed'"),
            ({"seed": True}, "'seed'"),
            ({"replicas": "two"}, "'replicas'"),
            ({"name": 7}, "'name'"),
        ],
    )
    def test_bad_scalars_name_the_axis(self, overrides, fragment):
        spec = {
            "grid": {"workload": {"name": "fft", "params": {"points_log2": 2}},
                     "topology": "hypercube:2"},
            **overrides,
        }
        with pytest.raises(ScenarioError, match=fragment):
            expand_spec(spec)
