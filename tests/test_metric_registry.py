"""Tests for the repro.metrics subsystem: the fifth registry axis.

Covers the registry itself, the analytic and simulator-backed metrics,
the scenario / sweep / service plumbing, and the metric-parameterized
multilevel refinement.  The tie-breaking regression test at the bottom
pins the ISSUE's acceptance criterion: a sweep pair that the paper's
comm-volume objective cannot separate but ``max_congestion`` /
``sim_makespan`` can.
"""

import json

import numpy as np
import pytest

from repro.api import (
    Scenario,
    registry_listing,
    run_scenario_once,
    run_scenarios,
    summarize_sweep,
)
from repro.api.scenario import ScenarioError, expand_spec
from repro.api.sweep import format_sweep
from repro.core import Assignment, ClusteredGraph, Clustering, TaskGraph
from repro.core.evaluate import evaluate_assignment
from repro.metrics import (
    METRICS,
    DuplicateMetricError,
    UnknownMetricError,
    available_metrics,
    build_metrics,
    evaluate_metrics,
    get_metric,
    link_traffic,
    metric_label,
    normalize_metric_specs,
    processor_traffic_matrix,
    task_hosts,
)
from repro.sim import SimConfig, simulate
from repro.topology import SystemGraph, chain, hypercube
from repro.utils import MappingError
from tests.conftest import TOPOLOGY_SPECS, random_instance

ANALYTIC = ["avg_dilation", "comm_volume", "hop_bytes", "max_congestion"]
SIMULATED = ["sim_fifo_stall_time", "sim_makespan", "sim_max_link_utilization"]


class TestRegistry:
    def test_available_names(self):
        assert available_metrics() == sorted(ANALYTIC + SIMULATED)

    def test_analytic_flag_partitions_the_registry(self):
        for name in ANALYTIC:
            assert get_metric(name).analytic
        for name in SIMULATED:
            assert not get_metric(name).analytic

    def test_unknown_name_suggests(self):
        with pytest.raises(UnknownMetricError, match="did you mean 'hop_bytes'"):
            get_metric("hop_byte")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(DuplicateMetricError):
            METRICS.register("comm_volume")(object)

    def test_listing_matches_other_axes_shape(self):
        listing = registry_listing("metrics")
        assert listing == {
            "kind": "metrics",
            "count": len(available_metrics()),
            "names": available_metrics(),
        }

    def test_metric_label(self):
        assert metric_label("hop_bytes") == "hop_bytes"
        assert (
            metric_label("sim_makespan", {"link_setup": 2, "fifo_depth": 1})
            == "sim_makespan[fifo_depth=1,link_setup=2]"
        )

    def test_normalize_specs_accepts_all_three_shapes(self):
        specs = normalize_metric_specs(
            [
                "hop_bytes",
                {"name": "sim_makespan", "params": {"link_setup": 2}},
                ("max_congestion", {}),
            ]
        )
        assert specs == [
            ("hop_bytes", {}),
            ("sim_makespan", {"link_setup": 2}),
            ("max_congestion", {}),
        ]

    def test_normalize_specs_rejects_duplicates_and_unknowns(self):
        with pytest.raises(MappingError, match="duplicate metric"):
            normalize_metric_specs(["hop_bytes", "hop_bytes"])
        with pytest.raises(MappingError, match="did you mean"):
            normalize_metric_specs(["comm_volum"])

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"name": "hop_bytes", "params": [1, 2]}, "params of 'hop_bytes'"),
            (["hop_bytes", "xy"], "params of 'hop_bytes'"),
            ({"params": {}}, "needs a 'name'"),
            ({"name": "hop_bytes", "knob": 1}, "optional 'params'"),
            ((1, {}), "name must be a string"),
            (("hop_bytes",), "pair"),
        ],
    )
    def test_normalize_specs_rejects_malformed_choices(self, spec, message):
        with pytest.raises(MappingError, match=message) as excinfo:
            normalize_metric_specs([spec])
        assert str(excinfo.value).startswith("metric spec: ")

    def test_build_metrics_wraps_bad_params(self):
        with pytest.raises(MappingError):
            build_metrics([("sim_makespan", {"bogus_knob": 1})])


class TestAnalyticMetrics:
    def test_comm_volume_matches_schedule(self):
        for seed in range(4):
            clustered, system = random_instance(seed)
            a = Assignment.random(system.num_nodes, rng=seed)
            values = evaluate_metrics(clustered, system, a, ["comm_volume"])
            sched = evaluate_assignment(clustered, system, a)
            assert values["comm_volume"] == float(sched.comm.sum())

    def test_hop_bytes_equals_comm_volume_on_unit_links(self):
        clustered, system = random_instance(1)
        a = Assignment.random(system.num_nodes, rng=1)
        values = evaluate_metrics(clustered, system, a, ["comm_volume", "hop_bytes"])
        assert values["hop_bytes"] == values["comm_volume"]

    def test_hop_bytes_differs_from_comm_volume_on_weighted_links(self):
        # Two processors joined by a weight-3 link: comm_volume pays the
        # weighted distance, hop_bytes counts one hop.
        system = SystemGraph(
            np.array([[0, 1], [1, 0]]), link_weights=np.array([[0, 3], [3, 0]])
        )
        g = TaskGraph([1, 1], [(0, 1, 5)])
        clustered = ClusteredGraph(g, Clustering([0, 1]))
        a = Assignment.identity(2)
        values = evaluate_metrics(clustered, system, a, ["comm_volume", "hop_bytes"])
        assert values["comm_volume"] == 15.0
        assert values["hop_bytes"] == 5.0

    def test_link_traffic_totals_hop_bytes(self):
        clustered, system = random_instance(2)
        a = Assignment.random(system.num_nodes, rng=2)
        loads = link_traffic(clustered, system, a)
        values = evaluate_metrics(
            clustered, system, a, ["hop_bytes", "max_congestion"]
        )
        assert sum(loads.values()) == values["hop_bytes"]
        assert max(loads.values()) == values["max_congestion"]

    def test_link_traffic_equals_sim_busy_time(self):
        """The analytic congestion model uses the simulator's own routes."""
        clustered, system = random_instance(3)
        a = Assignment.random(system.num_nodes, rng=3)
        loads = link_traffic(clustered, system, a)
        sim = simulate(clustered, system, a, SimConfig(link_contention=True))
        assert loads == sim.trace.link_busy_time()

    def test_traffic_matrix_zero_diagonal_and_totals(self):
        clustered, system = random_instance(4)
        a = Assignment.random(system.num_nodes, rng=4)
        traffic = processor_traffic_matrix(clustered, system, a)
        assert np.all(np.diag(traffic) == 0)
        host = task_hosts(clustered, system, a)
        cross = clustered.clus_edge[
            host[:, None] != host[None, :]
        ].sum()
        assert traffic.sum() == cross

    def test_avg_dilation_bounds(self):
        clustered, system = random_instance(5)
        a = Assignment.random(system.num_nodes, rng=5)
        values = evaluate_metrics(clustered, system, a, ["avg_dilation"])
        assert 1.0 <= values["avg_dilation"] <= float(system.shortest.max())

    def test_no_cross_traffic_degenerates_to_zero(self):
        g = TaskGraph([2, 3], [(0, 1, 4)])
        clustered = ClusteredGraph(g, Clustering([0, 0]))
        system = chain(1)
        a = Assignment.identity(1)
        values = evaluate_metrics(
            clustered, system, a, ["max_congestion", "avg_dilation", "hop_bytes"]
        )
        assert values == {
            "max_congestion": 0.0,
            "avg_dilation": 0.0,
            "hop_bytes": 0.0,
        }

    def test_mismatched_triple_rejected(self):
        clustered, _ = random_instance(0)
        with pytest.raises(MappingError, match="clusters"):
            task_hosts(clustered, hypercube(2), Assignment.identity(4))

    def test_metrics_and_simulation_skip_the_dense_clus_edge(self, monkeypatch):
        """They read the clustered CSR weights, so they also run where the
        dense ``clus_edge`` is too large to allocate."""
        clustered, system = random_instance(6, num_tasks=80)
        a = Assignment.random(system.num_nodes, rng=6)
        names = ["comm_volume", "hop_bytes", "max_congestion", "avg_dilation"]
        configs = [
            SimConfig(),
            SimConfig(True, True, link_setup=1),
            SimConfig(True, True, fifo_depth=1),
        ]

        def run():
            sims = [simulate(clustered, system, a, config) for config in configs]
            return evaluate_metrics(clustered, system, a, names), [
                (sim.start.tolist(), sim.end.tolist(), sim.trace.link_busy_time(),
                 sim.fifo_stall_time)
                for sim in sims
            ]

        def dense(self):
            raise AssertionError("dense clus_edge materialized")

        expected = run()
        monkeypatch.setattr(ClusteredGraph, "clus_edge", property(dense))
        assert run() == expected


class TestSimulatedMetrics:
    def test_sim_makespan_dominates_analytic(self):
        clustered, system = random_instance(6)
        a = Assignment.random(system.num_nodes, rng=6)
        sched = evaluate_assignment(clustered, system, a)
        values = evaluate_metrics(clustered, system, a, SIMULATED)
        assert values["sim_makespan"] >= sched.total_time
        assert 0.0 <= values["sim_max_link_utilization"] <= 1.0
        assert values["sim_fifo_stall_time"] >= 0.0

    def test_params_reach_the_simulator(self):
        clustered, system = random_instance(7)
        a = Assignment.random(system.num_nodes, rng=7)
        base = evaluate_metrics(clustered, system, a, ["sim_makespan"])
        slow = evaluate_metrics(
            clustered, system, a, [("sim_makespan", {"link_setup": 5})]
        )
        assert slow["sim_makespan"] > base["sim_makespan"]

    def test_shared_memo_runs_one_simulation(self, monkeypatch):
        import repro.metrics.simulated as simulated

        calls = []
        real = simulated.simulate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(simulated, "simulate", counting)
        clustered, system = random_instance(8)
        a = Assignment.random(system.num_nodes, rng=8)
        evaluate_metrics(
            clustered, system, a, ["sim_makespan", "sim_max_link_utilization"]
        )
        assert len(calls) == 1  # identical SimConfig -> one shared run


RELAXATIONS = [
    {},
    {"serialize_processors": True},
    {"link_contention": True},
    {"serialize_processors": True, "link_contention": True},
    {"serialize_processors": True, "link_contention": True, "link_setup": 2},
    {"serialize_processors": True, "link_contention": True, "fifo_depth": 1},
]


class TestSimDominanceProperty:
    def test_every_topology_family_covered(self):
        from repro.api import available_topologies

        assert sorted(TOPOLOGY_SPECS) == available_topologies()

    @pytest.mark.parametrize("spec", sorted(TOPOLOGY_SPECS.values()))
    def test_sim_dominates_analytic_everywhere(self, spec):
        """ISSUE property: on every registered topology family, under
        every relaxation combination, the simulated makespan is bounded
        below by the paper's analytic total time — and metric evaluation
        is deterministic."""
        from repro.api import build_topology
        from repro.clustering import RandomClusterer
        from repro.workloads import layered_random_dag

        system = build_topology(spec, rng=0)
        ns = system.num_nodes
        graph = layered_random_dag(num_tasks=3 * ns, rng=41)
        clustering = RandomClusterer(num_clusters=ns).cluster(graph, rng=41)
        clustered = ClusteredGraph(graph, clustering)
        a = Assignment.random(ns, rng=41)
        analytic = evaluate_assignment(clustered, system, a).total_time
        for kwargs in RELAXATIONS:
            sim = simulate(clustered, system, a, SimConfig(**kwargs))
            assert sim.makespan >= analytic, (spec, kwargs)
        first = evaluate_metrics(clustered, system, a, available_metrics())
        second = evaluate_metrics(clustered, system, a, available_metrics())
        assert first == second


class TestScenarioMetricsAxis:
    SPECS = ["hop_bytes", "max_congestion", "sim_makespan"]

    def scenario(self, **over):
        base = dict(
            workload="layered_random",
            workload_params={"num_tasks": 16},
            topology="hypercube:2",
            mapper="critical",
            seed=3,
            metrics=self.SPECS,
        )
        base.update(over)
        return Scenario(**base)

    def test_key_gains_metrics_segment(self):
        s = self.scenario()
        assert "/metrics=hop_bytes,max_congestion,sim_makespan/seed=3" in s.key()

    def test_metricless_key_is_the_historical_key(self):
        s = self.scenario(metrics=())
        assert s.key() == (
            "workload=layered_random[num_tasks=16]/clustering=random/"
            "topology=hypercube:2/mapper=critical/seed=3"
        )
        assert "metrics" not in s.to_dict()

    def test_params_render_in_key(self):
        s = self.scenario(metrics=[("sim_makespan", {"link_setup": 2})])
        assert "metrics=sim_makespan[link_setup=2]" in s.key()

    def test_dict_round_trip(self):
        s = self.scenario(metrics=["hop_bytes", ("sim_makespan", {"fifo_depth": 2})])
        data = s.to_dict()
        assert data["metrics"] == [
            "hop_bytes",
            {"name": "sim_makespan", "params": {"fifo_depth": 2}},
        ]
        assert Scenario.from_dict(json.loads(json.dumps(data))) == s

    def test_bare_string_rejected(self):
        with pytest.raises(ScenarioError, match="wrap it in a list"):
            self.scenario(metrics="hop_bytes")

    def test_unknown_metric_names_axis(self):
        with pytest.raises(
            ScenarioError, match="scenario axis 'metrics'.*did you mean"
        ):
            self.scenario(metrics=["hop_byte"])

    def test_bad_params_rejected_eagerly(self):
        with pytest.raises(ScenarioError, match="scenario axis 'metrics'"):
            self.scenario(metrics=[("sim_makespan", {"nope": 1})])

    def test_grid_applies_metrics_to_every_scenario(self):
        scenarios = Scenario.grid(
            workload={"name": "layered_random", "params": {"num_tasks": 16}},
            topology=["hypercube:2", "ring:4"],
            mapper=["critical", "random"],
            metrics=["hop_bytes"],
        )
        assert len(scenarios) == 4
        assert all(s.metrics == (("hop_bytes", {}),) for s in scenarios)

    def test_expand_spec_top_level_metrics(self):
        scenarios = expand_spec(
            {
                "grid": {
                    "workload": {
                        "name": "layered_random",
                        "params": {"num_tasks": 16},
                    },
                    "topology": "hypercube:2",
                },
                "metrics": ["hop_bytes", "max_congestion"],
            }
        )
        assert scenarios[0].metrics == (("hop_bytes", {}), ("max_congestion", {}))

    def test_run_scenario_once_populates_outcome(self):
        outcome = run_scenario_once(self.scenario(), 0)
        assert sorted(outcome.metrics) == sorted(self.SPECS)
        assert outcome.metrics["sim_makespan"] >= outcome.total_time

    def test_metricless_outcome_stays_empty(self):
        outcome = run_scenario_once(self.scenario(metrics=()), 0)
        assert outcome.metrics == {}


class TestSweepMetrics:
    def scenarios(self):
        return Scenario.grid(
            workload={"name": "layered_random", "params": {"num_tasks": 16}},
            topology="hypercube:2",
            mapper=["critical", "random"],
            seed=5,
            metrics=["hop_bytes", "max_congestion"],
        )

    def test_records_summary_and_table(self):
        result = run_scenarios(self.scenarios())
        for record in result.records:
            assert sorted(record["outcome"]["metrics"]) == [
                "hop_bytes",
                "max_congestion",
            ]
        for _group, rows in summarize_sweep(result.records):
            for row in rows:
                assert set(row["metrics"]) == {"hop_bytes", "max_congestion"}
        table = format_sweep(result.records)
        assert "hop_bytes" in table and "max_congestion" in table

    def test_resume_replays_metrics_from_checkpoint(self, tmp_path):
        out = tmp_path / "results.jsonl"
        first = run_scenarios(self.scenarios(), out=out)
        assert first.executed == 2
        second = run_scenarios(self.scenarios(), out=out)
        assert second.executed == 0 and second.reused == 2
        assert [r["outcome"]["metrics"] for r in second.records] == [
            r["outcome"]["metrics"] for r in first.records
        ]


class TestServiceMetrics:
    def test_store_round_trip(self):
        from repro.service import outcome_from_dict, outcome_to_dict

        outcome = run_scenario_once(
            Scenario(
                workload="layered_random",
                workload_params={"num_tasks": 16},
                topology="hypercube:2",
                seed=1,
                metrics=["hop_bytes", "sim_makespan"],
            ),
            0,
        )
        data = outcome_to_dict(outcome)
        assert data["metrics"] == outcome.metrics
        assert outcome_to_dict(outcome_from_dict(data)) == data

    def test_metricless_outcome_dict_is_historical(self):
        from repro.service import outcome_to_dict

        outcome = run_scenario_once(
            Scenario(
                workload="layered_random",
                workload_params={"num_tasks": 16},
                topology="hypercube:2",
                seed=1,
            ),
            0,
        )
        assert "metrics" not in outcome_to_dict(outcome)

    def test_fingerprint_distinguishes_metric_requests(self):
        from repro.service import scenario_fingerprint

        plain = Scenario(
            workload="layered_random",
            workload_params={"num_tasks": 16},
            topology="hypercube:2",
            seed=1,
        )
        scored = Scenario(
            workload="layered_random",
            workload_params={"num_tasks": 16},
            topology="hypercube:2",
            seed=1,
            metrics=["hop_bytes"],
        )
        assert scenario_fingerprint(plain) != scenario_fingerprint(scored)

    def test_cached_scenario_job_replays_metrics(self):
        from repro.service import MappingService, outcome_to_dict

        scenario = Scenario(
            workload="layered_random",
            workload_params={"num_tasks": 16},
            topology="hypercube:2",
            seed=9,
            metrics=["hop_bytes", "sim_makespan"],
        )
        with MappingService(max_workers=2) as svc:
            job = svc.submit_scenario(scenario)
            outcome = job.result(timeout=60)
            assert sorted(outcome.metrics) == ["hop_bytes", "sim_makespan"]
            again = svc.submit_scenario(scenario)
            assert again.cached
            assert outcome_to_dict(again.result()) == outcome_to_dict(outcome)


class TestRefineMetric:
    def _level(self, seed=13, ns=8):
        from repro.workloads import layered_random_dag

        system = hypercube(3)
        graph = layered_random_dag(num_tasks=ns, rng=seed)
        return graph, system

    @pytest.mark.parametrize("metric", ["hop_bytes", "max_congestion"])
    def test_refinement_never_worsens_the_metric(self, metric):
        from repro.core.multilevel import refine_metric

        graph, system = self._level()
        clustered = ClusteredGraph(
            graph, Clustering(list(range(graph.num_tasks)))
        )
        a = Assignment.random(system.num_nodes, rng=13)
        before = evaluate_metrics(clustered, system, a, [metric])[metric]
        refined, value, probes, swaps = refine_metric(
            graph, system, a, passes=4, metric=metric
        )
        after = evaluate_metrics(clustered, system, refined, [metric])[metric]
        assert value == after <= before
        assert probes >= 0 and swaps >= 0

    def test_simulated_objective_rejected(self):
        from repro.core.multilevel import refine_metric

        graph, system = self._level()
        a = Assignment.random(system.num_nodes, rng=13)
        with pytest.raises(MappingError, match="analytic"):
            refine_metric(graph, system, a, passes=1, metric="sim_makespan")

    def test_multilevel_map_accepts_refine_metric(self):
        from repro.core.multilevel import (
            abstract_taskgraph,
            identity_clustering,
            multilevel_map,
        )

        clustered, system = random_instance(14)

        def initial(cg, sys_, rng):
            return Assignment.random(sys_.num_nodes, rng=14)

        result = multilevel_map(
            clustered, system, initial, refine_metric="hop_bytes", rng=14
        )
        level = ClusteredGraph(
            abstract_taskgraph(clustered),
            identity_clustering(clustered.num_clusters),
        )
        got = evaluate_metrics(level, system, result.assignment, ["hop_bytes"])
        assert result.comm_volume == got["hop_bytes"]

    def test_adapter_extras_contract(self):
        from repro.api import solve_instance

        clustered, system = random_instance(15)
        default = solve_instance(clustered, system, mapper="multilevel", rng=15)
        assert "comm_volume" in default.extras
        assert default.extras["refine_objective"] == default.extras["comm_volume"]
        scored = solve_instance(
            clustered,
            system,
            mapper="multilevel",
            rng=15,
            refine_metric="max_congestion",
        )
        assert "comm_volume" not in scored.extras
        assert "refine_objective" in scored.extras

    def test_adapter_rejects_simulated_objective(self):
        from repro.api import solve_instance

        clustered, system = random_instance(16)
        with pytest.raises(MappingError, match="analytic"):
            solve_instance(
                clustered,
                system,
                mapper="multilevel",
                rng=16,
                refine_metric="sim_makespan",
            )

    def test_analytic_metric_without_evaluator_rejected(self, monkeypatch):
        """A refinement objective must name its swap evaluator; an
        analytic metric that names none is refused by the one gate, so
        the refinement and the multilevel adapter both reject it."""
        from repro.api import get_mapper
        from repro.core.multilevel import refine_metric

        class Bare:
            name = "bare_test_metric"
            analytic = True

            def compute(self, clustered, system, assignment):
                return {self.name: 0.0}

        monkeypatch.setitem(METRICS._factories, Bare.name, Bare)
        graph, system = self._level()
        a = Assignment.random(system.num_nodes, rng=13)
        with pytest.raises(MappingError, match="names no evaluator"):
            refine_metric(graph, system, a, passes=1, metric=Bare.name)
        with pytest.raises(MappingError, match="names no evaluator"):
            get_mapper("multilevel", refine_metric=Bare.name)


class TestDeltaMetricMatrix:
    def test_metric_matrix_must_be_sized(self):
        from repro.core.incremental import CommVolumeDelta

        _, system = random_instance(0)
        ns = system.num_nodes
        weights = np.zeros((ns, ns), dtype=np.int64)
        a = Assignment.identity(ns)
        with pytest.raises(MappingError, match="got shape"):
            CommVolumeDelta(
                weights, system, a, metric=np.zeros((ns - 1, ns - 1), dtype=np.int64)
            )

    def test_metric_matrix_must_be_integer(self):
        from repro.core.incremental import CommVolumeDelta

        _, system = random_instance(0)
        ns = system.num_nodes
        weights = np.zeros((ns, ns), dtype=np.int64)
        halved = system.shortest / 2.0  # symmetric and square, but float
        with pytest.raises(MappingError, match="integer"):
            CommVolumeDelta(weights, system, Assignment.identity(ns), metric=halved)

    def test_default_matrix_matches_shortest_paths(self):
        from repro.core.incremental import CommVolumeDelta

        clustered, system = random_instance(1)
        sym = clustered.clus_edge + clustered.clus_edge.T
        # Aggregate over clusters: build the na x na symmetric weights.
        labels = clustered.clustering.labels
        na = clustered.num_clusters
        agg = np.zeros((na, na), dtype=np.int64)
        np.add.at(agg, (labels[:, None], labels[None, :]), sym)
        np.fill_diagonal(agg, 0)
        a = Assignment.random(system.num_nodes, rng=1)
        base = CommVolumeDelta(np.triu(agg, 1), system, a)
        explicit = CommVolumeDelta(np.triu(agg, 1), system, a, metric=system.shortest)
        assert base.volume == explicit.volume
        for c, d in [(0, 1), (2, 5), (3, 4)]:
            assert base.delta_swap(c, d) == explicit.delta_swap(c, d)


class TestAcceptanceTie:
    def test_congestion_separates_a_comm_volume_tie(self):
        """ISSUE acceptance: in a 2-mapper x 2-topology sweep, at least
        one recorded pair ties on comm_volume yet is separated by
        max_congestion or sim_makespan.  The grid and seed are pinned;
        the tie was found empirically and must not silently vanish."""
        scenarios = Scenario.grid(
            workload={"name": "layered_random", "params": {"num_tasks": 24}},
            topology=["hypercube:3", "mesh2d:2x4"],
            mapper=["critical", "random"],
            seed=2,
            metrics=["comm_volume", "hop_bytes", "max_congestion", "sim_makespan"],
        )
        result = run_scenarios(scenarios)
        assert len(result.records) == 4
        values = [r["outcome"]["metrics"] for r in result.records]
        separated = [
            (a, b)
            for i, a in enumerate(values)
            for b in values[i + 1 :]
            if a["comm_volume"] == b["comm_volume"]
            and (
                a["max_congestion"] != b["max_congestion"]
                or a["sim_makespan"] != b["sim_makespan"]
            )
        ]
        assert separated, values
