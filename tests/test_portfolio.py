"""Tests for repro.portfolio: anytime hooks, the racing fold, the
registered portfolio mapper, and the learned-defaults recommender."""

import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.api import Scenario, available_mappers, build_topology, get_mapper
from repro.api.scenario import ScenarioError
from repro.baselines.annealing import anneal_mapping
from repro.clustering import RandomClusterer
from repro.core import AbstractGraph, ClusteredGraph, evaluate_assignment
from repro.core.anytime import FileReporter, active_reporter, use_reporter
from repro.core.assignment import Assignment
from repro.portfolio import (
    DEFAULT_ARMS,
    ArmSpec,
    ObjectiveScorer,
    RaceFold,
    arm_seeds,
    arms_from_payload,
    family_of,
    merge_payloads,
    mine_records,
    race,
)
from repro.service import (
    MappingService,
    ServiceSaturatedError,
    set_default_service,
)
from repro.topology import hypercube
from repro.utils import MappingError
from repro.workloads import layered_random_dag
from tests.conftest import TOPOLOGY_SPECS


def make_instance(num_tasks=96, dim=3, seed=11):
    graph = layered_random_dag(num_tasks=num_tasks, rng=seed)
    system = hypercube(dim)
    clustering = RandomClusterer(num_clusters=system.num_nodes).cluster(
        graph, rng=seed
    )
    return ClusteredGraph(graph, clustering), system


@pytest.fixture(scope="module")
def instance():
    return make_instance()


@pytest.fixture
def fresh_default():
    """Swap in an isolated default service; restore the previous one after."""
    service = MappingService(max_workers=2, cache_size=64)
    previous = set_default_service(service)
    yield service
    set_default_service(previous)
    service.close()


class _ListReporter:
    """In-memory AnytimeReporter: records checkpoints, stops on demand."""

    def __init__(self, stop_after=None):
        self.checkpoints = []
        self.assignments = []
        self.stop_after = stop_after

    def report(self, iteration, best_metric, best_assignment):
        self.checkpoints.append((int(iteration), float(best_metric)))
        self.assignments.append(best_assignment)

    def should_stop(self):
        return (
            self.stop_after is not None
            and len(self.checkpoints) >= self.stop_after
        )


class _ExplodingMapper:
    """Module-level (picklable) mapper that always fails."""

    name = "exploding_test_mapper"

    def map(self, clustered, system, rng=None):
        raise RuntimeError("boom")


class TestAnytime:
    def test_file_reporter_stream_and_stop(self, tmp_path):
        ckpt = str(tmp_path / "arm.jsonl")
        stop = str(tmp_path / "arm.stop")
        reporter = FileReporter(ckpt, stop, "total_time")
        assert not reporter.should_stop()
        assignment = Assignment([2, 0, 1])
        reporter.report(10, 42.0, assignment)
        reporter.report(20, 41.0, assignment)
        lines = [json.loads(l) for l in open(ckpt)]
        assert [l["checkpoint"] for l in lines] == [1, 2]
        assert lines[0] == {
            "checkpoint": 1,
            "iteration": 10,
            "label": "total_time",
            "value": 42.0,
            "assignment": [2, 0, 1],
        }
        (tmp_path / "arm.stop").touch()
        assert reporter.should_stop()
        assert reporter.checkpoints_written == 2

    def test_use_reporter_stack(self):
        assert active_reporter() is None
        outer, inner = _ListReporter(), _ListReporter()
        with use_reporter(outer):
            assert active_reporter() is outer
            with use_reporter(inner):
                assert active_reporter() is inner
            assert active_reporter() is outer
        assert active_reporter() is None

    def test_annealing_never_stopped_bit_identical(self, instance):
        clustered, system = instance
        plain = anneal_mapping(clustered, system, rng=5)
        reporter = _ListReporter()
        hooked = anneal_mapping(clustered, system, rng=5, reporter=reporter)
        assert np.array_equal(plain.assignment.assi, hooked.assignment.assi)
        assert plain.total_time == hooked.total_time
        assert plain.evaluations == hooked.evaluations
        assert len(reporter.checkpoints) > 0

    def test_annealing_stops_gracefully_with_best_so_far(self, instance):
        clustered, system = instance
        full = anneal_mapping(clustered, system, rng=5)
        reporter = _ListReporter(stop_after=3)
        stopped = anneal_mapping(clustered, system, rng=5, reporter=reporter)
        assert stopped.evaluations < full.evaluations
        assert len(reporter.checkpoints) == 3
        # The returned best is a real assignment whose time evaluates.
        schedule = evaluate_assignment(clustered, system, stopped.assignment)
        assert schedule.total_time == stopped.total_time

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    @pytest.mark.parametrize(
        "objective", ["comm_volume", "hop_bytes", "avg_dilation", "max_congestion"]
    )
    def test_multilevel_checkpoints_carry_the_objective(self, objective, weighted):
        """A multilevel map labels its checkpoints with its refinement
        objective, so each value must be that metric of the checkpoint's
        assignment on the finest level (as the refinement scores it),
        and the last one the outcome's ``refine_objective``:
        ``avg_dilation``'s average, not the hop-bytes sum its evaluator
        keeps."""
        from repro.core.multilevel import abstract_taskgraph, identity_clustering
        from repro.metrics import get_metric
        from repro.topology import SystemGraph

        graph = layered_random_dag(num_tasks=400, rng=3)
        system = hypercube(4)
        if weighted:
            costs = np.random.default_rng(3).integers(1, 6, size=(16, 16))
            system = SystemGraph(system.sys_edge, link_weights=costs)
        clustering = RandomClusterer(num_clusters=16).cluster(graph, rng=3)
        clustered = ClusteredGraph(graph, clustering)
        level = ClusteredGraph(abstract_taskgraph(clustered), identity_clustering(16))
        metric = get_metric(objective)
        reporter = _ListReporter()
        mapper = get_mapper("multilevel", refine_metric=objective)
        with use_reporter(reporter):
            outcome = mapper.map(clustered, system, rng=3)
        assert mapper.anytime_label == objective and reporter.checkpoints
        for (_, value), assignment in zip(reporter.checkpoints, reporter.assignments):
            assert value == metric.compute(level, system, assignment)[objective]
        assert reporter.checkpoints[-1][1] == outcome.extras["refine_objective"]


class TestObjectiveScorer:
    def test_comm_volume_matches_schedule(self, instance):
        clustered, system = instance
        scorer = ObjectiveScorer(clustered, system, "comm_volume")
        rng = np.random.default_rng(3)
        for _ in range(5):
            assignment = Assignment.random(system.num_nodes, rng=rng)
            schedule = evaluate_assignment(clustered, system, assignment)
            assert scorer.score_assignment(assignment) == float(
                schedule.communication_volume()
            )

    @pytest.mark.parametrize("spec", sorted(TOPOLOGY_SPECS.values()))
    def test_comm_volume_matches_abstract_closed_form(self, spec):
        """The old private closed form, kept here as the oracle: the
        symmetric abstract weights times the hop distances of the hosts,
        over ordered cluster pairs, halved."""
        system = build_topology(spec, rng=0)
        graph = layered_random_dag(num_tasks=4 * system.num_nodes, rng=5)
        clustering = RandomClusterer(system.num_nodes).cluster(graph, rng=5)
        clustered = ClusteredGraph(graph, clustering)
        weights = AbstractGraph(clustered).weights
        scorer = ObjectiveScorer(clustered, system, "comm_volume")
        for seed in range(3):
            assignment = Assignment.random(system.num_nodes, rng=seed)
            place = assignment.placement
            hops = system.shortest[np.ix_(place, place)]
            expected = float(int((weights * hops).sum()) // 2)
            assert scorer.score_assignment(assignment) == expected

    def test_total_time_matches_schedule(self, instance):
        clustered, system = instance
        scorer = ObjectiveScorer(clustered, system, "total_time")
        assignment = Assignment.random(system.num_nodes, rng=9)
        schedule = evaluate_assignment(clustered, system, assignment)
        assert scorer.score_assignment(assignment) == float(schedule.total_time)

    def test_unknown_objective_rejected(self, instance):
        clustered, system = instance
        with pytest.raises(MappingError, match="unknown racing objective"):
            ObjectiveScorer(clustered, system, "latency")


class TestRaceFold:
    def test_needs_two_arms(self):
        with pytest.raises(MappingError, match=">= 2 arms"):
            RaceFold(1, 1.5)

    def test_kill_ratio_validated(self):
        with pytest.raises(MappingError, match="kill_ratio"):
            RaceFold(2, 0.9)

    def test_ratio_kill_at_first_ordinal(self):
        fold = RaceFold(2, 1.5)
        fold.add_checkpoint(0, 10.0)
        fold.add_checkpoint(1, 100.0)
        assert fold.advance() == [1]
        assert fold.killed_at == {1: 1}
        assert fold.killed_value[1] == 100.0

    def test_close_values_survive_ratio(self):
        fold = RaceFold(2, 1.5)
        fold.add_checkpoint(0, 10.0)
        fold.add_checkpoint(1, 12.0)
        assert fold.advance() == []
        assert fold.killed_at == {}

    def test_best_arm_never_killed(self):
        fold = RaceFold(3, 1.5)
        for arm, value in ((0, 10.0), (1, 16.0), (2, 17.0)):
            fold.add_checkpoint(arm, value)
        assert sorted(fold.advance()) == [1, 2]
        assert 0 in fold.active

    def test_finished_arm_dominates_trailing_arm(self):
        fold = RaceFold(2, 10.0)  # ratio rule effectively off
        fold.add_checkpoint(0, 6.0)
        fold.set_final(0, 5.0)
        fold.add_checkpoint(1, 7.0)
        assert fold.advance() == []  # ordinal 1: both have values
        fold.add_checkpoint(1, 6.5)
        # Ordinal 2: arm 0's stream ended before it with final 5.0 < 6.5.
        assert fold.advance() == [1]
        assert fold.killed_at == {1: 2}

    def test_failed_arm_drops_silently(self):
        fold = RaceFold(2, 1.5)
        fold.add_checkpoint(1, 9.0)
        fold.set_failed(0)
        assert fold.advance() == []
        assert fold.killed_at == {}
        assert fold.active == {1}

    def test_verdict_invariant_to_arrival_interleaving(self):
        streams = {0: [6.0], 1: [7.0, 6.5, 6.2]}
        final = {0: 5.0}

        def run_schedule(interleaved):
            fold = RaceFold(2, 10.0)
            if interleaved:
                fold.add_checkpoint(0, streams[0][0])
                fold.add_checkpoint(1, streams[1][0])
                fold.advance()
                fold.set_final(0, final[0])
                fold.advance()
                for value in streams[1][1:]:
                    if 1 in fold.killed_at:
                        break
                    fold.add_checkpoint(1, value)
                    fold.advance()
            else:
                for value in streams[1]:
                    fold.add_checkpoint(1, value)
                fold.advance()
                fold.add_checkpoint(0, streams[0][0])
                fold.set_final(0, final[0])
                fold.advance()
            return dict(fold.killed_at)

        assert run_schedule(True) == run_schedule(False) == {1: 2}


class TestRace:
    ARMS = None  # built lazily: registry imports at module scope are fine

    @staticmethod
    def build_arms():
        return [
            ArmSpec("critical", {}, get_mapper("critical")),
            ArmSpec("annealing", {}, get_mapper("annealing")),
        ]

    def test_winner_bit_identical_to_solo(self, instance):
        clustered, system = instance
        arms = self.build_arms()
        result = race(clustered, system, arms, rng=21)
        seed = arm_seeds(21, len(arms))[result.winner]
        solo = arms[result.winner].mapper.map(clustered, system, rng=seed)
        assert np.array_equal(
            result.outcome.assignment.placement, solo.assignment.placement
        )
        assert result.outcome.total_time == solo.total_time

    def test_repeat_race_byte_identical_diagnostics(self, instance):
        clustered, system = instance
        first = race(clustered, system, self.build_arms(), rng=21)
        second = race(clustered, system, self.build_arms(), rng=21)
        assert first.winner == second.winner
        assert json.dumps(first.arms, sort_keys=True) == json.dumps(
            second.arms, sort_keys=True
        )

    def test_explicit_executor_matches_default_pool(self, instance):
        # The explicit-executor branch ships the instance via a pickle
        # file instead of fork inheritance; the verdict must not change.
        clustered, system = instance
        default = race(clustered, system, self.build_arms(), rng=21)
        with ProcessPoolExecutor(max_workers=2) as pool:
            explicit = race(
                clustered, system, self.build_arms(), rng=21, executor=pool
            )
        assert explicit.winner == default.winner
        assert json.dumps(explicit.arms, sort_keys=True) == json.dumps(
            default.arms, sort_keys=True
        )
        assert np.array_equal(
            explicit.outcome.assignment.placement,
            default.outcome.assignment.placement,
        )

    def test_all_arms_failing_raises(self, instance):
        clustered, system = instance
        arms = [
            ArmSpec("boom_a", {}, _ExplodingMapper()),
            ArmSpec("boom_b", {}, _ExplodingMapper()),
        ]
        with pytest.raises(MappingError, match="killed or failed"):
            race(clustered, system, arms, rng=1)

    def test_one_failing_arm_is_an_arm_loss_only(self, instance):
        clustered, system = instance
        arms = [
            ArmSpec("critical", {}, get_mapper("critical")),
            ArmSpec("boom", {}, _ExplodingMapper()),
        ]
        result = race(clustered, system, arms, rng=1)
        assert result.winner == 0
        statuses = {a["mapper"]: a["status"] for a in result.arms}
        assert statuses == {"critical": "won", "boom": "failed"}

    def test_arm_seeds_stable_and_independent(self):
        first = arm_seeds(42, 3)
        assert arm_seeds(42, 3) == first
        assert len(set(first)) == 3
        assert arm_seeds(43, 3) != first


class TestPortfolioAdapter:
    def test_registered(self):
        assert "portfolio" in available_mappers()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"objective": "latency"}, "unknown portfolio objective"),
            ({"kill_ratio": 0.5}, "kill_ratio"),
            ({"max_auto_arms": 1}, "max_auto_arms"),
            ({"arms": ["critical"]}, "at least two arms"),
            ({"arms": ["critical", "portfolio"]}, "cannot itself be"),
            ({"arms": "best"}, "must be 'auto' or a list"),
            ({"arms": {"name": "critical"}}, "must be 'auto' or a list"),
            (
                {"arms": [{"name": "critical", "cooling": 0.9}, "tabu"]},
                "optional 'params'",
            ),
            ({"arms": [("critical",), "tabu"]}, "pair"),
            ({"arms": [["tabu", "x"], "critical"]}, "params of 'tabu'"),
            ({"arms": [(3, {}), "critical"]}, "name must be a string"),
        ],
    )
    def test_validation_errors(self, kwargs, message):
        with pytest.raises(MappingError, match=message):
            get_mapper("portfolio", **kwargs)

    def test_outcome_carries_racing_diagnostics(self, instance):
        clustered, system = instance
        mapper = get_mapper(
            "portfolio", arms=["critical", "annealing"], objective="total_time"
        )
        outcome = mapper.map(clustered, system, rng=21)
        diag = outcome.portfolio
        assert diag["objective"] == "total_time"
        assert diag["kill_ratio"] == 1.5
        assert {a["mapper"] for a in diag["arms"]} == {"critical", "annealing"}
        statuses = [a["status"] for a in diag["arms"]]
        assert statuses.count("won") == 1
        for arm in diag["arms"]:
            if arm["status"] == "killed":
                assert arm["kill_iteration"] >= 1
        assert diag["winner"]["mapper"] == diag["arms"][diag["winner"]["arm"]][
            "mapper"
        ]
        assert outcome.extras["arms_total"] == 2.0
        assert (
            outcome.extras["arms_killed"]
            == sum(a["status"] == "killed" for a in diag["arms"]) * 1.0
        )

    def test_explicit_arms_cacheable_auto_not(self):
        assert getattr(
            get_mapper("portfolio", arms=["critical", "tabu"]),
            "cacheable",
            True,
        )
        assert get_mapper("portfolio").cacheable is False

    def test_auto_arms_fall_back_to_defaults(self, instance, fresh_default):
        # No store, no history: auto mode pads from DEFAULT_ARMS to the
        # two-arm minimum.
        clustered, system = instance
        outcome = get_mapper("portfolio").map(clustered, system, rng=4)
        arms = [a["mapper"] for a in outcome.portfolio["arms"]]
        assert arms == [name for name, _ in DEFAULT_ARMS[:2]]

    def test_scenario_rejects_auto_arms(self):
        with pytest.raises(ScenarioError, match="explicit 'arms' list"):
            Scenario(
                workload="fft",
                workload_params={"points_log2": 2},
                topology="hypercube:2",
                mapper="portfolio",
            )

    def test_scenario_accepts_explicit_arms(self):
        scenario = Scenario(
            workload="fft",
            workload_params={"points_log2": 2},
            topology="hypercube:2",
            mapper="portfolio",
            mapper_params={"arms": ["critical", "tabu"]},
        )
        assert scenario.mapper == "portfolio"


class TestRecommender:
    def test_family_of(self):
        assert family_of("hypercube:6") == "hypercube"
        assert family_of("fft") == "fft"
        assert family_of("layered_random-5000") == "layered_random"
        assert family_of("torus2d:4x4") == "torus2d"
        assert family_of("123") == "123"  # no identifier prefix: verbatim

    @staticmethod
    def records():
        def rec(mapper, total, bound, wall, workload="fft", topology="hypercube"):
            outcome = {
                "total_time": total,
                "lower_bound": bound,
                "wall_time": wall,
                "mapper": mapper,
            }
            meta = {
                "workload": workload,
                "topology": topology,
                "mapper": mapper,
                "params": {},
            }
            return (f"fp-{mapper}-{total}-{wall}", outcome, meta)

        return [
            rec("critical", 110, 100, 0.01),
            rec("critical", 120, 100, 0.02),
            rec("annealing", 105, 100, 2.0),
            rec("tabu", 140, 100, 0.5),
            rec("tabu", 100, 100, 0.5, workload="gnp"),  # other family
            ("fp-nometa", {"total_time": 1, "lower_bound": 1}, None),
        ]

    def test_mine_records_ranks_by_quality_then_cost(self):
        payload = mine_records(self.records(), "fft", "hypercube:3")
        assert payload["workload"] == "fft"
        assert payload["topology"] == "hypercube"
        assert payload["samples"] == 4  # the gnp and meta-less records skipped
        assert payload["recommendation"]["mapper"] == "annealing"
        assert payload["recommendation"]["samples"] == 1
        ranked = [payload["recommendation"]] + payload["alternatives"]
        assert [c["mapper"] for c in ranked] == ["annealing", "critical", "tabu"]
        critical = ranked[1]
        assert critical["mean_percent_of_bound"] == pytest.approx(115.0)

    def test_mine_records_no_evidence_is_none(self):
        assert mine_records(self.records(), "cholesky", "ring") is None
        assert mine_records([], "fft", "hypercube") is None

    def test_merge_payloads_sample_weighted(self):
        a = mine_records(self.records(), "fft", "hypercube")
        b = {
            "workload": "fft",
            "topology": "hypercube",
            "samples": 10,
            "recommendation": {
                "mapper": "critical",
                "params": {},
                "samples": 10,
                "mean_percent_of_bound": 101.0,
                "mean_wall_time": 0.01,
            },
            "alternatives": [],
        }
        merged = merge_payloads([a, None, b])
        assert merged["samples"] == 14
        # 10 samples at 101 pull critical's mean below annealing's 105.
        assert merged["recommendation"]["mapper"] == "critical"
        critical = merged["recommendation"]
        assert critical["samples"] == 12
        assert critical["mean_percent_of_bound"] == pytest.approx(
            (2 * 115.0 + 10 * 101.0) / 12
        )
        assert merge_payloads([None, None]) is None

    def test_arms_from_payload_dedupes_and_skips_portfolio(self):
        payload = {
            "recommendation": {"mapper": "portfolio", "params": {}},
            "alternatives": [
                {"mapper": "tabu", "params": {"iterations": 5}},
                {"mapper": "tabu", "params": {"iterations": 5}},
                {"mapper": "critical", "params": {}},
                {"mapper": "annealing", "params": {}},
            ],
        }
        assert arms_from_payload(payload, max_arms=2) == [
            ("tabu", {"iterations": 5}),
            ("critical", {}),
        ]


class TestServiceIntegration:
    def test_drain_joins_inflight_portfolio_arms(self):
        graph, system = layered_random_dag(num_tasks=64, rng=2), hypercube(3)
        clustering = RandomClusterer(num_clusters=system.num_nodes).cluster(
            graph, rng=2
        )
        service = MappingService(max_workers=2, cache_size=16)
        try:
            job = service.submit(
                graph,
                clustering,
                system,
                mapper="portfolio",
                rng=6,
                arms=["critical", "annealing"],
            )
            assert service.drain(timeout=120.0) == 0
            outcome = job.result(timeout=1.0)
            assert outcome.portfolio["arms"]
        finally:
            service.close()

    def test_queue_limit_zero_still_serves_cached_portfolio(self):
        graph, system = layered_random_dag(num_tasks=64, rng=2), hypercube(3)
        clustering = RandomClusterer(num_clusters=system.num_nodes).cluster(
            graph, rng=2
        )
        service = MappingService(max_workers=2, cache_size=16)
        try:
            job = service.submit(
                graph,
                clustering,
                system,
                mapper="portfolio",
                rng=6,
                arms=["critical", "annealing"],
            )
            first = job.result(timeout=120.0)
            service.drain(timeout=120.0)
            # Drain mode: no new work, cached answers still flow.
            service.queue_limit = 0
            cached = service.submit(
                graph,
                clustering,
                system,
                mapper="portfolio",
                rng=6,
                arms=["critical", "annealing"],
            )
            assert cached.cached is True
            assert np.array_equal(
                cached.result(timeout=1.0).assignment.placement,
                first.assignment.placement,
            )
            with pytest.raises(ServiceSaturatedError):
                service.submit(
                    graph,
                    clustering,
                    system,
                    mapper="portfolio",
                    rng=7,  # different fingerprint: real work, refused
                    arms=["critical", "annealing"],
                )
        finally:
            service.close()

    def test_recommend_end_to_end_via_real_solves(self, tmp_path):
        store = str(tmp_path / "history.jsonl")
        service = MappingService(max_workers=2, cache_size=16, store_path=store)
        try:
            assert service.recommend("fft", "hypercube") is None
            scenario = Scenario(
                workload="fft",
                workload_params={"points_log2": 3},
                topology="hypercube:2",
                mapper="critical",
                seed=5,
            )
            service.submit_scenario(scenario).result(timeout=120.0)
            payload = service.recommend("fft", "hypercube:2")
            assert payload is not None
            assert payload["recommendation"]["mapper"] == "critical"
            assert payload["samples"] == 1
        finally:
            service.close()
        # The mined default survives a restart from the durable store.
        reopened = MappingService(max_workers=2, cache_size=16, store_path=store)
        try:
            payload = reopened.recommend("fft", "hypercube")
            assert payload is not None
            assert payload["recommendation"]["mapper"] == "critical"
        finally:
            reopened.close()
