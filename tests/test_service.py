"""Tests for repro.service: fingerprints, store, cache, and the service."""

import pytest

from repro.api import ProblemInstance, Scenario, compare, solve, solve_many
from repro.clustering import RandomClusterer
from repro.core import ClusteredGraph
from repro.service import (
    MappingService,
    OutcomeCache,
    ResultStore,
    instance_fingerprint,
    outcome_from_dict,
    outcome_to_dict,
    scenario_fingerprint,
    set_default_service,
)
from repro.service import service as service_module
from repro.topology import SystemGraph, hypercube
from repro.utils import MappingError
from repro.workloads import layered_random_dag


class _DelegatingMapper:
    """Module-level (hence picklable) mapper used by the late-registration
    test; delegates to the paper's critical-edge strategy."""

    name = "late_test_mapper"

    def map(self, clustered, system, rng=None):
        from repro.api.registry import get_mapper

        return get_mapper("critical").map(clustered, system, rng=rng)


def make_instance(num_tasks=32, dim=3, seed=1):
    graph = layered_random_dag(num_tasks=num_tasks, rng=seed)
    system = hypercube(dim)
    clustering = RandomClusterer(num_clusters=system.num_nodes).cluster(
        graph, rng=seed
    )
    return graph, clustering, system


@pytest.fixture
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


class TestFingerprint:
    def test_deterministic(self, instance):
        graph, clustering, system = instance
        clustered = ClusteredGraph(graph, clustering)
        fp1 = instance_fingerprint(clustered, system, "tabu", {"iterations": 5}, 7)
        fp2 = instance_fingerprint(clustered, system, "tabu", {"iterations": 5}, 7)
        assert fp1 == fp2
        assert len(fp1) == 64  # sha256 hex

    def test_param_order_irrelevant(self, instance):
        graph, clustering, system = instance
        clustered = ClusteredGraph(graph, clustering)
        a = instance_fingerprint(clustered, system, "m", {"a": 1, "b": 2}, 0)
        b = instance_fingerprint(clustered, system, "m", {"b": 2, "a": 1}, 0)
        assert a == b

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g, c, s: (g, c, s, "random", {}, 7),  # different mapper
            lambda g, c, s: (g, c, s, "tabu", {"iterations": 9}, 7),  # params
            lambda g, c, s: (g, c, s, "tabu", {}, 8),  # seed
        ],
    )
    def test_sensitive_to_every_axis(self, instance, mutate):
        graph, clustering, system = instance
        clustered = ClusteredGraph(graph, clustering)
        base = instance_fingerprint(clustered, system, "tabu", {}, 7)
        g, c, s, mapper, params, seed = mutate(graph, clustering, system)
        assert instance_fingerprint(
            ClusteredGraph(g, c), s, mapper, params, seed
        ) != base

    def test_sensitive_to_graph_and_system(self, instance):
        graph, clustering, system = instance
        clustered = ClusteredGraph(graph, clustering)
        base = instance_fingerprint(clustered, system, "critical", {}, 0)
        g2, c2, s2 = make_instance(seed=2)
        other = instance_fingerprint(ClusteredGraph(g2, c2), s2, "critical", {}, 0)
        assert base != other

    def test_system_name_excluded(self, instance):
        graph, clustering, _ = instance
        clustered = ClusteredGraph(graph, clustering)
        a = instance_fingerprint(clustered, hypercube(3), "critical", {}, 0)
        renamed = hypercube(3)
        renamed.name = "some-other-label"
        b = instance_fingerprint(clustered, renamed, "critical", {}, 0)
        assert a == b

    def test_link_weights_included(self):
        import numpy as np

        graph = layered_random_dag(num_tasks=24, rng=3)
        clustering = RandomClusterer(num_clusters=4).cluster(graph, rng=3)
        clustered = ClusteredGraph(graph, clustering)
        adj = np.array(
            [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
        )
        unit = SystemGraph(adj)
        heavy_w = adj * 1
        heavy_w[0, 1] = heavy_w[1, 0] = 3
        heavy = SystemGraph(adj, link_weights=heavy_w)
        a = instance_fingerprint(clustered, unit, "critical", {}, 0)
        b = instance_fingerprint(clustered, heavy, "critical", {}, 0)
        assert a != b

    def test_scenario_fingerprint_ignores_replicas_and_name(self):
        kw = dict(
            workload="fft",
            workload_params={"points_log2": 3},
            topology="hypercube:2",
            mapper="critical",
            seed=5,
        )
        one = Scenario(replicas=1, **kw)
        many = Scenario(replicas=4, name="labelled", **kw)
        assert scenario_fingerprint(one, 0) == scenario_fingerprint(many, 0)
        assert scenario_fingerprint(many, 0) != scenario_fingerprint(many, 1)


class TestStore:
    def outcome(self):
        graph, clustering, system = make_instance()
        svc = MappingService()
        try:
            return svc.solve(graph, clustering, system, mapper="tabu", rng=7)
        finally:
            svc.close()

    def test_outcome_round_trip_lossless(self):
        outcome = self.outcome()
        data = outcome_to_dict(outcome)
        back = outcome_from_dict(data)
        assert outcome_to_dict(back) == data
        assert back.wall_time == outcome.wall_time
        assert (back.assignment.assi == outcome.assignment.assi).all()

    def test_durable_round_trip(self, tmp_path):
        outcome = self.outcome()
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        assert store.put("fp1", outcome)
        assert not store.put("fp1", outcome)  # first write wins
        store.close()

        reopened = ResultStore(path)
        assert reopened.recovered == 1
        assert "fp1" in reopened
        assert outcome_to_dict(reopened.get("fp1")) == outcome_to_dict(outcome)
        assert reopened.get("missing") is None

    def test_survives_torn_tail(self, tmp_path):
        outcome = self.outcome()
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put("fp1", outcome)
        store.put("fp2", outcome)
        store.close()
        with path.open("a") as fh:
            fh.write('{"fingerprint": "fp3", "outcome": {"mapper": "tr')  # torn
        reopened = ResultStore(path)
        assert reopened.recovered == 2
        assert "fp3" not in reopened

    def test_memory_only(self):
        outcome = self.outcome()
        store = ResultStore(None)
        store.put("fp", outcome)
        assert store.path is None
        assert len(store) == 1

    def test_put_after_close_refused(self, tmp_path):
        outcome = self.outcome()
        store = ResultStore(tmp_path / "s.jsonl")
        assert store.put("fp1", outcome)
        store.close()
        assert not store.put("fp2", outcome)  # refused, no reopened handle
        assert ResultStore(tmp_path / "s.jsonl").recovered == 1


class TestCache:
    def outcome(self, seed=1):
        graph, clustering, system = make_instance(seed=seed)
        svc = MappingService()
        try:
            return svc.solve(graph, clustering, system, rng=seed)
        finally:
            svc.close()

    def test_lru_eviction_falls_back_to_store(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        cache = OutcomeCache(capacity=2, store=store)
        outcomes = {f"fp{i}": self.outcome(seed=i) for i in range(3)}
        for fp, outcome in outcomes.items():
            cache.put(fp, outcome)
        assert len(cache) == 2  # fp0 evicted from memory...
        hit = cache.get("fp0")  # ...but promoted back from the store
        assert outcome_to_dict(hit) == outcome_to_dict(outcomes["fp0"])
        assert cache.stats()["hits"] == 1

    def test_miss_counts(self):
        cache = OutcomeCache(capacity=2)
        assert cache.get("nope") is None
        assert cache.stats()["misses"] == 1

    def test_capacity_validated(self):
        with pytest.raises(MappingError, match="capacity"):
            OutcomeCache(capacity=0)


class TestServiceSolve:
    def test_warm_cache_bit_identical_no_execution(self, instance, monkeypatch):
        """The acceptance property: the second identical solve is served
        from the cache — zero executions, zero pool contact — and the
        outcome is bit-identical, wall_time included."""
        graph, clustering, system = instance
        executions = []
        real = service_module._execute_solve
        monkeypatch.setattr(
            service_module,
            "_execute_solve",
            lambda task: executions.append(task) or real(task),
        )
        with MappingService(cache_size=8) as svc:
            first = svc.solve(graph, clustering, system, mapper="tabu", rng=7)
            assert len(executions) == 1
            # any pool contact from here on is a failure
            monkeypatch.setattr(
                MappingService,
                "executor",
                lambda self: pytest.fail("cache hit must not touch the pool"),
            )
            second = svc.solve(graph, clustering, system, mapper="tabu", rng=7)
            assert len(executions) == 1  # no recompute
            assert second is first
            assert outcome_to_dict(second) == outcome_to_dict(first)
            assert not svc.pool_started

    def test_different_seed_recomputes(self, instance):
        graph, clustering, system = instance
        with MappingService() as svc:
            svc.solve(graph, clustering, system, rng=1)
            svc.solve(graph, clustering, system, rng=2)
            assert svc.executed == 2

    def test_uncacheable_rng_always_executes(self, instance):
        import numpy as np

        graph, clustering, system = instance
        with MappingService() as svc:
            svc.solve(graph, clustering, system, rng=None)
            svc.solve(graph, clustering, system, rng=None)
            svc.solve(graph, clustering, system, rng=np.random.default_rng(3))
            assert svc.executed == 3
            assert svc.cache.stats()["stores"] == 0

    def test_instantiated_mapper_bypasses_cache(self, instance):
        from repro.api import get_mapper

        graph, clustering, system = instance
        with MappingService() as svc:
            mapper = get_mapper("critical")
            svc.solve(graph, clustering, system, mapper=mapper, rng=1)
            svc.solve(graph, clustering, system, mapper=mapper, rng=1)
            assert svc.executed == 2

    def test_instantiated_mapper_with_params_raises(self, instance):
        from repro.api import get_mapper

        graph, clustering, system = instance
        with MappingService() as svc:
            with pytest.raises(TypeError, match="mapper \\*name\\*"):
                svc.solve(
                    graph, clustering, system,
                    mapper=get_mapper("critical"), rng=1, samples=5,
                )

    def test_durable_store_survives_restart(self, instance, tmp_path):
        graph, clustering, system = instance
        path = tmp_path / "results.jsonl"
        with MappingService(store_path=path) as svc:
            first = svc.solve(graph, clustering, system, mapper="tabu", rng=7)
            assert svc.executed == 1
        with MappingService(store_path=path) as svc2:
            again = svc2.solve(graph, clustering, system, mapper="tabu", rng=7)
            assert svc2.executed == 0  # recovered, not recomputed
            assert outcome_to_dict(again) == outcome_to_dict(first)

    def test_closed_service_rejects_work(self, instance):
        graph, clustering, system = instance
        svc = MappingService()
        svc.close()
        with pytest.raises(MappingError, match="closed"):
            svc.executor()
        with pytest.raises(MappingError, match="closed"):
            svc.solve(graph, clustering, system, rng=1)
        with pytest.raises(MappingError, match="closed"):
            svc.submit(graph, clustering, system, rng=1)

    def test_bad_worker_count(self):
        with pytest.raises(MappingError, match="max_workers"):
            MappingService(max_workers=0)


class TestServiceJobs:
    def test_submit_runs_and_caches(self, instance):
        graph, clustering, system = instance
        with MappingService(max_workers=2) as svc:
            job = svc.submit(graph, clustering, system, mapper="critical", rng=3)
            outcome = job.result(timeout=60)
            assert job.status == "done"
            assert job.done()
            assert not job.cached
            assert svc.job(job.id) is job
            # identical re-submission: answered from cache, new job id
            job2 = svc.submit(graph, clustering, system, mapper="critical", rng=3)
            assert job2.cached
            assert job2.status == "done"
            assert job2.id != job.id
            assert outcome_to_dict(job2.result()) == outcome_to_dict(outcome)

    def test_inflight_deduplication(self, instance):
        from concurrent.futures import Future

        graph, clustering, system = instance

        class FakePool:
            def __init__(self):
                self.futures = []

            def submit(self, fn, *args):
                future = Future()
                self.futures.append((future, fn, args))
                return future

        with MappingService() as svc:
            pool = FakePool()
            svc.executor = lambda: pool
            j1 = svc.submit(graph, clustering, system, mapper="tabu", rng=5)
            j2 = svc.submit(graph, clustering, system, mapper="tabu", rng=5)
            assert j1 is j2  # same inflight job, not a second execution
            assert len(pool.futures) == 1
            future, fn, args = pool.futures[0]
            future.set_result(fn(*args))  # complete it "on the pool"
            assert j1.status == "done"
            # now that it is cached, a new submit is a cached job
            j3 = svc.submit(graph, clustering, system, mapper="tabu", rng=5)
            assert j3.cached and j3 is not j1

    def test_submit_scenario_and_cache(self):
        scenario = Scenario(
            workload="fft",
            workload_params={"points_log2": 3},
            topology="hypercube:2",
            mapper="critical",
            seed=11,
        )
        with MappingService(max_workers=2) as svc:
            job = svc.submit_scenario(scenario)
            outcome = job.result(timeout=60)
            assert outcome.total_time >= outcome.lower_bound
            again = svc.submit_scenario(scenario)
            assert again.cached
            assert outcome_to_dict(again.result()) == outcome_to_dict(outcome)

    def test_submit_scenario_replica_range(self):
        scenario = Scenario(
            workload="fft", workload_params={"points_log2": 3},
            topology="hypercube:2", replicas=2,
        )
        with MappingService() as svc:
            with pytest.raises(MappingError, match="replica 2 out of range"):
                svc.submit_scenario(scenario, replica=2)

    def test_failed_job_reports_error(self):
        # 4 tasks cannot fill an 8-node hypercube -> worker-side failure
        scenario = Scenario(
            workload="layered_random", workload_params={"num_tasks": 4},
            topology="hypercube:3",
        )
        with MappingService(max_workers=2) as svc:
            job = svc.submit_scenario(scenario)
            with pytest.raises(MappingError):
                job.result(timeout=60)
            assert job.status == "failed"
            assert "every node needs a cluster" in job.error
            assert job.to_dict()["status"] == "failed"
            # a failure is not cached: the next submit tries again
            retry = svc.submit_scenario(scenario)
            assert not retry.cached

    def test_endless_annealing_schedule_fails_and_the_service_serves_on(self):
        """A scenario's mapper_params are checked by name when it is built
        and by value when the mapper runs: ``cooling: 1.0`` used to hold
        its worker forever.  It now fails the job with the mapper's
        message, the failure is not cached, and the next job runs."""
        base = dict(
            workload="layered_random", workload_params={"num_tasks": 60},
            topology="hypercube:3", mapper="annealing", seed=3,
        )
        endless = Scenario(**base, mapper_params={"cooling": 1.0})
        with MappingService(max_workers=1) as svc:
            job = svc.submit_scenario(endless)
            with pytest.raises(MappingError, match="cooling must be in"):
                job.result(timeout=60)
            assert job.status == "failed"
            assert "cooling must be in (0, 1), got 1.0" in job.error
            retry = svc.submit_scenario(endless)
            assert not retry.cached and retry is not job
            with pytest.raises(MappingError):
                retry.result(timeout=60)
            ok = svc.submit_scenario(Scenario(**base, mapper_params={"cooling": 0.5}))
            assert ok.result(timeout=60).total_time >= 1
            assert ok.status == "done"

    def test_failed_scheduling_releases_fingerprint(self, instance):
        graph, clustering, system = instance
        with MappingService(max_workers=2) as svc:
            def boom():
                raise MappingError("no pool today")

            svc.executor = boom
            with pytest.raises(MappingError, match="no pool today"):
                svc.submit(graph, clustering, system, mapper="tabu", rng=9)
            zombie = svc.jobs()[-1]
            assert zombie.status == "failed"  # resolved, not stuck pending
            assert "could not be scheduled" in zombie.error
            del svc.executor  # back to the real (class-level) pool
            retry = svc.submit(graph, clustering, system, mapper="tabu", rng=9)
            assert retry is not zombie  # fingerprint was reclaimed
            assert retry.result(timeout=60).total_time >= 1

    def test_job_to_dict_shapes(self, instance):
        graph, clustering, system = instance
        with MappingService(max_workers=2) as svc:
            job = svc.submit(graph, clustering, system, rng=1)
            job.result(timeout=60)
            payload = job.to_dict()
            assert payload["id"] == job.id
            assert payload["status"] == "done"
            assert payload["outcome"]["total_time"] >= payload["outcome"]["lower_bound"]

    def test_jobs_listing(self, instance):
        graph, clustering, system = instance
        with MappingService(max_workers=2) as svc:
            assert svc.jobs() == []
            job = svc.submit(graph, clustering, system, rng=1)
            job.result(timeout=60)
            assert [j.id for j in svc.jobs()] == [job.id]
            assert svc.job("job-999") is None

    def test_cancelled_queued_job_resolves_instead_of_hanging(self, instance):
        from concurrent.futures import Future

        graph, clustering, system = instance

        class FakePool:
            def submit(self, fn, *args):
                return Future()  # never runs; stays pending until cancelled

        svc = MappingService()
        svc.executor = lambda: FakePool()
        job = svc.submit(graph, clustering, system, mapper="tabu", rng=5)
        assert job.status == "pending"
        job._backing.cancel()  # what pool.shutdown(cancel_futures=True) does
        assert job.status == "failed"
        assert "cancelled" in job.error
        with pytest.raises(MappingError, match="cancelled"):
            job.result(timeout=1)
        # a retry is possible: the inflight slot was released
        retry = svc.submit(graph, clustering, system, mapper="tabu", rng=5)
        assert retry is not job

    def test_running_status_reflects_backing_future(self, instance):
        from concurrent.futures import Future

        graph, clustering, system = instance

        class FakePool:
            def submit(self, fn, *args):
                return Future()

        svc = MappingService()
        svc.executor = lambda: FakePool()
        job = svc.submit(graph, clustering, system, rng=1)
        assert job.status == "pending"
        job._backing.set_running_or_notify_cancel()
        assert job.status == "running"

    def test_job_history_bounded_finished_only(self, instance):
        graph, clustering, system = instance
        with MappingService(max_workers=2, job_history=3) as svc:
            first = svc.submit(graph, clustering, system, mapper="critical", rng=1)
            first.result(timeout=60)
            # cached re-submissions finish instantly and churn the history
            for _ in range(6):
                svc.submit(graph, clustering, system, mapper="critical", rng=1)
            jobs = svc.jobs()
            assert len(jobs) == 3
            assert all(j.done() for j in jobs)
            assert svc.job(first.id) is None  # oldest finished job evicted

        with pytest.raises(MappingError, match="job_history"):
            MappingService(job_history=0)

    def test_cache_hit_job_survives_full_inflight_history(self, instance):
        from concurrent.futures import Future

        graph, clustering, system = instance

        class FakePool:
            def submit(self, fn, *args):
                return Future()  # stays in flight

        with MappingService(job_history=2) as svc:
            # seed the cache inline, then fill the history with in-flight jobs
            done = svc.solve(graph, clustering, system, mapper="critical", rng=1)
            svc.executor = lambda: FakePool()
            for seed in (101, 102):
                svc.submit(graph, clustering, system, mapper="critical", rng=seed)
            hit = svc.submit(graph, clustering, system, mapper="critical", rng=1)
            assert hit.cached
            # over budget, but the only evictable done job is the one just
            # handed out — it must stay addressable for the client's poll
            assert svc.job(hit.id) is hit
            assert outcome_to_dict(hit.result()) == outcome_to_dict(done)

    def test_late_registration_needs_pool_restart(self, instance):
        from repro.api.registry import MAPPERS, register_mapper

        scenario_kw = dict(
            workload="fft", workload_params={"points_log2": 3},
            topology="hypercube:2", seed=21,
        )
        try:
            with MappingService(max_workers=1) as svc:
                # warm the (single-worker) pool before the mapper exists
                warm = svc.submit_scenario(Scenario(mapper="critical", **scenario_kw))
                warm.result(timeout=60)
                register_mapper("late_test_mapper")(_DelegatingMapper)
                late = Scenario(mapper="late_test_mapper", **scenario_kw)
                job = svc.submit_scenario(late)
                with pytest.raises(MappingError, match="unknown mapper"):
                    job.result(timeout=60)
                # after a pool restart the fresh worker sees the registration
                svc.restart_pool()
                retry = svc.submit_scenario(late)
                assert retry.result(timeout=60).total_time >= 1
        finally:
            MAPPERS._factories.pop("late_test_mapper", None)


class TestPoolPolicy:
    """Satellite: workers=1 / tiny batches never touch a process pool."""

    def _no_service(self, monkeypatch):
        def boom():
            raise AssertionError("inline path must not contact the service pool")

        # iter_item_outcomes resolves the default service through the
        # package namespace at call time — patch it there.
        monkeypatch.setattr("repro.service.default_service", boom)

    def test_solve_many_workers_1_is_inline(self, instance, monkeypatch):
        self._no_service(monkeypatch)
        graph, clustering, system = instance
        clustered = ClusteredGraph(graph, clustering)
        outcomes = solve_many(
            [ProblemInstance(clustered, system)] * 3, mapper="critical",
            seed=1, max_workers=1,
        )
        assert len(outcomes) == 3

    def test_single_item_is_inline_at_any_worker_count(self, instance, monkeypatch):
        self._no_service(monkeypatch)
        graph, clustering, system = instance
        clustered = ClusteredGraph(graph, clustering)
        outcomes = solve_many(
            [ProblemInstance(clustered, system)], mapper="critical",
            seed=1, max_workers=8,
        )
        assert len(outcomes) == 1

    def test_compare_workers_1_is_inline(self, instance, monkeypatch):
        self._no_service(monkeypatch)
        graph, clustering, system = instance
        outcomes = compare(
            ClusteredGraph(graph, clustering), system,
            mappers=["critical", "random"], seed=1, max_workers=1,
        )
        assert [o.mapper for o in outcomes] == ["critical", "random"]

    def test_run_scenarios_workers_1_is_inline(self, monkeypatch):
        from repro.api import run_scenarios

        self._no_service(monkeypatch)
        scenarios = [
            Scenario(
                workload="fft", workload_params={"points_log2": 3},
                topology="hypercube:2", seed=3,
            )
        ]
        result = run_scenarios(scenarios, max_workers=1)
        assert result.executed == 1

    def test_parallel_batch_uses_shared_service_pool(self, instance, fresh_default):
        graph, clustering, system = instance
        clustered = ClusteredGraph(graph, clustering)
        instances = [ProblemInstance(clustered, system)] * 4
        serial = solve_many(instances, mapper="random", seed=9, samples=5,
                            max_workers=1)
        parallel = solve_many(instances, mapper="random", seed=9, samples=5,
                              max_workers=2)
        assert fresh_default.pool_started  # parallel work landed on the service
        assert [o.total_time for o in serial] == [o.total_time for o in parallel]
        assert [
            o.assignment.assi.tolist() for o in serial
        ] == [o.assignment.assi.tolist() for o in parallel]

    def test_run_on_pool_windows_items(self, fresh_default, instance):
        # 6 items through a 2-wide window on the shared pool: all finish,
        # results fold back into input order.
        graph, clustering, system = instance
        clustered = ClusteredGraph(graph, clustering)
        items = [ProblemInstance(clustered, system, name=f"i{i}") for i in range(6)]
        outcomes = solve_many(items, mapper="critical", seed=0, max_workers=2)
        assert len(outcomes) == 6
        assert all(o.total_time >= o.lower_bound for o in outcomes)


class TestFacadeIntegration:
    def test_facade_solve_is_cached_via_default_service(self, instance, fresh_default):
        graph, clustering, system = instance
        first = solve(graph, clustering, system, mapper="tabu", rng=13)
        second = solve(graph, clustering, system, mapper="tabu", rng=13)
        assert second is first
        assert fresh_default.cache.stats()["hits"] == 1

    def test_set_default_service_restores(self):
        svc = MappingService()
        previous = set_default_service(svc)
        try:
            from repro.service import default_service

            assert default_service() is svc
        finally:
            set_default_service(previous)
            svc.close()
