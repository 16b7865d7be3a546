"""Unit tests for the repro.sim package (event order, machine, engine, trace)."""

import numpy as np
import pytest

from repro.core import (
    Assignment,
    ClusteredGraph,
    Clustering,
    TaskGraph,
    evaluate_assignment,
)
from repro.sim import (
    MimdMachine,
    SimConfig,
    read_trace_jsonl,
    simulate,
    write_trace_jsonl,
)
from repro.topology import chain, ring
from tests.conftest import random_instance


class TestEventOrder:
    """Events fire in time order, simultaneous ones in the order they
    were pushed, on a hand-checked instance on ``chain(2)``."""

    def _run(self):
        # Task 1 on P0 sends two messages over link 0 -> 1 at t=1; task 0
        # on P1 finishes at t=3 and readies task 3 there at the same
        # instant as the message 1 -> 2 readies task 2.
        g = TaskGraph([3, 1, 2, 2, 1], [(0, 3, 5), (1, 2, 2), (1, 4, 1)])
        cg = ClusteredGraph(g, Clustering([1, 0, 1, 1, 1]))
        return simulate(cg, chain(2), Assignment.identity(2), SimConfig(True, True))

    def test_task_rows(self):
        sim = self._run()
        # FINISH(0)@3 was pushed before the hop 1 -> 2 arriving at 3, so
        # READY(3) is pushed before READY(2) and task 3 takes P1 first;
        # task 2 (ready at 3) then runs before task 4 (ready at 4).
        assert [
            (r.task, r.processor, r.start, r.end) for r in sim.trace.tasks
        ] == [(1, 0, 0, 1), (0, 1, 0, 3), (3, 1, 3, 5), (2, 1, 5, 7), (4, 1, 7, 8)]
        assert sim.start.tolist() == [0, 0, 5, 3, 7]
        assert sim.end.tolist() == [3, 1, 7, 5, 8]
        assert sim.makespan == 8

    def test_transfer_rows(self):
        sim = self._run()
        # Both messages request link (0, 1) at t=1; the first out-edge
        # gets it, and the second waits until it is free at t=3.
        assert [
            (r.src_task, r.dst_task, r.link, r.start, r.end)
            for r in sim.trace.transfers
        ] == [(1, 2, (0, 1), 1, 3), (1, 4, (0, 1), 3, 4)]
        assert not sim.trace.stalls
        assert sim.max_queue_depth == 2


class TestMachine:
    def test_route_cached_and_valid(self):
        system = ring(6)
        route = system.shortest_path(0, 3)
        assert route[0] == 0 and route[-1] == 3
        assert len(route) - 1 == 3
        assert system.shortest_path(0, 3) is route  # cache hit

    def test_link_acquisition_serializes(self):
        m = MimdMachine(chain(2))
        first = m.acquire_link(0, 1, request_time=0, duration=5)
        second = m.acquire_link(0, 1, request_time=0, duration=5)
        assert first == 0
        assert second == 5  # waits for the first transfer

    def test_directions_independent(self):
        m = MimdMachine(chain(2))
        assert m.acquire_link(0, 1, 0, 5) == 0
        assert m.acquire_link(1, 0, 0, 5) == 0  # full duplex

    def test_utilization(self):
        m = MimdMachine(chain(2))
        m.acquire_link(0, 1, 0, 5)
        assert m.max_link_utilization(makespan=10) == pytest.approx(0.5)
        m.reset_links()
        assert m.max_link_utilization(10) == 0.0

    def test_zero_duration_rejected(self):
        m = MimdMachine(chain(2))
        with pytest.raises(ValueError, match="duration"):
            m.acquire(0, 1, 0, 0)
        with pytest.raises(ValueError, match="duration"):
            m.acquire_link(0, 1, 0, -1)
        assert m.max_queue_depth() == 0  # a refused request books nothing


class TestEngineCorrectness:
    def test_paper_mode_equals_analytic(self):
        """The central validation: contention-free DES == Sec. 4.3.4."""
        for seed in range(6):
            clustered, system = random_instance(seed)
            a = Assignment.random(system.num_nodes, rng=seed)
            sched = evaluate_assignment(clustered, system, a)
            sim = simulate(clustered, system, a)
            assert sim.makespan == sched.total_time
            assert np.array_equal(sim.start, sched.start)
            assert np.array_equal(sim.end, sched.end)

    def test_relaxations_only_delay(self):
        for seed in range(6):
            clustered, system = random_instance(seed)
            a = Assignment.random(system.num_nodes, rng=seed)
            base = simulate(clustered, system, a).makespan
            for config in (
                SimConfig(serialize_processors=True),
                SimConfig(link_contention=True),
                SimConfig(True, True),
            ):
                assert simulate(clustered, system, a, config).makespan >= base

    def test_serialization_no_processor_overlap(self):
        clustered, system = random_instance(2)
        a = Assignment.random(system.num_nodes, rng=2)
        sim = simulate(clustered, system, a, SimConfig(serialize_processors=True))
        by_proc = sim.trace.tasks_by_processor()
        for records in by_proc.values():
            for first, second in zip(records, records[1:]):
                assert second.start >= first.end

    def test_contention_no_link_overlap(self):
        clustered, system = random_instance(3)
        a = Assignment.random(system.num_nodes, rng=3)
        sim = simulate(clustered, system, a, SimConfig(link_contention=True))
        per_link: dict = {}
        for rec in sim.trace.transfers:
            per_link.setdefault(rec.link, []).append((rec.start, rec.end))
        for intervals in per_link.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1

    def test_two_tasks_same_processor_overlap_in_paper_mode(self):
        g = TaskGraph([5, 5])  # two independent tasks
        cg = ClusteredGraph(g, Clustering([0, 0]))
        from repro.topology import SystemGraph

        system = SystemGraph(np.zeros((1, 1), dtype=int))
        paper = simulate(cg, system, Assignment.identity(1))
        assert paper.makespan == 5
        serial = simulate(
            cg, system, Assignment.identity(1), SimConfig(serialize_processors=True)
        )
        assert serial.makespan == 10

    def test_store_and_forward_hop_cost(self):
        """A single w-weight message over d hops takes w*d, matching comm."""
        g = TaskGraph([1, 1, 1], [(0, 1, 4)])  # task 2 is an isolated filler
        cg = ClusteredGraph(g, Clustering([0, 1, 2]))
        system = chain(3)  # clusters 0 and 1 at the two ends: distance 2
        a = Assignment.from_placement([0, 2, 1])
        sim = simulate(cg, system, a)
        assert sim.makespan == 1 + 4 * 2 + 1
        assert len(sim.trace.transfers) == 2  # one record per hop

    def test_trace_complete(self):
        clustered, system = random_instance(4)
        a = Assignment.random(system.num_nodes, rng=4)
        sim = simulate(clustered, system, a)
        assert len(sim.trace.tasks) == clustered.num_tasks
        seen = sorted(rec.task for rec in sim.trace.tasks)
        assert seen == list(range(clustered.num_tasks))

    def test_trace_totals(self):
        clustered, system = random_instance(5)
        a = Assignment.random(system.num_nodes, rng=5)
        sim = simulate(clustered, system, a)
        sched = evaluate_assignment(clustered, system, a)
        assert sim.trace.total_transfer_time() == sched.communication_volume()

    def test_busiest_link(self):
        clustered, system = random_instance(6)
        a = Assignment.random(system.num_nodes, rng=6)
        sim = simulate(clustered, system, a)
        busiest = sim.trace.busiest_link()
        if sim.trace.transfers:
            link, busy = busiest
            assert busy > 0
        else:  # pragma: no cover - degenerate instance
            assert busiest is None

    def test_deterministic(self):
        clustered, system = random_instance(7)
        a = Assignment.random(system.num_nodes, rng=7)
        cfg = SimConfig(True, True)
        s1 = simulate(clustered, system, a, cfg)
        s2 = simulate(clustered, system, a, cfg)
        assert s1.makespan == s2.makespan
        assert np.array_equal(s1.start, s2.start)

    def test_link_setup_alpha_beta_model(self):
        """With link_setup = a, every hop costs a + weight."""
        g = TaskGraph([1, 1, 1], [(0, 1, 4)])
        cg = ClusteredGraph(g, Clustering([0, 1, 2]))
        system = chain(3)
        a = Assignment.from_placement([0, 2, 1])  # 2 hops for the message
        sim = simulate(cg, system, a, SimConfig(link_setup=3))
        assert sim.makespan == 1 + 2 * (3 + 4) + 1

    def test_link_setup_zero_matches_paper_model(self):
        clustered, system = random_instance(8)
        a = Assignment.random(system.num_nodes, rng=8)
        base = simulate(clustered, system, a)
        with_zero = simulate(clustered, system, a, SimConfig(link_setup=0))
        assert base.makespan == with_zero.makespan

    def test_negative_setup_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(link_setup=-1)

    def test_config_describe(self):
        assert SimConfig().describe() == "overlapping+contention-free"
        assert SimConfig(True, True).describe() == "serialized+contention"
        assert "setup=2" in SimConfig(link_setup=2).describe()

    def test_na_ns_mismatch_rejected(self, diamond_clustered):
        from repro.utils import MappingError

        with pytest.raises(MappingError):
            simulate(diamond_clustered, ring(5), Assignment.identity(5))


class TestFifoBackpressure:
    def _bottleneck(self):
        """A fork that funnels four messages through the single 0-1 link."""
        g = TaskGraph(
            [1, 1, 1, 1, 1, 1],
            [(0, 5, 4), (1, 5, 4), (2, 5, 4), (3, 5, 4), (4, 5, 1)],
        )
        cg = ClusteredGraph(g, Clustering([0, 0, 0, 0, 0, 1]))
        system = chain(2)
        return cg, system, Assignment.identity(2)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            SimConfig(link_contention=True, fifo_depth=0)
        with pytest.raises(ValueError):
            SimConfig(fifo_depth=1)  # FIFO depth needs link contention
        with pytest.raises(ValueError):
            MimdMachine(chain(2), fifo_depth=0)

    def test_grant_semantics_hand_checked(self):
        m = MimdMachine(chain(2), fifo_depth=1)
        first = m.acquire(0, 1, request_time=0, duration=5)
        assert (first.enqueue, first.start, first.end) == (0, 0, 5)
        assert not first.stall
        second = m.acquire(0, 1, request_time=0, duration=5)
        # The one-slot queue is full until t=5, so the sender stalls.
        assert second.stall
        assert (second.enqueue, second.start, second.end) == (5, 5, 10)
        assert m.fifo_stall_time() == 5
        assert m.max_queue_depth() <= 1

    def test_unbounded_queue_never_stalls(self):
        m = MimdMachine(chain(2))
        for _ in range(8):
            grant = m.acquire(0, 1, request_time=0, duration=3)
            assert not grant.stall
        assert m.fifo_stall_time() == 0
        assert m.max_queue_depth() == 8

    def test_bottleneck_records_stalls(self):
        cg, system, a = self._bottleneck()
        free = simulate(cg, system, a, SimConfig(link_contention=True))
        tight = simulate(
            cg, system, a, SimConfig(link_contention=True, fifo_depth=1)
        )
        assert tight.fifo_stall_time > 0
        assert tight.trace.stalls
        assert tight.fifo_stall_time == tight.trace.total_stall_time()
        assert tight.makespan >= free.makespan
        assert tight.max_queue_depth <= 1
        for rec in tight.trace.stalls:
            assert rec.end > rec.start
            assert rec.link == (0, 1)

    def test_fifo_never_beats_unbounded(self):
        for seed in range(4):
            clustered, system = random_instance(seed)
            a = Assignment.random(system.num_nodes, rng=seed)
            free = simulate(
                clustered, system, a, SimConfig(True, True)
            ).makespan
            for depth in (1, 2, 4):
                tight = simulate(
                    clustered,
                    system,
                    a,
                    SimConfig(True, True, fifo_depth=depth),
                )
                assert tight.makespan >= free
                assert tight.max_queue_depth <= depth

    def test_describe_includes_depth(self):
        cfg = SimConfig(link_contention=True, fifo_depth=2)
        assert "fifo=2" in cfg.describe()


class TestTraceJsonl:
    def _result(self, seed=3, **cfg):
        clustered, system = random_instance(seed)
        a = Assignment.random(system.num_nodes, rng=seed)
        config = SimConfig(**cfg) if cfg else SimConfig(True, True, fifo_depth=1)
        return simulate(clustered, system, a, config)

    def test_round_trip(self, tmp_path):
        result = self._result()
        path = tmp_path / "trace.jsonl"
        count = write_trace_jsonl(result, path)
        assert count == sum(path.read_text().count("\n") for _ in [0])
        loaded = read_trace_jsonl(path)
        assert loaded.trace == result.trace
        assert loaded.makespan == result.makespan
        assert loaded.fifo_stall_time == result.fifo_stall_time
        assert loaded.max_queue_depth == result.max_queue_depth
        assert loaded.config == result.config.describe()

    def test_rendered_gantt_identical(self, tmp_path):
        from repro.analysis import render_sim_gantt

        result = self._result(seed=4, serialize_processors=True)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(result, path)
        loaded = read_trace_jsonl(path)
        assert render_sim_gantt(loaded) == render_sim_gantt(result)

    def test_missing_file_and_malformed_records(self, tmp_path):
        from repro.utils import GraphError

        with pytest.raises(GraphError):
            read_trace_jsonl(tmp_path / "nope.jsonl")
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "task", "task": 0}\n')  # no header
        with pytest.raises(GraphError, match="header"):
            read_trace_jsonl(path)
        result = self._result()
        write_trace_jsonl(result, path)
        with path.open("a") as fh:
            fh.write('{"record": "mystery"}\n')
        with pytest.raises(GraphError, match="mystery"):
            read_trace_jsonl(path)
