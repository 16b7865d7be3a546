"""Tests for the analytic list scheduler (serialized processors)."""

import numpy as np
import pytest

from repro.api import WORKLOADS, build_workload
from repro.clustering import DscClusterer, RandomClusterer
from repro.core import (
    Assignment,
    ClusteredGraph,
    Clustering,
    TaskGraph,
    evaluate_assignment,
    verify_times,
)
from repro.core.listsched import bottom_levels, list_schedule
from repro.sim import SimConfig, simulate
from repro.topology import SystemGraph, chain
from tests.conftest import oracle_bottom_levels, random_instance

#: every registered workload at a small size
SMALL_WORKLOADS = {
    "broadcast_tree": {"leaves": 8},
    "cholesky": {"tiles": 3},
    "diamond": {"width": 3},
    "divide_conquer": {"levels": 3},
    "fft": {"points_log2": 2},
    "fork_join": {"width": 4, "stages": 2},
    "gaussian": {"matrix_size": 4},
    "gnp": {"num_tasks": 24, "edge_prob": 0.2},
    "layered_random": {"num_tasks": 30},
    "lu": {"tiles": 3},
    "map_reduce": {"mappers": 4, "reducers": 3},
    "pipeline": {"stages": 3, "items": 4},
    "reduction_tree": {"leaves": 8},
    "series_parallel": {"depth": 3},
    "stencil": {"grid": 3, "sweeps": 2},
    "triangular_solve": {"size": 5},
    "wavefront": {"rows": 3, "cols": 4},
}


def _small_graph(name: str, relabel: bool) -> TaskGraph:
    """A small instance of a registered workload, optionally renumbered
    in a random order so that its ids are not in topological order."""
    graph = build_workload(name, SMALL_WORKLOADS[name], rng=5)
    if relabel:
        graph = graph.relabeled(np.random.default_rng(9).permutation(graph.num_tasks))
    return graph


class TestBottomLevels:
    def test_chain(self, chain_graph):
        cg = ClusteredGraph(chain_graph, Clustering([0, 1, 2, 3]))
        # blevel[i] = sizes + comm to the end: 1+3+1+1+1+2+1, ...
        assert bottom_levels(cg).tolist() == [10, 6, 4, 1]

    def test_exit_tasks_are_own_size(self, diamond_clustered):
        bl = bottom_levels(diamond_clustered)
        assert bl[3] == 2  # exit task: its own size

    def test_intra_cluster_comm_free(self, diamond_graph):
        merged = ClusteredGraph(diamond_graph, Clustering([0, 0, 0, 0]))
        bl = bottom_levels(merged)
        assert bl[0] == 2 + 3 + 2  # longest node-only chain


class TestBottomLevelsMatchOracle:
    """The reversed-plan sweep against the scalar loop, on every
    registered workload, also renumbered out of topological order."""

    def test_every_workload_listed(self):
        assert sorted(SMALL_WORKLOADS) == WORKLOADS.available()

    @pytest.mark.parametrize("relabel", [False, True], ids=["ids", "relabeled"])
    @pytest.mark.parametrize("name", sorted(SMALL_WORKLOADS))
    def test_clustered_bottom_levels(self, name, relabel):
        graph = _small_graph(name, relabel)
        clustering = RandomClusterer(min(4, graph.num_tasks)).cluster(graph, rng=1)
        clustered = ClusteredGraph(graph, clustering)
        got = bottom_levels(clustered)
        assert got.dtype == np.int64
        assert np.array_equal(got, oracle_bottom_levels(graph, clustered.clus_edge))

    @pytest.mark.parametrize("relabel", [False, True], ids=["ids", "relabeled"])
    @pytest.mark.parametrize("name", sorted(SMALL_WORKLOADS))
    def test_dsc_bottom_levels(self, monkeypatch, name, relabel):
        """DSC's priorities read the unclustered graph's bottom levels."""
        graph = _small_graph(name, relabel)
        seen = []
        sweep = TaskGraph.bottom_levels

        def spy(self, weights):
            seen.append(sweep(self, weights))
            return seen[-1]

        monkeypatch.setattr(TaskGraph, "bottom_levels", spy)
        DscClusterer(min(3, graph.num_tasks)).cluster(graph)
        assert len(seen) == 1
        assert np.array_equal(seen[0], oracle_bottom_levels(graph, graph.prob_edge))


class TestListSchedule:
    def test_serializes_processors(self):
        for seed in range(5):
            clustered, system = random_instance(seed)
            a = Assignment.random(system.num_nodes, rng=seed)
            for policy in ("fifo", "blevel"):
                ls = list_schedule(clustered, system, a, policy=policy)
                # No two tasks on the same processor overlap.
                labels = clustered.clustering.labels
                host = a.placement[labels]
                for p in range(system.num_nodes):
                    tasks = np.flatnonzero(host == p)
                    order = tasks[np.argsort(ls.start[tasks])]
                    for t1, t2 in zip(order, order[1:]):
                        assert ls.start[t2] >= ls.end[t1]

    def test_valid_schedule(self):
        for seed in range(5):
            clustered, system = random_instance(seed)
            a = Assignment.random(system.num_nodes, rng=seed)
            ls = list_schedule(clustered, system, a)
            verify_times(
                clustered, system, a, ls.start, ls.end, require_asap=False
            )

    def test_never_faster_than_paper_model(self):
        for seed in range(5):
            clustered, system = random_instance(seed)
            a = Assignment.random(system.num_nodes, rng=seed)
            paper = evaluate_assignment(clustered, system, a).total_time
            assert list_schedule(clustered, system, a).makespan >= paper

    def test_fifo_matches_des_mostly(self):
        """Exact agreement except same-instant ready ties (documented)."""
        agree = 0
        for seed in range(12):
            clustered, system = random_instance(seed)
            a = Assignment.random(system.num_nodes, rng=seed)
            ls = list_schedule(clustered, system, a, policy="fifo")
            des = simulate(
                clustered, system, a, SimConfig(serialize_processors=True)
            )
            agree += ls.makespan == des.makespan
        assert agree >= 9

    def test_fifo_matches_des_exactly_without_ties(self):
        """A chain workload has no simultaneous-ready collisions."""
        g = TaskGraph([2, 3, 1, 4], [(0, 1, 2), (1, 2, 1), (2, 3, 3)])
        cg = ClusteredGraph(g, Clustering([0, 1, 0, 1]))
        system = chain(2)
        a = Assignment.identity(2)
        ls = list_schedule(cg, system, a, policy="fifo")
        des = simulate(cg, system, a, SimConfig(serialize_processors=True))
        assert ls.makespan == des.makespan
        assert np.array_equal(ls.start, des.start)

    def test_blevel_prioritizes_critical_work(self):
        """Two ready tasks, one on the critical path: blevel runs it
        first, FIFO (by id) runs the other."""
        # Tasks: 0 and 1 ready at 0 on the same processor; 1 feeds a long
        # chain, 0 is a leaf.  ids chosen so FIFO prefers the leaf.
        g = TaskGraph(
            [5, 5, 10],
            [(1, 2, 1)],
        )
        cg = ClusteredGraph(g, Clustering([0, 0, 1]))
        system = chain(2)
        a = Assignment.identity(2)
        fifo = list_schedule(cg, system, a, policy="fifo")
        blevel = list_schedule(cg, system, a, policy="blevel")
        assert blevel.start[1] == 0  # critical task first
        assert fifo.start[0] == 0    # id order first
        assert blevel.makespan <= fifo.makespan

    def test_blevel_never_catastrophic(self):
        """blevel must stay within 2x of FIFO (both are list schedules)."""
        for seed in range(6):
            clustered, system = random_instance(seed)
            a = Assignment.random(system.num_nodes, rng=seed)
            fifo = list_schedule(clustered, system, a, policy="fifo").makespan
            blevel = list_schedule(clustered, system, a, policy="blevel").makespan
            assert blevel <= 2 * fifo

    def test_bad_policy(self, diamond_clustered, ring4):
        with pytest.raises(ValueError, match="policy"):
            list_schedule(
                diamond_clustered, ring4, Assignment.identity(4), policy="lifo"
            )

    def test_single_processor_full_serialization(self):
        g = TaskGraph([3, 4, 5])
        cg = ClusteredGraph(g, Clustering([0, 0, 0]))
        system = SystemGraph(np.zeros((1, 1), dtype=int))
        ls = list_schedule(cg, system, Assignment.identity(1))
        assert ls.makespan == 12  # pure sum of sizes
