"""Unit tests for repro.core.taskgraph."""

import numpy as np
import pytest

from repro.api import build_topology, build_workload, get_mapper
from repro.clustering import RandomClusterer
from repro.core import ClusteredGraph, Edge, TaskGraph
from repro.core.taskgraph import sweep_finish_times
from repro.utils import GraphError
from tests.conftest import scalar_schedule


@pytest.fixture
def no_stack_kahn(monkeypatch):
    """Make the stack-ordered Kahn loop behind ``topological_order`` fail
    if anything but a read of that property runs it."""

    def forbidden(self):
        raise AssertionError("the stack-ordered Kahn loop ran")

    monkeypatch.setattr(TaskGraph, "_topological_order_csr", forbidden)


class TestConstruction:
    def test_from_edge_triples(self):
        g = TaskGraph([1, 2], [(0, 1, 5)])
        assert g.num_tasks == 2
        assert g.weight(0, 1) == 5
        assert g.num_edges == 1

    def test_from_dense_matrix(self):
        mat = np.zeros((3, 3), dtype=int)
        mat[0, 1] = 2
        mat[1, 2] = 3
        g = TaskGraph([1, 1, 1], mat)
        assert g.weight(0, 1) == 2
        assert g.weight(1, 2) == 3

    def test_no_edges(self):
        g = TaskGraph([4, 5, 6])
        assert g.num_edges == 0
        assert g.total_work == 15

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph([])

    def test_zero_size_rejected(self):
        with pytest.raises(GraphError, match="non-positive"):
            TaskGraph([1, 0], [(0, 1, 1)])

    def test_negative_size_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph([1, -2])

    def test_self_loop_rejected(self):
        mat = np.zeros((2, 2), dtype=int)
        mat[1, 1] = 3
        with pytest.raises(GraphError, match="self-loop"):
            TaskGraph([1, 1], mat)

    def test_cycle_rejected(self):
        with pytest.raises(GraphError, match="cycle"):
            TaskGraph([1, 1, 1], [(0, 1, 1), (1, 2, 1), (2, 0, 1)])

    def test_two_cycle_rejected(self):
        with pytest.raises(GraphError, match="cycle"):
            TaskGraph([1, 1], [(0, 1, 1), (1, 0, 1)])

    def test_dangling_edge_rejected(self):
        with pytest.raises(GraphError, match="missing task"):
            TaskGraph([1, 1], [(0, 5, 1)])

    def test_zero_weight_edge_rejected(self):
        with pytest.raises(GraphError, match="positive weight"):
            TaskGraph([1, 1], [(0, 1, 0)])

    def test_matrix_must_be_square(self):
        with pytest.raises(GraphError):
            TaskGraph([1, 1], np.zeros((2, 3), dtype=int))

    def test_matrix_size_mismatch(self):
        with pytest.raises(GraphError):
            TaskGraph([1, 1, 1], np.zeros((2, 2), dtype=int))


class TestEdgeValidation:
    """Both constructors run one edge check, with one set of messages."""

    def test_unequal_edge_arrays_rejected(self):
        with pytest.raises(GraphError, match="equal length"):
            TaskGraph.from_edge_arrays(
                [1, 1, 1], np.array([0]), np.array([1, 2]), np.array([1])
            )

    def test_edge_arrays_must_be_1d(self):
        with pytest.raises(GraphError, match="must be 1-D"):
            TaskGraph.from_edge_arrays(
                [1, 1, 1], np.array([[0, 1]]), np.array([[1, 2]]), np.array([[1, 1]])
            )

    def test_ragged_triples_rejected(self):
        with pytest.raises(GraphError, match="triples"):
            TaskGraph([1, 1, 1], [(0, 1, 1), (1, 2)])

    def test_non_integer_triples_rejected(self):
        with pytest.raises(GraphError, match="triples"):
            TaskGraph([1, 1, 1], [(0, 1, 1), (1, 2, "x")])

    def test_edge_arrays_need_a_task(self):
        with pytest.raises(GraphError, match="at least one task"):
            TaskGraph.from_edge_arrays([], [], [], [])

    def test_edge_arrays_sizes_must_be_1d(self):
        with pytest.raises(GraphError, match=r"task_sizes must be 1-D, got shape \(1, 2\)"):
            TaskGraph.from_edge_arrays([[1, 1]], [0], [1], [1])

    def test_edge_arrays_zero_weight_guidance(self):
        with pytest.raises(GraphError, match="zero-weight edge cannot be represented"):
            TaskGraph.from_edge_arrays([1, 1], [0], [1], [0])

    def test_dense_self_loop_names_the_task(self):
        mat = np.zeros((3, 3), dtype=int)
        mat[2, 2] = 1
        with pytest.raises(GraphError, match=r"self-loop edges are not allowed \(task 2\)"):
            TaskGraph([1, 1, 1], mat)

    def test_caller_arrays_untouched(self):
        srcs, dsts, weights = (np.array([], dtype=np.int64) for _ in range(3))
        TaskGraph.from_edge_arrays([1, 2], srcs, dsts, weights)
        assert all(a.flags.writeable for a in (srcs, dsts, weights))


class TestAcyclicityThroughThePlan:
    """Construction rejects cycles through the schedule plan's Kahn
    frontiers, never the stack-ordered loop."""

    def test_three_cycle_among_high_ids(self, no_stack_kahn):
        with pytest.raises(GraphError, match="cycle"):
            TaskGraph([1] * 6, [(0, 1, 1), (1, 3, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1)])

    def test_two_cycle_in_second_component(self, no_stack_kahn):
        with pytest.raises(GraphError, match="cycle"):
            TaskGraph([1] * 5, [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 3, 1)])

    def test_cycle_through_edge_arrays(self, no_stack_kahn):
        with pytest.raises(GraphError, match="cycle"):
            TaskGraph.from_edge_arrays([1, 1, 1], [0, 1, 2], [1, 2, 0], [1, 1, 1])

    def test_reverse_numbered_dag_accepted(self, no_stack_kahn):
        g = TaskGraph([1] * 5, [(4, 3, 1), (3, 2, 1), (2, 1, 1), (1, 0, 1)])
        assert g.schedule_plan().order.tolist() == [4, 3, 2, 1, 0]
        assert g.critical_path_length() == 9

    def test_low_to_high_ids_build_no_plan(self, no_stack_kahn):
        g = TaskGraph([1] * 4, [(0, 2, 1), (1, 2, 1), (2, 3, 1)])
        assert g._plan is None


def _plan_shape(name: str) -> TaskGraph:
    """A graph whose plan the sweep's steps special-case."""
    if name == "no_edges":
        return TaskGraph([5, 9, 3])
    if name == "single_task":
        return TaskGraph([7])
    # A chain numbered backwards, so that its plan is not the identity.
    rng = np.random.default_rng(3)
    sizes, weights = rng.integers(1, 9, 12), rng.integers(1, 9, 11).tolist()
    return TaskGraph(sizes, [(i + 1, i, w) for i, w in enumerate(weights)])


class TestSweepSteps:
    """The plan's per-level steps on the shapes they special-case: a
    level without in-edges has no step, and a chain has one task per
    level.  One row and a batch against the scalar recurrence."""

    @pytest.mark.parametrize(
        "name, levels", [("no_edges", 1), ("single_task", 1), ("chain", 12)]
    )
    def test_steps_and_sweeps(self, name, levels):
        graph = _plan_shape(name)
        plan, sizes, n = graph.schedule_plan(), graph.task_sizes, graph.num_tasks
        assert plan.num_levels == levels and len(plan.steps) == levels - 1
        for tasks, edges, offs in plan.steps:
            assert tasks.size == offs.size == 1 and edges.stop - edges.start == 1
            assert not tasks.flags.writeable and not offs.flags.writeable
        src, dst, _ = graph.in_edge_arrays()
        costs = np.random.default_rng(0).integers(0, 20, (4, src.size))
        ends = sweep_finish_times(plan, sizes, costs[:, plan.eperm])
        assert ends.shape == (4, n)
        for row, cost in enumerate(costs):
            dense = np.zeros((n, n), dtype=np.int64)
            dense[src, dst] = cost
            _, end = scalar_schedule(graph, dense)
            assert np.array_equal(ends[row], end)
            one_row = sweep_finish_times(plan, sizes, cost[plan.eperm])
            assert np.array_equal(one_row, end)

    @pytest.mark.parametrize("name", ["no_edges", "single_task", "chain"])
    def test_bottom_levels_over_the_reversed_plan(self, name):
        """Bottom levels are the finish times of the reversed DAG."""
        graph = _plan_shape(name)
        src, dst, weights = graph.edge_arrays()
        reverse = TaskGraph(
            graph.task_sizes, list(zip(dst.tolist(), src.tolist(), weights.tolist()))
        )
        _, end = scalar_schedule(reverse, reverse.prob_edge)
        assert np.array_equal(graph.bottom_levels(weights), end)


class TestOneTraversal:
    def test_build_and_map_never_run_the_stack_loop(self, monkeypatch, no_stack_kahn):
        """Building and mapping graphs whose ids are in topological order
        (``layered_random``) and graphs whose ids are not (``gnp``) runs
        no stack-ordered Kahn loop; reading ``topological_order`` runs it
        once."""
        system = build_topology("hypercube:3")
        graphs = [
            build_workload("layered_random", {"num_tasks": 2000}, rng=0),
            build_workload("gnp", {"num_tasks": 150, "edge_prob": 0.05}, rng=0),
        ]
        for graph in graphs:
            clustering = RandomClusterer(system.num_nodes).cluster(graph, rng=0)
            clustered = ClusteredGraph(graph, clustering)
            for name in ("critical", "multilevel", "annealing"):
                get_mapper(name).map(clustered, system, rng=0)

        calls = []
        monkeypatch.undo()
        stack_kahn = TaskGraph._topological_order_csr
        monkeypatch.setattr(
            TaskGraph,
            "_topological_order_csr",
            lambda self: calls.append(self) or stack_kahn(self),
        )
        first = graphs[1].topological_order
        assert np.array_equal(graphs[1].topological_order, first)
        assert len(calls) == 1


class TestAccessors:
    def test_predecessors_successors(self, diamond_graph):
        assert diamond_graph.predecessors(3).tolist() == [1, 2]
        assert diamond_graph.successors(0).tolist() == [1, 2]
        assert diamond_graph.predecessors(0).size == 0
        assert diamond_graph.successors(3).size == 0

    def test_sources_sinks(self, diamond_graph):
        assert diamond_graph.sources().tolist() == [0]
        assert diamond_graph.sinks().tolist() == [3]

    def test_degree(self, diamond_graph):
        assert diamond_graph.degree(0) == 2
        assert diamond_graph.degree(3) == 2
        assert diamond_graph.degree(1) == 2

    def test_edges_iteration(self, diamond_graph):
        edges = list(diamond_graph.edges())
        assert Edge(0, 1, 1) in edges
        assert Edge(2, 3, 1) in edges
        assert len(edges) == 4

    def test_has_edge(self, diamond_graph):
        assert diamond_graph.has_edge(0, 1)
        assert not diamond_graph.has_edge(1, 0)
        assert not diamond_graph.has_edge(0, 3)

    def test_totals(self, diamond_graph):
        assert diamond_graph.total_work == 8
        assert diamond_graph.total_comm == 6

    def test_len(self, diamond_graph):
        assert len(diamond_graph) == 4

    def test_prob_edge_read_only(self, diamond_graph):
        with pytest.raises(ValueError):
            diamond_graph.prob_edge[0, 1] = 9

    def test_task_sizes_read_only(self, diamond_graph):
        with pytest.raises(ValueError):
            diamond_graph.task_sizes[0] = 9


class TestTopologicalOrder:
    def test_valid_order(self, diamond_graph):
        order = diamond_graph.topological_order.tolist()
        pos = {t: i for i, t in enumerate(order)}
        for e in diamond_graph.edges():
            assert pos[e.src] < pos[e.dst]

    def test_all_tasks_present(self, diamond_graph):
        assert sorted(diamond_graph.topological_order.tolist()) == [0, 1, 2, 3]


class TestDerived:
    def test_critical_path_chain(self, chain_graph):
        # 1 + 3 + 1 + 1 + 1 + 2 + 1 = 10
        assert chain_graph.critical_path_length() == 10

    def test_critical_path_diamond(self, diamond_graph):
        # 0(2) -1-> 1(3) -2-> 3(2) = 2+1+3+2+2 = 10
        assert diamond_graph.critical_path_length() == 10

    def test_critical_path_independent_tasks(self):
        g = TaskGraph([5, 9, 3])
        assert g.critical_path_length() == 9

    def test_connectivity(self, diamond_graph):
        assert diamond_graph.is_connected()
        assert not TaskGraph([1, 1]).is_connected()

    def test_relabeled_preserves_structure(self, diamond_graph):
        order = [3, 2, 1, 0]
        relabeled = diamond_graph.relabeled(order)
        assert relabeled.total_work == diamond_graph.total_work
        assert relabeled.total_comm == diamond_graph.total_comm
        assert relabeled.critical_path_length() == diamond_graph.critical_path_length()
        # old task 0 (size 2) is now task 3
        assert relabeled.task_sizes[3] == 2

    def test_relabeled_bad_order(self, diamond_graph):
        with pytest.raises(GraphError):
            diamond_graph.relabeled([0, 0, 1, 2])


class TestEqualityAndConversion:
    def test_equality(self):
        a = TaskGraph([1, 2], [(0, 1, 3)])
        b = TaskGraph([1, 2], [(0, 1, 3)])
        c = TaskGraph([1, 2], [(0, 1, 4)])
        assert a == b
        assert a != c

    def test_networkx_round_trip(self, diamond_graph):
        g = diamond_graph.to_networkx()
        back = TaskGraph.from_networkx(g)
        assert back == diamond_graph

    def test_networkx_bad_labels(self):
        import networkx as nx

        g = nx.DiGraph()
        g.add_node("a")
        with pytest.raises(GraphError):
            TaskGraph.from_networkx(g)

    def test_repr(self, diamond_graph):
        text = repr(diamond_graph)
        assert "tasks=4" in text and "edges=4" in text
