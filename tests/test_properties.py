"""Property-based tests (hypothesis) for the core invariants.

These encode the theorems and structural guarantees the paper relies on:

* Theorem 3's premise: no assignment beats the ideal lower bound.
* The ideal schedule is the pointwise-minimal schedule.
* Critical edges are exactly the edges whose weight increase raises the
  bound (checked semantically on random instances).
* The mapper always returns valid bijections and never loses to its own
  initial assignment.
* Serialization round-trips, generated topologies stay connected, and
  the DES agrees with the analytic evaluator on random instances.
* Every route on random weighted machines equals the per-pair route
  oracle (``tests.conftest.oracle_route``).
* The level sweep behind every schedule (ideal, assignment, delta
  evaluator, plan depth) equals the scalar recurrence kept in the tests
  (``tests.conftest.scalar_schedule``).
* The per-edge arrays of the criticality analysis and of a schedule
  equal the dense oracles (``tests.conftest.oracle_criticality`` and
  ``communication_matrix``), and the vectorized schedule checks give the
  loop oracle's verdict (``tests.conftest.oracle_verify_times``) on
  perturbed schedules, on random instances and on every topology family.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import build_topology
from repro.baselines import exhaustive_optimum
from repro.core import (
    Assignment,
    ClusteredGraph,
    Clustering,
    CriticalEdgeMapper,
    TaskGraph,
    analyze_criticality,
    collect_matrices,
    evaluate_assignment,
    ideal_schedule,
    list_schedule,
    lower_bound,
    total_time,
    verify_schedule,
    verify_times,
)
from repro.io import task_graph_from_dict, task_graph_to_dict
from repro.sim import simulate
from repro.topology import random_connected
from repro.workloads import layered_random_dag
from tests.conftest import (
    TOPOLOGY_SPECS,
    assert_routes_match_oracle,
    communication_matrix,
    on_edges,
    oracle_criticality,
    oracle_verify_times,
    random_instance,
    scalar_schedule,
    violation,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def task_graphs(draw, max_tasks: int = 24) -> TaskGraph:
    """Random small DAGs: edges only forward in a drawn order."""
    n = draw(st.integers(min_value=1, max_value=max_tasks))
    sizes = draw(
        st.lists(st.integers(1, 9), min_size=n, max_size=n)
    )
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()) and draw(st.booleans()):  # p = 0.25
                edges.append((i, j, draw(st.integers(1, 9))))
    return TaskGraph(sizes, edges)


@st.composite
def clustered_instances(draw, max_tasks: int = 24):
    """A clustered graph plus a compatible connected system graph."""
    graph = draw(task_graphs(max_tasks))
    n = graph.num_tasks
    k = draw(st.integers(1, min(n, 6)))
    # Guarantee non-empty clusters: first k tasks fix one cluster each.
    labels = list(range(k)) + [
        draw(st.integers(0, k - 1)) for _ in range(n - k)
    ]
    clustering = Clustering(np.asarray(labels), num_clusters=k)
    seed = draw(st.integers(0, 2**16))
    if k == 1:
        system = _single_node()
    else:
        system = random_connected(k, extra_edge_prob=0.3, rng=seed)
    return ClusteredGraph(graph, clustering), system, seed


def _single_node():
    from repro.topology import SystemGraph

    return SystemGraph(np.zeros((1, 1), dtype=np.int64))


# ----------------------------------------------------------------------
# Schedule / bound invariants
# ----------------------------------------------------------------------


@SETTINGS
@given(clustered_instances())
def test_no_assignment_beats_lower_bound(instance):
    clustered, system, seed = instance
    bound = lower_bound(clustered)
    assignment = Assignment.random(system.num_nodes, rng=seed)
    assert total_time(clustered, system, assignment) >= bound


@SETTINGS
@given(clustered_instances())
def test_ideal_schedule_is_pointwise_minimal(instance):
    clustered, system, seed = instance
    ideal = ideal_schedule(clustered)
    schedule = evaluate_assignment(
        clustered, system, Assignment.random(system.num_nodes, rng=seed)
    )
    assert (schedule.start >= ideal.i_start).all()
    assert (schedule.end >= ideal.i_end).all()


@SETTINGS
@given(clustered_instances())
def test_sweeps_match_scalar_recurrence(instance):
    clustered, system, seed = instance
    graph = clustered.graph
    ideal = ideal_schedule(clustered)
    start, end = scalar_schedule(graph, clustered.clus_edge)
    assert np.array_equal(ideal.i_start, start)
    assert np.array_equal(ideal.i_end, end)
    assert lower_bound(clustered) == ideal.total_time == int(end.max())
    assignment = Assignment.random(system.num_nodes, rng=seed)
    schedule = evaluate_assignment(clustered, system, assignment)
    comm = communication_matrix(clustered, system, assignment)
    start, end = scalar_schedule(graph, comm)
    assert np.array_equal(schedule.start, start)
    assert np.array_equal(schedule.end, end)
    n = graph.num_tasks
    depth, _ = scalar_schedule(
        graph, np.zeros((n, n), dtype=np.int64), np.ones(n, dtype=np.int64)
    )
    assert np.array_equal(graph.schedule_plan().depth(), depth)


@SETTINGS
@given(clustered_instances())
def test_schedule_respects_precedence_and_sizes(instance):
    clustered, system, seed = instance
    schedule = evaluate_assignment(
        clustered, system, Assignment.random(system.num_nodes, rng=seed)
    )
    assert np.array_equal(
        schedule.end - schedule.start, clustered.task_sizes
    )
    srcs, dsts, _ = clustered.graph.in_edge_arrays()
    assert (schedule.start[dsts] >= schedule.end[srcs] + schedule.comm).all()


@SETTINGS
@given(clustered_instances())
def test_ideal_edges_dominate_clustered_weights(instance):
    clustered, _, _ = instance
    ideal = ideal_schedule(clustered)
    assert (ideal.i_edge >= clustered.cross_in_weights).all()


# ----------------------------------------------------------------------
# Criticality invariants (semantic check of Theorems 1-2)
# ----------------------------------------------------------------------


@SETTINGS
@given(clustered_instances(max_tasks=14))
def test_critical_edges_semantics(instance):
    """Bumping a critical inter-cluster edge raises the bound; bumping a
    non-critical edge by one unit never does (integer weights)."""
    clustered, _, _ = instance
    analysis = analyze_criticality(clustered)
    critical = set(analysis.critical_problem_edges())
    base = analysis.ideal.total_time
    graph = clustered.graph
    labels = clustered.clustering.labels
    for e in graph.edges():
        bumped = graph.prob_edge.copy()
        bumped[e.src, e.dst] += 1
        regraph = TaskGraph(graph.task_sizes, bumped)
        new_bound = lower_bound(ClusteredGraph(regraph, clustered.clustering))
        if labels[e.src] == labels[e.dst]:
            assert new_bound == base  # intra edges have zero clustered weight
        elif (e.src, e.dst) in critical:
            assert new_bound > base
        else:
            assert new_bound == base


@SETTINGS
@given(clustered_instances())
def test_critical_degree_is_row_sum(instance):
    clustered, _, _ = instance
    analysis = analyze_criticality(clustered)
    assert np.array_equal(
        analysis.critical_degree, analysis.c_abs_edge.sum(axis=1)
    )
    assert np.array_equal(analysis.c_abs_edge, analysis.c_abs_edge.T)


# ----------------------------------------------------------------------
# Per-edge arrays against the dense oracles
# ----------------------------------------------------------------------


def _assert_criticality_matches_oracle(clustered, system):
    graph = clustered.graph
    ideal = ideal_schedule(clustered)
    for propagate in (True, False):
        an = analyze_criticality(
            clustered, ideal, propagate_through_intra=propagate
        )
        mask, c_abs, degree, on_path = oracle_criticality(
            clustered, ideal, propagate
        )
        assert np.array_equal(an.crit_mask, on_edges(graph, mask))
        assert an.critical_problem_edges() == sorted(
            zip(*(a.tolist() for a in np.nonzero(mask)))
        )
        assert np.array_equal(an.c_abs_edge, c_abs)
        assert np.array_equal(an.critical_degree, degree)
        assert np.array_equal(an.on_critical_path, on_path)
        matrices = collect_matrices(clustered, system, ideal=ideal, analysis=an)
        assert np.array_equal(matrices.crit_edge, np.where(mask, clustered.clus_edge, 0))


def _assert_schedule_matches_oracle(clustered, system, assignment, gen):
    """The per-edge ``comm`` against the dense oracle, then the schedule
    checks against the loop oracle on random perturbations of a valid
    schedule and of both list schedules."""
    graph = clustered.graph
    schedule = evaluate_assignment(clustered, system, assignment)
    dense = communication_matrix(clustered, system, assignment)
    assert np.array_equal(schedule.comm, on_edges(graph, dense))
    assert np.array_equal(collect_matrices(clustered, system, assignment).comm, dense)
    verify_schedule(schedule)
    candidates = [(schedule.start, schedule.end)]
    for policy in ("fifo", "blevel"):
        ls = list_schedule(clustered, system, assignment, policy)
        candidates.append((ls.start, ls.end))
    n = graph.num_tasks
    for _ in range(12):
        start, end = (a.copy() for a in candidates[int(gen.integers(len(candidates)))])
        for t in gen.choice(n, size=int(gen.integers(1, 3)), replace=True).tolist():
            shift = int(gen.choice([-2, -1, 1, 2]))
            end[t] += shift
            if gen.random() < 0.8:  # else the duration breaks too
                start[t] += shift
        candidates.append((start, end))
    for start, end in candidates:
        for asap in (True, False):
            args = (clustered, system, assignment, start, end)
            expected = violation(oracle_verify_times, *args, require_asap=asap)
            assert violation(verify_times, *args, require_asap=asap) == expected


@SETTINGS
@given(clustered_instances())
def test_criticality_matches_dense_oracle(instance):
    clustered, system, _ = instance
    _assert_criticality_matches_oracle(clustered, system)


@SETTINGS
@given(clustered_instances())
def test_schedule_and_its_checks_match_dense_oracles(instance):
    clustered, system, seed = instance
    assignment = Assignment.random(system.num_nodes, rng=seed)
    gen = np.random.default_rng(seed)
    _assert_schedule_matches_oracle(clustered, system, assignment, gen)


@pytest.mark.parametrize("family", sorted(TOPOLOGY_SPECS))
def test_per_edge_layout_matches_dense_oracles_on_every_family(family):
    system = build_topology(TOPOLOGY_SPECS[family], rng=0)
    gen = np.random.default_rng(len(family))
    for seed in range(2):
        clustered, _ = random_instance(seed, num_tasks=48, system=system)
        _assert_criticality_matches_oracle(clustered, system)
        assignment = Assignment.random(system.num_nodes, rng=seed)
        _assert_schedule_matches_oracle(clustered, system, assignment, gen)


# ----------------------------------------------------------------------
# Mapper invariants
# ----------------------------------------------------------------------


@SETTINGS
@given(clustered_instances())
def test_mapper_end_to_end_invariants(instance):
    clustered, system, seed = instance
    result = CriticalEdgeMapper(rng=seed).map(clustered, system)
    assert sorted(result.assignment.assi.tolist()) == list(range(system.num_nodes))
    assert result.lower_bound <= result.total_time <= result.initial_total_time
    assert result.is_provably_optimal == (result.total_time == result.lower_bound)


@SETTINGS
@given(clustered_instances(max_tasks=12))
def test_termination_condition_sound(instance):
    """When the mapper claims optimality, exhaustive search agrees."""
    clustered, system, seed = instance
    if system.num_nodes > 6:
        return  # keep the factorial small
    result = CriticalEdgeMapper(rng=seed).map(clustered, system)
    if result.is_provably_optimal:
        best = exhaustive_optimum(clustered, system)
        assert best.total_time == result.total_time


# ----------------------------------------------------------------------
# Simulator agreement
# ----------------------------------------------------------------------


@SETTINGS
@given(clustered_instances())
def test_simulator_matches_analytic_model(instance):
    clustered, system, seed = instance
    assignment = Assignment.random(system.num_nodes, rng=seed)
    schedule = evaluate_assignment(clustered, system, assignment)
    sim = simulate(clustered, system, assignment)
    assert sim.makespan == schedule.total_time
    assert np.array_equal(sim.start, schedule.start)
    assert np.array_equal(sim.end, schedule.end)


# ----------------------------------------------------------------------
# Substrate invariants
# ----------------------------------------------------------------------


@SETTINGS
@given(task_graphs())
def test_serialization_round_trip(graph):
    assert task_graph_from_dict(task_graph_to_dict(graph)) == graph


@SETTINGS
@given(task_graphs())
def test_topological_order_property(graph):
    order = graph.topological_order.tolist()
    position = {t: i for i, t in enumerate(order)}
    for e in graph.edges():
        assert position[e.src] < position[e.dst]


@SETTINGS
@given(
    st.integers(2, 30),
    st.floats(0.0, 1.0),
    st.integers(0, 2**16),
)
def test_random_topologies_connected(n, prob, seed):
    g = random_connected(n, extra_edge_prob=prob, rng=seed)
    assert g.num_nodes == n
    assert (g.shortest >= 0).all()  # constructor rejects disconnection


@SETTINGS
@given(st.integers(1, 200), st.integers(0, 2**16))
def test_layered_dag_generator_valid(n, seed):
    g = layered_random_dag(num_tasks=n, rng=seed)
    assert g.num_tasks == n
    entries = set(g.sources().tolist())
    for t in range(n):
        if t not in entries:
            assert g.predecessors(t).size > 0


# ----------------------------------------------------------------------
# Incremental evaluator, list scheduler, embedding
# ----------------------------------------------------------------------


@SETTINGS
@given(clustered_instances(), st.lists(st.integers(0, 10**6), max_size=12))
def test_incremental_evaluator_equivalence(instance, swap_seeds):
    from repro.core import DeltaEvaluator

    clustered, system, seed = instance
    n = system.num_nodes
    if n < 2:
        return
    a = Assignment.random(n, rng=seed)
    inc = DeltaEvaluator(clustered, system, a)
    current = a
    for s in swap_seeds:
        x, y = s % n, (s // n) % n
        if x == y:
            continue
        current = current.swapped(x, y)
        comm = communication_matrix(clustered, system, current)
        _, end = scalar_schedule(clustered.graph, comm)
        assert inc.swap(x, y) == int(end.max())
        assert np.array_equal(inc.end_times(), end)


@SETTINGS
@given(clustered_instances())
def test_list_schedule_dominates_paper_model(instance):
    from repro.core import list_schedule, verify_times

    clustered, system, seed = instance
    a = Assignment.random(system.num_nodes, rng=seed)
    paper = total_time(clustered, system, a)
    for policy in ("fifo", "blevel"):
        ls = list_schedule(clustered, system, a, policy=policy)
        assert ls.makespan >= paper
        verify_times(clustered, system, a, ls.start, ls.end, require_asap=False)


@SETTINGS
@given(clustered_instances())
def test_embedding_congestion_conservation(instance):
    """Sum of link crossings equals sum of edge dilations."""
    from repro.core import AbstractGraph
    from repro.topology import edge_dilations, link_congestion

    clustered, system, seed = instance
    abstract = AbstractGraph(clustered)
    a = Assignment.random(system.num_nodes, rng=seed)
    dil = edge_dilations(abstract, system, a)
    cong = link_congestion(abstract, system, a)
    assert sum(cong.values()) == sum(dil.values())


@SETTINGS
@given(st.integers(2, 16), st.integers(0, 2**16))
def test_order_crossover_permutation_property(n, seed):
    from repro.baselines import order_crossover

    gen = np.random.default_rng(seed)
    a, b = gen.permutation(n), gen.permutation(n)
    child = order_crossover(a, b, gen)
    assert sorted(child.tolist()) == list(range(n))


# ----------------------------------------------------------------------
# Weighted links
# ----------------------------------------------------------------------


@st.composite
def weighted_systems(draw):
    """Random connected machines with random integer link costs."""
    from repro.topology import SystemGraph, random_connected

    n = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**16))
    base = random_connected(n, extra_edge_prob=0.3, rng=seed)
    gen = np.random.default_rng(seed)
    weights = gen.integers(1, 6, size=(n, n))
    return SystemGraph(base.sys_edge, name="wrand", link_weights=weights)


@SETTINGS
@given(weighted_systems())
def test_weighted_distances_metric(system):
    d = system.shortest
    n = system.num_nodes
    assert (np.diagonal(d) == 0).all()
    assert np.array_equal(d, d.T)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert d[a, c] <= d[a, b] + d[b, c]
    # Distances never exceed the direct link cost where a link exists.
    adj = system.sys_edge > 0
    assert (d[adj] <= system.link_weights[adj]).all()


@SETTINGS
@given(weighted_systems())
def test_weighted_routes_cost_matches_distance(system):
    assert_routes_match_oracle(system)


@SETTINGS
@given(weighted_systems(), st.integers(0, 2**16))
def test_simulator_matches_analytic_on_weighted_machines(system, seed):
    from repro.core import ClusteredGraph, Clustering

    gen = np.random.default_rng(seed)
    n = system.num_nodes
    graph = layered_random_dag(num_tasks=3 * n, rng=gen)
    labels = np.concatenate(
        [np.arange(n), gen.integers(0, n, size=2 * n)]
    )
    clustered = ClusteredGraph(graph, Clustering(labels, num_clusters=n))
    assignment = Assignment.random(n, rng=gen)
    schedule = evaluate_assignment(clustered, system, assignment)
    sim = simulate(clustered, system, assignment)
    assert sim.makespan == schedule.total_time
