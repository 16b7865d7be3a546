"""Unit tests for repro.core.refine (refinement + termination condition)."""

import numpy as np

from repro.core import (
    AbstractGraph,
    Assignment,
    analyze_criticality,
    initial_assignment,
    refine_pairwise,
    refine_random,
    total_time,
)
from repro.core.refine import critical_abstract_nodes
from tests.conftest import chain4_one_task_per_cluster, random_instance, weighted_ring4


def _setup(clustered, system, seed=0):
    abstract = AbstractGraph(clustered)
    analysis = analyze_criticality(clustered)
    init = initial_assignment(abstract, analysis, system, rng=seed)
    return analysis, init


class TestRefineRandom:
    def test_never_worse_than_initial(self):
        for seed in range(8):
            clustered, system = random_instance(seed)
            analysis, init = _setup(clustered, system, seed)
            result = refine_random(clustered, system, analysis, init, rng=seed)
            assert result.total_time <= total_time(clustered, system, init)

    def test_result_time_consistent(self):
        for seed in range(5):
            clustered, system = random_instance(seed)
            analysis, init = _setup(clustered, system, seed)
            result = refine_random(clustered, system, analysis, init, rng=seed)
            assert result.total_time == total_time(
                clustered, system, result.assignment
            )

    def test_respects_lower_bound(self):
        for seed in range(5):
            clustered, system = random_instance(seed)
            analysis, init = _setup(clustered, system, seed)
            result = refine_random(clustered, system, analysis, init, rng=seed)
            assert result.total_time >= result.lower_bound
            assert result.reached_lower_bound == (
                result.total_time == result.lower_bound
            )

    def test_trial_budget_defaults_to_ns(self):
        clustered, system = random_instance(3)
        analysis, init = _setup(clustered, system, 3)
        result = refine_random(clustered, system, analysis, init, rng=3)
        assert result.trials <= system.num_nodes

    def test_custom_trial_budget(self):
        clustered, system = random_instance(4)
        analysis, init = _setup(clustered, system, 4)
        result = refine_random(
            clustered, system, analysis, init, rng=4, max_trials=3
        )
        assert result.trials <= 3

    def test_terminates_immediately_at_bound(self):
        """If the initial assignment already meets the bound, zero trials."""
        from repro.workloads import running_example_clustered, running_example_system

        clustered = running_example_clustered()
        system = running_example_system()
        analysis, init = _setup(clustered, system)
        result = refine_random(clustered, system, analysis, init, rng=0)
        assert result.reached_lower_bound
        assert result.trials == 0
        assert not result.improved

    def test_pinned_clusters_never_move(self):
        for seed in range(6):
            clustered, system = random_instance(seed)
            analysis, init = _setup(clustered, system, seed)
            pinned = critical_abstract_nodes(analysis, system, init)
            result = refine_random(clustered, system, analysis, init, rng=seed)
            for cluster in np.flatnonzero(pinned).tolist():
                assert result.assignment.system_of(cluster) == init.system_of(cluster)

    def test_movable_pool_preserved(self):
        """Non-pinned clusters stay within the non-pinned processor pool."""
        clustered, system = random_instance(2)
        analysis, init = _setup(clustered, system, 2)
        pinned = critical_abstract_nodes(analysis, system, init)
        pool = set(init.placement[~pinned].tolist())
        result = refine_random(clustered, system, analysis, init, rng=2)
        for cluster in np.flatnonzero(~pinned).tolist():
            assert result.assignment.system_of(cluster) in pool


class TestRefinePairwise:
    def test_never_worse_than_initial(self):
        for seed in range(6):
            clustered, system = random_instance(seed)
            analysis, init = _setup(clustered, system, seed)
            result = refine_pairwise(clustered, system, analysis, init, rng=seed)
            assert result.total_time <= total_time(clustered, system, init)

    def test_pinned_clusters_never_move(self):
        clustered, system = random_instance(1)
        analysis, init = _setup(clustered, system, 1)
        pinned = critical_abstract_nodes(analysis, system, init)
        result = refine_pairwise(clustered, system, analysis, init, rng=1)
        for cluster in np.flatnonzero(pinned).tolist():
            assert result.assignment.system_of(cluster) == init.system_of(cluster)

    def test_improved_flag(self):
        clustered, system = random_instance(0)
        analysis, init = _setup(clustered, system, 0)
        result = refine_pairwise(
            clustered, system, analysis, init, rng=0, max_trials=50
        )
        init_time = total_time(clustered, system, init)
        assert result.improved == (result.total_time < init_time)


class TestCriticalAbstractNodes:
    def test_empty_when_no_critical_edges(self):
        from repro.core import ClusteredGraph, Clustering, TaskGraph
        from repro.topology import ring

        g = TaskGraph([1, 1, 1, 1])
        cg = ClusteredGraph(g, Clustering([0, 1, 2, 3]))
        analysis = analyze_criticality(cg)
        pinned = critical_abstract_nodes(analysis, ring(4), Assignment.identity(4))
        assert not pinned.any()

    def test_both_endpoints_pinned(self, diamond_clustered):
        from repro.topology import chain

        system = chain(4)
        analysis = analyze_criticality(diamond_clustered)
        # Identity: clusters 0,1 adjacent (critical edge (0,1) on one link).
        pinned = critical_abstract_nodes(analysis, system, Assignment.identity(4))
        assert pinned[0] and pinned[1]

    def test_distance_two_not_pinned(self, diamond_clustered):
        from repro.topology import chain

        system = chain(4)
        analysis = analyze_criticality(diamond_clustered)
        # Place cluster 0 and 1 two hops apart, 1 and 3 two hops apart:
        # placement cluster->system: 0->0, 1->2, 2->1, 3->... need dist(1,3)>1
        a = Assignment.from_placement([0, 2, 1, 3])
        # critical edges: (0,1) at dist 2 -> not single edge; (1,3) at dist 1.
        pinned = critical_abstract_nodes(analysis, system, a)
        assert pinned[1] and pinned[3]
        assert not pinned[0]
        assert not pinned[2]

    def test_weighted_link_counts_as_one_link(self):
        # Regression: the critical edge on link 0-1 (cost 3) left cluster
        # 0 unpinned, because the check read the weighted distance as hops.
        analysis = analyze_criticality(chain4_one_task_per_cluster())
        system = weighted_ring4()
        assert system.distance(0, 1) == 3
        pinned = critical_abstract_nodes(analysis, system, Assignment.identity(4))
        assert pinned.all()
