"""Unit tests for the repro.clustering package (all clusterers)."""

import numpy as np
import pytest

from repro.clustering import (
    BandClusterer,
    BlockClusterer,
    EdgeZeroClusterer,
    LinearClusterer,
    LoadBalanceClusterer,
    RandomClusterer,
    RoundRobinClusterer,
    base,
    rebalance_empty_clusters,
)
from repro.clustering.base import first_appearance, merged_bounds
from repro.core import ClusteredGraph, Clustering, TaskGraph, lower_bound
from repro.utils import GraphError
from repro.workloads import gnp_dag, layered_random_dag, wavefront_dag

ALL_CLUSTERERS = [
    RandomClusterer,
    RoundRobinClusterer,
    BlockClusterer,
    BandClusterer,
    LoadBalanceClusterer,
    EdgeZeroClusterer,
    LinearClusterer,
]


@pytest.fixture(scope="module")
def workload():
    return layered_random_dag(num_tasks=48, rng=11)


class TestCommonContract:
    @pytest.mark.parametrize("cls", ALL_CLUSTERERS)
    def test_partition_valid(self, cls, workload):
        clustering = cls(num_clusters=6).cluster(workload, rng=4)
        assert clustering.num_clusters == 6
        assert clustering.num_tasks == workload.num_tasks
        assert (clustering.sizes() > 0).all()

    @pytest.mark.parametrize("cls", ALL_CLUSTERERS)
    def test_single_cluster(self, cls, workload):
        clustering = cls(num_clusters=1).cluster(workload, rng=4)
        assert clustering.num_clusters == 1

    @pytest.mark.parametrize("cls", ALL_CLUSTERERS)
    def test_as_many_clusters_as_tasks(self, cls):
        g = layered_random_dag(num_tasks=8, rng=2)
        clustering = cls(num_clusters=8).cluster(g, rng=2)
        assert clustering.sizes().tolist() == [1] * 8

    @pytest.mark.parametrize("cls", ALL_CLUSTERERS)
    def test_too_many_clusters_rejected(self, cls, workload):
        with pytest.raises(GraphError):
            cls(num_clusters=1000).cluster(workload)

    @pytest.mark.parametrize("cls", ALL_CLUSTERERS)
    def test_zero_clusters_rejected(self, cls):
        with pytest.raises(GraphError):
            cls(num_clusters=0)

    @pytest.mark.parametrize("cls", ALL_CLUSTERERS)
    def test_usable_by_mapper(self, cls, workload):
        from repro.core import CriticalEdgeMapper
        from repro.topology import hypercube

        clustering = cls(num_clusters=8).cluster(workload, rng=4)
        result = CriticalEdgeMapper(rng=4).map(
            ClusteredGraph(workload, clustering), hypercube(3)
        )
        assert result.total_time >= result.lower_bound


class TestRandomClusterer:
    def test_deterministic_by_seed(self, workload):
        a = RandomClusterer(6).cluster(workload, rng=1)
        b = RandomClusterer(6).cluster(workload, rng=1)
        assert a == b

    def test_seeds_differ(self, workload):
        a = RandomClusterer(6).cluster(workload, rng=1)
        b = RandomClusterer(6).cluster(workload, rng=2)
        assert a != b


class TestRoundRobinAndBlock:
    def test_round_robin_labels(self, workload):
        c = RoundRobinClusterer(4).cluster(workload)
        assert c.labels.tolist() == [t % 4 for t in range(workload.num_tasks)]

    def test_block_labels_contiguous(self, workload):
        c = BlockClusterer(4).cluster(workload)
        labels = c.labels
        assert (np.diff(labels) >= 0).all()  # non-decreasing

    def test_block_balanced(self):
        g = layered_random_dag(num_tasks=10, rng=0)
        c = BlockClusterer(3).cluster(g)
        assert sorted(c.sizes().tolist()) == [3, 3, 4]


class TestBandClusterer:
    def test_bands_respect_depth_order(self):
        g = TaskGraph([1] * 6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)])
        c = BandClusterer(3).cluster(g)
        # A 6-chain in 3 bands: first two tasks band 0, etc.
        assert c.labels.tolist() == [0, 0, 1, 1, 2, 2]


class TestLoadBalance:
    def test_load_balanced(self, workload):
        c = LoadBalanceClusterer(4, affinity_weight=0.0).cluster(workload)
        loads = c.load(workload)
        # Pure LPT on 4 bins: max/min within the largest task size.
        assert loads.max() - loads.min() <= workload.task_sizes.max()

    def test_affinity_reduces_cut(self, workload):
        blind = LoadBalanceClusterer(4, affinity_weight=0.0).cluster(workload)
        fond = LoadBalanceClusterer(4, affinity_weight=5.0).cluster(workload)
        cut_blind = ClusteredGraph(workload, blind).cut_weight()
        cut_fond = ClusteredGraph(workload, fond).cut_weight()
        assert cut_fond <= cut_blind

    def test_negative_affinity_rejected(self):
        with pytest.raises(ValueError):
            LoadBalanceClusterer(4, affinity_weight=-1)


class TestEdgeZero:
    def test_reduces_cut_vs_random(self, workload):
        ez = EdgeZeroClusterer(6).cluster(workload, rng=0)
        rnd = RandomClusterer(6).cluster(workload, rng=0)
        assert (
            ClusteredGraph(workload, ez).cut_weight()
            <= ClusteredGraph(workload, rnd).cut_weight()
        )

    def test_reduces_cut_vs_random_on_wavefront(self):
        """The clustering study's cut claim (cut weight is not in sweep records)."""
        graph = wavefront_dag(5, 5)
        cut = {
            name: ClusteredGraph(graph, cls(4).cluster(graph, rng=1)).cut_weight()
            for name, cls in (("edge_zero", EdgeZeroClusterer), ("random", RandomClusterer))
        }
        assert cut["edge_zero"] <= cut["random"]

    def test_never_worse_bound_than_singletons(self, workload):
        """Edge zeroing only merges when the estimate does not regress, so
        its bound can't exceed the all-singleton (unclustered) bound."""
        ez = EdgeZeroClusterer(6).cluster(workload, rng=0)
        singleton_bound = lower_bound(
            ClusteredGraph(workload, Clustering(np.arange(workload.num_tasks)))
        )
        assert lower_bound(ClusteredGraph(workload, ez)) <= singleton_bound


class TestLinear:
    def test_clusters_are_chains(self):
        """Every linear cluster must be totally ordered by reachability
        (no two independent tasks together) — except the dump-tail last
        cluster."""
        g = layered_random_dag(num_tasks=30, rng=5)
        c = LinearClusterer(6).cluster(g, rng=5)
        import networkx as nx

        nxg = g.to_networkx()
        reach = {t: nx.descendants(nxg, t) for t in range(g.num_tasks)}
        for cluster in range(c.num_clusters - 1):  # skip the tail cluster
            members = c.members(cluster).tolist()
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    assert b in reach[a] or a in reach[b]

    def test_first_cluster_is_critical_path(self):
        g = TaskGraph([1, 5, 1, 1], [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
        c = LinearClusterer(2).cluster(g)
        # Longest path 0 -> 1 -> 3 (weights 1+1+5+1+1 = 9) is peeled first;
        # the tail cluster absorbs the rest.
        assert set(c.members(0).tolist()) == {0, 1, 3}
        assert set(c.members(1).tolist()) == {2}


class TestRebalance:
    def test_fills_empty_clusters(self):
        g = layered_random_dag(num_tasks=10, rng=1)
        labels = np.zeros(10, dtype=np.int64)  # everything in cluster 0
        fixed = rebalance_empty_clusters(labels, 3, g)
        counts = np.bincount(fixed, minlength=3)
        assert (counts > 0).all()

    def test_noop_when_already_valid(self):
        g = layered_random_dag(num_tasks=6, rng=1)
        labels = np.asarray([0, 1, 2, 0, 1, 2], dtype=np.int64)
        assert np.array_equal(rebalance_empty_clusters(labels, 3, g), labels)


def _merge_cases():
    """(graph, labels): random partitions into 12 clusters, one with
    gapped ids, one on a graph with edges from higher to lower ids."""
    lr = layered_random_dag(num_tasks=60, rng=3)
    gnp = gnp_dag(num_tasks=40, edge_prob=0.15, rng=5)
    relabeled = gnp.relabeled(np.random.default_rng(2).permutation(40))
    wave = wavefront_dag(6, 6)
    return {
        "layered_random": (lr, RandomClusterer(12).cluster(lr, rng=1).labels),
        "gnp-gapped": (gnp, 3 * RandomClusterer(12).cluster(gnp, rng=2).labels + 5),
        "gnp-relabeled": (
            relabeled, RandomClusterer(12).cluster(relabeled, rng=3).labels
        ),
        "wavefront": (wave, RandomClusterer(12).cluster(wave, rng=4).labels),
    }


class TestMergedBounds:
    """Each row of the batched merge bound against the per-candidate path it
    replaced: ``lower_bound`` of a fresh ``ClusteredGraph`` of the merge."""

    @pytest.mark.parametrize(
        "case", ["layered_random", "gnp-gapped", "gnp-relabeled", "wavefront"]
    )
    @pytest.mark.parametrize("rows", [None, 5, 1])
    def test_every_pair_matches_lower_bound(self, case, rows, monkeypatch):
        graph, labels = _merge_cases()[case]
        if rows is not None:  # several chunks: `rows` rows each
            monkeypatch.setattr(base, "_BATCH_BYTES", 8 * graph.num_edges * rows)
        ids = np.unique(labels).tolist()
        pairs = np.array([(a, b) for a in ids for b in ids if a != b])
        want = []
        for a, b in pairs.tolist():
            merged = np.where(labels == b, a, labels)
            dense = np.unique(merged, return_inverse=True)[1]
            want.append(lower_bound(ClusteredGraph(graph, Clustering(dense))))
        got = merged_bounds(graph, labels, pairs[:, 0], pairs[:, 1])
        assert got.tolist() == want


def test_first_appearance_renumbers_in_order_of_first_use():
    labels = np.array([7, 3, 7, 9, 3, 0, 9])
    assert first_appearance(labels).tolist() == [0, 1, 0, 2, 1, 3, 2]
    assert first_appearance(np.arange(5)).tolist() == [0, 1, 2, 3, 4]
