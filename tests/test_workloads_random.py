"""Unit tests for repro.workloads.random_dag."""

import hashlib

import numpy as np
import pytest

from repro.core import TaskGraph
from repro.utils import GraphError, as_rng
from repro.workloads import gnp_dag, layered_random_dag, series_parallel_dag
from repro.workloads.random_dag import _VECTOR_THRESHOLD


class TestLayeredRandomDag:
    @pytest.mark.parametrize("n", [1, 2, 30, 120])
    def test_sizes_and_validity(self, n):
        g = layered_random_dag(num_tasks=n, rng=0)
        assert g.num_tasks == n  # constructor already validated DAG-ness

    def test_every_non_entry_task_has_predecessor(self):
        g = layered_random_dag(num_tasks=80, rng=1)
        entries = set(g.sources().tolist())
        for t in range(g.num_tasks):
            if t not in entries:
                assert g.predecessors(t).size > 0

    def test_deterministic_by_seed(self):
        assert layered_random_dag(50, rng=9) == layered_random_dag(50, rng=9)

    def test_different_seeds_differ(self):
        assert layered_random_dag(50, rng=1) != layered_random_dag(50, rng=2)

    def test_weight_ranges_respected(self):
        g = layered_random_dag(
            60, task_size_range=(3, 7), comm_range=(2, 4), rng=3
        )
        assert g.task_sizes.min() >= 3 and g.task_sizes.max() <= 7
        weights = [e.weight for e in g.edges()]
        assert min(weights) >= 2 and max(weights) <= 4

    def test_mean_degree_stays_constant(self):
        """The headline property of the default density model."""
        small = layered_random_dag(50, rng=4)
        large = layered_random_dag(300, rng=4)
        deg_small = 2 * small.num_edges / small.num_tasks
        deg_large = 2 * large.num_edges / large.num_tasks
        assert deg_large < 2.5 * deg_small  # no quadratic blow-up

    def test_explicit_probability_honoured(self):
        dense = layered_random_dag(60, extra_edge_prob=0.5, rng=5)
        sparse = layered_random_dag(60, extra_edge_prob=0.0, rng=5)
        assert dense.num_edges > sparse.num_edges
        # With prob 0 only the spanning edges remain: exactly one per
        # non-entry-layer task.
        layers_entries = sparse.sources().size
        assert sparse.num_edges == sparse.num_tasks - layers_entries

    def test_num_layers_controls_depth(self):
        deep = layered_random_dag(60, num_layers=30, rng=6)
        shallow = layered_random_dag(60, num_layers=3, rng=6)
        assert deep.critical_path_length() > shallow.critical_path_length()

    def test_bad_args(self):
        with pytest.raises(GraphError):
            layered_random_dag(0)
        with pytest.raises(GraphError):
            layered_random_dag(10, task_size_range=(0, 5))
        with pytest.raises(GraphError):
            layered_random_dag(10, comm_range=(5, 2))
        with pytest.raises(GraphError):
            layered_random_dag(10, extra_edges_per_task=-1)
        for n in (20, 20_000):  # both extra-edge samplers
            for prob in (-0.5, 1.5, float("nan")):
                with pytest.raises(GraphError, match="extra_edge_prob"):
                    layered_random_dag(n, extra_edge_prob=prob, rng=0)


# -- the reference sampler as oracle -----------------------------------------


def _reference_layered_random_dag(
    num_tasks: int,
    num_layers: int | None = None,
    extra_edge_prob: float | None = None,
    extra_edges_per_task: float = 1.5,
    task_size_range: tuple[int, int] = (1, 10),
    comm_range: tuple[int, int] = (1, 10),
    rng: int | np.random.Generator | None = None,
    name: str | None = None,
) -> TaskGraph:
    """The per-pair reference sampler below ``_VECTOR_THRESHOLD`` tasks.

    One scalar draw per spanning edge and per forward pair, in the order
    that every pinned small-instance value was recorded with.
    ``layered_random_dag`` must reproduce its graphs and its generator
    stream exactly.
    """
    assert num_tasks < _VECTOR_THRESHOLD
    if num_tasks < 1:
        raise GraphError("num_tasks must be >= 1")
    if extra_edges_per_task < 0:
        raise GraphError("extra_edges_per_task must be >= 0")
    gen = as_rng(rng)
    layers = _reference_partition_layers(num_tasks, num_layers, gen)
    if extra_edge_prob is None:
        layer_of_tmp = np.empty(num_tasks, dtype=np.int64)
        for li, layer in enumerate(layers):
            layer_of_tmp[layer] = li
        widths = np.asarray([layer.size for layer in layers], dtype=np.int64)
        later = np.concatenate(([0], np.cumsum(widths[::-1])[:-1]))[::-1]
        forward_pairs = int((widths * (later)).sum())
        extra_edge_prob = (
            min(1.0, extra_edges_per_task * num_tasks / forward_pairs)
            if forward_pairs
            else 0.0
        )
    lo_w, hi_w = task_size_range
    lo_c, hi_c = comm_range
    if lo_w < 1 or hi_w < lo_w or lo_c < 1 or hi_c < lo_c:
        raise GraphError("weight ranges must satisfy 1 <= lo <= hi")

    sizes = gen.integers(lo_w, hi_w + 1, size=num_tasks)
    edges: dict[tuple[int, int], int] = {}

    layer_of = np.empty(num_tasks, dtype=np.int64)
    for li, layer in enumerate(layers):
        layer_of[layer] = li

    # Spanning edges: every non-entry task depends on someone earlier.
    for li in range(1, len(layers)):
        earlier = np.concatenate(layers[:li])
        for t in layers[li].tolist():
            src = int(earlier[gen.integers(0, earlier.size)])
            edges[(src, t)] = int(gen.integers(lo_c, hi_c + 1))

    # Extra forward edges between any pair in strictly increasing layers.
    for u in range(num_tasks):
        for v in range(num_tasks):
            if layer_of[u] < layer_of[v] and (u, v) not in edges:
                if gen.random() < extra_edge_prob:
                    edges[(u, v)] = int(gen.integers(lo_c, hi_c + 1))
    triples = [(u, v, w) for (u, v), w in sorted(edges.items())]
    return TaskGraph(sizes, triples, name=name or f"layered-{num_tasks}")


def _reference_partition_layers(
    num_tasks: int, num_layers: int | None, gen: np.random.Generator
) -> list[np.ndarray]:
    """Split ``0..num_tasks-1`` into non-empty consecutive layers."""
    if num_layers is None:
        num_layers = max(1, int(round(num_tasks**0.5)))
    num_layers = min(num_layers, num_tasks)
    if num_layers < 1:
        raise GraphError("num_layers must be >= 1")
    # Random cut points give variable layer widths, min width 1.
    cuts = np.sort(gen.choice(np.arange(1, num_tasks), size=num_layers - 1, replace=False))
    bounds = np.concatenate(([0], cuts, [num_tasks]))
    ids = np.arange(num_tasks)
    return [ids[bounds[i] : bounds[i + 1]] for i in range(num_layers)]


_CSR_FIELDS = (
    "task_sizes", "out_indptr", "out_indices", "out_weights",
    "in_indptr", "in_indices", "in_weights",
)


def _assert_matches_reference(n, bit_generator=np.random.PCG64, seed=0, **kwargs):
    """Same CSR bytes, topological order, name and generator state after."""
    gen_new = np.random.Generator(bit_generator(seed))
    gen_ref = np.random.Generator(bit_generator(seed))
    got = layered_random_dag(n, rng=gen_new, **kwargs)
    want = _reference_layered_random_dag(n, rng=gen_ref, **kwargs)
    for field in _CSR_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert got.topological_order.tobytes() == want.topological_order.tobytes()
    assert got.name == want.name
    assert repr(gen_new.bit_generator.state) == repr(gen_ref.bit_generator.state)
    return got


def _csr_digest(graph: TaskGraph) -> str:
    h = hashlib.sha256()
    for field in ("task_sizes", "out_indptr", "out_indices", "out_weights"):
        h.update(np.ascontiguousarray(getattr(graph, field), dtype="<i8").tobytes())
    return h.hexdigest()


class TestReferenceOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 30, 31, 120, 300, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_density(self, n, seed):
        _assert_matches_reference(n, seed=seed)

    @pytest.mark.parametrize("num_layers", [1, 2, 7, 60, 500])
    def test_num_layers(self, num_layers):
        _assert_matches_reference(60, seed=3, num_layers=num_layers)

    @pytest.mark.parametrize("prob", [0.0, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize("n", [2, 31, 120])
    def test_explicit_probability(self, n, prob):
        _assert_matches_reference(n, seed=4, extra_edge_prob=prob)

    def test_extra_edges_per_task(self):
        _assert_matches_reference(120, seed=5, extra_edges_per_task=0.0)
        _assert_matches_reference(120, seed=5, extra_edges_per_task=40.0)

    @pytest.mark.parametrize(
        "task_size_range,comm_range",
        [((1, 1), (1, 1)), ((7, 7), (3, 3)), ((1, 10**12), (1, 2**40)), ((1, 10), (2**33, 2**34))],
    )
    def test_weight_ranges(self, task_size_range, comm_range):
        for prob in (None, 0.5):
            _assert_matches_reference(
                120, seed=6, extra_edge_prob=prob,
                task_size_range=task_size_range, comm_range=comm_range,
            )

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox, np.random.SFC64],
    )
    def test_bit_generators(self, bit_generator):
        for n, prob in ((30, None), (300, None), (31, 0.5)):
            _assert_matches_reference(n, bit_generator, seed=7, extra_edge_prob=prob)

    def test_name(self):
        _assert_matches_reference(30, seed=8, name="custom")

    @pytest.mark.parametrize(
        "n,digest",
        [
            (300, "3c1892b4f3fe59516e2c369683dd3a40134b77f07bdc83ebfa0d99b73dab72ff"),
            (10_000, "72befa86505c15f4c4cc7707f7ce15fa0b633fb9fbeef48a906794f280501192"),
            (100_000, "e459cc9c5d9f2b52c010709596c78a3ec9e70c84ebf72e436a3bf586580df1c7"),
        ],
    )
    def test_pinned_csr_digest(self, n, digest):
        """Both samplers' streams, pinned; the 100k instance is the scale case."""
        assert _csr_digest(layered_random_dag(n, rng=0)) == digest


class TestGnpDag:
    def test_valid_dag(self):
        g = gnp_dag(40, edge_prob=0.2, rng=0)
        assert g.num_tasks == 40

    def test_edge_count_scales_with_prob(self):
        sparse = gnp_dag(40, edge_prob=0.05, rng=1)
        dense = gnp_dag(40, edge_prob=0.5, rng=1)
        assert dense.num_edges > sparse.num_edges

    def test_prob_zero_no_edges(self):
        assert gnp_dag(20, edge_prob=0.0, rng=2).num_edges == 0

    def test_prob_one_complete_dag(self):
        g = gnp_dag(10, edge_prob=1.0, rng=3)
        assert g.num_edges == 10 * 9 // 2

    def test_bad_prob(self):
        with pytest.raises(GraphError):
            gnp_dag(10, edge_prob=1.2)


class TestSeriesParallelDag:
    def test_depth_zero_single_task(self):
        g = series_parallel_dag(0, rng=0)
        assert g.num_tasks == 1

    @pytest.mark.parametrize("depth,branching", [(1, 2), (2, 2), (3, 2), (2, 3)])
    def test_task_count(self, depth, branching):
        g = series_parallel_dag(depth, branching=branching, rng=0)

        def expected(d):
            return 1 if d == 0 else 2 + branching * expected(d - 1)

        assert g.num_tasks == expected(depth)

    def test_single_source_and_sink(self):
        g = series_parallel_dag(3, rng=1)
        assert g.sources().size == 1
        assert g.sinks().size == 1

    def test_bad_args(self):
        with pytest.raises(GraphError):
            series_parallel_dag(-1)
        with pytest.raises(GraphError):
            series_parallel_dag(2, branching=0)
