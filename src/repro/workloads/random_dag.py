"""Random problem-graph generators (paper Sec. 5).

The paper evaluates on "random problem graphs" with 30-300 nodes whose
node and edge weights are "produced randomly"; no further parameters are
published.  :func:`layered_random_dag` is our reconstruction of the usual
1990s random-task-graph recipe (and what the experiment harness uses):
tasks are arranged in layers, every task gets at least one predecessor in
an earlier layer (so the DAG is connected and has real precedence
chains), and extra forward edges are sprinkled with a density knob.

:func:`gnp_dag` (Erdős–Rényi over a random topological order) and
:func:`series_parallel_dag` round out the family for tests and ablations:
G(n,p) DAGs stress wide graphs with little structure, series-parallel
DAGs stress deep dependency chains.
"""

from __future__ import annotations

import numpy as np

from ..core.taskgraph import TaskGraph
from ..utils import GraphError, as_rng

__all__ = ["layered_random_dag", "gnp_dag", "series_parallel_dag"]

#: Task count at which :func:`layered_random_dag` switches from the
#: per-pair Bernoulli stream to the binomial pair-index sampler.  Both
#: streams are pinned: ``tests/test_workloads_random.py`` holds the
#: per-pair loop as the oracle of the first and CSR digests of both.
_VECTOR_THRESHOLD = 10_000

#: Bounds on the look-ahead chunk of the per-pair Bernoulli stream.
_MIN_CHUNK = 64
_MAX_CHUNK = 1 << 16


def layered_random_dag(
    num_tasks: int,
    num_layers: int | None = None,
    extra_edge_prob: float | None = None,
    extra_edges_per_task: float = 1.5,
    task_size_range: tuple[int, int] = (1, 10),
    comm_range: tuple[int, int] = (1, 10),
    rng: int | np.random.Generator | None = None,
    name: str | None = None,
) -> TaskGraph:
    """A layered random task DAG (the experiments' problem-graph generator).

    Parameters
    ----------
    num_tasks:
        Number of tasks (the paper uses 30-300).
    num_layers:
        Number of precedence layers; defaults to ``round(sqrt(num_tasks))``
        which keeps width and depth balanced.
    extra_edge_prob:
        Probability in [0, 1] of each additional forward (layer-skipping
        allowed) edge beyond the spanning edges that tie every non-entry
        task to an earlier layer.  Default ``None`` derives it from
        ``extra_edges_per_task`` so the *mean degree stays constant* as
        graphs grow — a fixed probability over the O(n^2) forward pairs
        would make 300-task graphs an order of magnitude denser than
        30-task ones, which is neither realistic for compiler-generated
        task graphs nor consistent with the mapping quality the paper
        reports.
    extra_edges_per_task:
        Expected number of extra edges per task when ``extra_edge_prob``
        is derived; the default 1.5 plus one spanning edge per non-entry
        task yields a mean undirected degree around 3-5.
    task_size_range, comm_range:
        Inclusive integer ranges for node and edge weights.
    """
    if num_tasks < 1:
        raise GraphError("num_tasks must be >= 1")
    if extra_edges_per_task < 0:
        raise GraphError("extra_edges_per_task must be >= 0")
    if extra_edge_prob is not None and not 0.0 <= extra_edge_prob <= 1.0:
        raise GraphError(f"extra_edge_prob must be in [0, 1], got {extra_edge_prob}")
    lo_w, hi_w = task_size_range
    lo_c, hi_c = comm_range
    if lo_w < 1 or hi_w < lo_w or lo_c < 1 or hi_c < lo_c:
        raise GraphError("weight ranges must satisfy 1 <= lo <= hi")
    gen = as_rng(rng)
    bounds = _layer_bounds(num_tasks, num_layers, gen)
    layer_of = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    # Layers are consecutive id ranges, so the forward pairs (u, v) with
    # layer(u) < layer(v), in row-major order, give source u the pair
    # indices starts[u]:ends[u], for v = first_later[u] .. num_tasks - 1.
    first_later = bounds[layer_of + 1]
    cnt = num_tasks - first_later
    ends = np.cumsum(cnt)
    starts = ends - cnt
    total_pairs = int(ends[-1])
    if extra_edge_prob is None:
        extra_edge_prob = (
            min(1.0, extra_edges_per_task * num_tasks / total_pairs)
            if total_pairs
            else 0.0
        )

    sizes = gen.integers(lo_w, hi_w + 1, size=num_tasks)

    # Spanning edges: every non-entry task depends on someone earlier.
    # One draw interleaves the per-task (source, weight) pairs; a task's
    # earlier layers are ids 0 .. bounds[layer] - 1, so the index drawn
    # over them is the source id.
    span_dst = np.arange(bounds[1], num_tasks)
    highs = np.empty(2 * span_dst.size, dtype=np.int64)
    highs[0::2] = bounds[layer_of[span_dst]]
    highs[1::2] = hi_c + 1
    lows = np.zeros_like(highs)
    lows[1::2] = lo_c
    drawn = gen.integers(lows, highs)
    span_src, span_w = drawn[0::2], drawn[1::2]
    span_f = np.sort(starts[span_src] + (span_dst - first_later[span_src]))  # pair ids

    # Extra forward edges between any pair in strictly increasing layers.
    if num_tasks < _VECTOR_THRESHOLD:
        hits, extra_w = _bernoulli_hits(
            gen, total_pairs - span_f.size, extra_edge_prob, lo_c, hi_c
        )
        # Stream position -> pair index: skip the spanning pairs before it.
        extra_f = hits + np.searchsorted(
            span_f - np.arange(span_f.size), hits, side="right"
        )
    else:
        # Iterating the O(n^2) forward-pair space is infeasible at 100k
        # tasks (5e9 pairs), so draw the *number* of extra edges from the
        # matching binomial and sample pair indices directly.  Collisions
        # and spanning pairs are removed rather than re-drawn (expected
        # collisions ~k^2/2P, a handful out of ~1.5 per task).
        extra_f = np.empty(0, dtype=np.int64)
        if total_pairs and extra_edge_prob > 0.0:
            k = int(gen.binomial(total_pairs, extra_edge_prob))
            if k:
                draws = np.sort(gen.integers(0, total_pairs, size=k))
                draws = draws[np.concatenate(([True], draws[1:] != draws[:-1]))]
                known = np.append(span_f, total_pairs)  # sentinel above any draw
                extra_f = draws[known[np.searchsorted(known, draws)] != draws]
        extra_w = gen.integers(lo_c, hi_c + 1, size=extra_f.size)
    extra_src = np.searchsorted(ends, extra_f, side="right")
    extra_dst = first_later[extra_src] + (extra_f - starts[extra_src])
    return TaskGraph.from_edge_arrays(
        sizes,
        np.concatenate((span_src, extra_src)),
        np.concatenate((span_dst, extra_dst)),
        np.concatenate((span_w, extra_w)),
        name=name or f"layered-{num_tasks}",
    )


def _bernoulli_hits(
    gen: np.random.Generator, length: int, prob: float, lo_c: int, hi_c: int
) -> tuple[np.ndarray, np.ndarray]:
    """Hits of ``length`` Bernoulli(``prob``) draws, each followed by its weight.

    Consumes ``gen`` exactly as this per-pair loop does::

        for i in range(length):
            if gen.random() < prob:
                hits.append(i)
                weights.append(int(gen.integers(lo_c, hi_c + 1)))

    The doubles are drawn in look-ahead chunks of ``gen.random(c)``.  A
    chunk without a hit leaves the generator where ``c`` scalar draws
    would.  At the first hit, offset ``j``, the state snapshot taken
    before the chunk is restored and exactly ``j + 1`` doubles are
    redrawn before the weight, so the stream never sees the discarded
    look-ahead.  Only the public ``Generator`` API is used, so this is
    exact for any bit generator.
    """
    bitgen = gen.bit_generator
    # About two expected gaps: most chunks hold a hit, and the redraw
    # after one stays short.
    chunk = _MAX_CHUNK if prob <= 0.0 else int(min(max(2.0 / prob, _MIN_CHUNK), _MAX_CHUNK))
    hits: list[int] = []
    weights: list[int] = []
    pos = 0
    while pos < length:
        c = min(chunk, length - pos)
        state = bitgen.state
        below = gen.random(c) < prob
        j = int(below.argmax())
        if not below[j]:
            pos += c
            continue
        bitgen.state = state
        gen.random(j + 1)
        hits.append(pos + j)
        weights.append(int(gen.integers(lo_c, hi_c + 1)))
        pos += j + 1
    return np.asarray(hits, dtype=np.int64), np.asarray(weights, dtype=np.int64)


def gnp_dag(
    num_tasks: int,
    edge_prob: float = 0.1,
    task_size_range: tuple[int, int] = (1, 10),
    comm_range: tuple[int, int] = (1, 10),
    rng: int | np.random.Generator | None = None,
    name: str | None = None,
) -> TaskGraph:
    """G(n, p) DAG: each forward pair (in a random order) is an edge w.p. ``p``.

    Isolated tasks are possible (and legitimate — independent jobs); use
    :func:`layered_random_dag` when connectivity is required.
    """
    if num_tasks < 1:
        raise GraphError("num_tasks must be >= 1")
    if not 0.0 <= edge_prob <= 1.0:
        raise GraphError("edge_prob must be in [0, 1]")
    gen = as_rng(rng)
    order = gen.permutation(num_tasks)
    lo_w, hi_w = task_size_range
    lo_c, hi_c = comm_range
    sizes = gen.integers(lo_w, hi_w + 1, size=num_tasks)
    edges = []
    for i in range(num_tasks):
        for j in range(i + 1, num_tasks):
            if gen.random() < edge_prob:
                edges.append(
                    (int(order[i]), int(order[j]), int(gen.integers(lo_c, hi_c + 1)))
                )
    return TaskGraph(sizes, edges, name=name or f"gnp-{num_tasks}")


def series_parallel_dag(
    depth: int,
    branching: int = 2,
    task_size_range: tuple[int, int] = (1, 10),
    comm_range: tuple[int, int] = (1, 10),
    rng: int | np.random.Generator | None = None,
    name: str | None = None,
) -> TaskGraph:
    """Recursive series-parallel DAG: fork ``branching`` ways, then join.

    ``depth`` levels of fork/join produce ``2 + branching * (size(depth-1))``
    tasks; at depth 0 a single task.  Models divide-and-conquer workloads
    with explicit join synchronization points.
    """
    if depth < 0 or branching < 1:
        raise GraphError("depth must be >= 0 and branching >= 1")
    gen = as_rng(rng)
    lo_w, hi_w = task_size_range
    lo_c, hi_c = comm_range

    sizes: list[int] = []
    edges: list[tuple[int, int, int]] = []

    def new_task() -> int:
        sizes.append(int(gen.integers(lo_w, hi_w + 1)))
        return len(sizes) - 1

    def weight() -> int:
        return int(gen.integers(lo_c, hi_c + 1))

    def build(d: int) -> tuple[int, int]:
        """Return (entry, exit) task ids of a depth-``d`` block."""
        if d == 0:
            t = new_task()
            return t, t
        fork = new_task()
        join = new_task()
        for _ in range(branching):
            entry, exit_ = build(d - 1)
            edges.append((fork, entry, weight()))
            edges.append((exit_, join, weight()))
        return fork, join

    build(depth)
    return TaskGraph(sizes, edges, name=name or f"sp-{depth}x{branching}")


def _layer_bounds(
    num_tasks: int, num_layers: int | None, gen: np.random.Generator
) -> np.ndarray:
    """Boundaries of non-empty consecutive layers: layer i is ``b[i]:b[i+1]``."""
    if num_layers is None:
        num_layers = max(1, int(round(num_tasks**0.5)))
    num_layers = min(num_layers, num_tasks)
    if num_layers < 1:
        raise GraphError("num_layers must be >= 1")
    # Random cut points give variable layer widths, min width 1.
    cuts = np.sort(gen.choice(np.arange(1, num_tasks), size=num_layers - 1, replace=False))
    return np.concatenate(([0], cuts, [num_tasks])).astype(np.int64)
