"""Shared utilities: validation errors, RNG handling, small helpers.

The whole library follows a few conventions that these helpers enforce:

* All randomized entry points accept ``rng`` as either ``None`` (fresh
  default generator), an ``int`` seed, or a ``numpy.random.Generator``,
  and normalize it through :func:`as_rng`.  Experiments are therefore
  reproducible end to end by threading a single seed.
* Weight matrices are dense ``numpy`` arrays of dtype ``int64`` (the paper
  measures everything in integer time units); :func:`as_weight_matrix`
  normalizes user input.
* Structural problems raise :class:`GraphError` / :class:`MappingError`
  rather than generic ``ValueError`` so callers can distinguish bad input
  from library bugs.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "GraphError",
    "MappingError",
    "as_rng",
    "as_weight_matrix",
    "check_square",
    "check_permutation",
    "Stopwatch",
    "pairs",
]


class GraphError(ValueError):
    """A graph (task graph, clustering, topology, ...) is structurally invalid."""


class MappingError(ValueError):
    """An assignment or mapping request is invalid for the given graphs."""


def as_rng(rng: int | np.random.Generator | None = None) -> np.random.Generator:
    """Normalize ``rng`` to a :class:`numpy.random.Generator`.

    ``None`` gives a fresh nondeterministic generator, an ``int`` seeds a new
    generator, and an existing generator is passed through unchanged.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"rng must be None, int, or numpy Generator, got {type(rng)!r}")


def as_weight_matrix(data: object, n: int | None = None) -> np.ndarray:
    """Coerce ``data`` to a square ``int64`` weight matrix.

    Accepts nested sequences, numpy arrays, or dict-of-dicts
    ``{i: {j: w}}``.  Validates squareness, non-negativity, and (when ``n``
    is given) the expected size.
    """
    if isinstance(data, dict):
        if n is None:
            size = 0
            for i, row in data.items():
                size = max(size, int(i) + 1)
                for j in row:
                    size = max(size, int(j) + 1)
            n = size
        mat = np.zeros((n, n), dtype=np.int64)
        for i, row in data.items():
            for j, w in row.items():
                mat[int(i), int(j)] = int(w)
    else:
        mat = np.asarray(data, dtype=np.int64).copy()
    check_square(mat, n)
    if (mat < 0).any():
        raise GraphError("edge weights must be non-negative")
    return mat


def check_square(mat: np.ndarray, n: int | None = None) -> None:
    """Raise :class:`GraphError` unless ``mat`` is square (and ``n`` x ``n``)."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise GraphError(f"expected a square matrix, got shape {mat.shape}")
    if n is not None and mat.shape[0] != n:
        raise GraphError(f"expected a {n}x{n} matrix, got {mat.shape[0]}x{mat.shape[0]}")


def check_permutation(perm: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    """Validate that ``perm`` is a permutation of ``0..n-1``; return it as an array."""
    arr = np.asarray(perm, dtype=np.int64)
    if arr.shape != (n,):
        raise MappingError(f"expected a permutation of length {n}, got shape {arr.shape}")
    if not np.array_equal(np.sort(arr), np.arange(n)):
        raise MappingError(f"not a permutation of 0..{n - 1}: {arr.tolist()}")
    return arr


class Stopwatch:
    """Tiny wall-clock stopwatch used by the experiment harness.

    >>> with Stopwatch() as sw:
    ...     _ = sum(range(10))
    >>> sw.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed = time.perf_counter() - self._start


def pairs(items: Iterable[int]) -> Iterable[tuple[int, int]]:
    """Yield all unordered pairs ``(a, b)`` with ``a < b`` from ``items``."""
    seq = list(items)
    for idx, a in enumerate(seq):
        for b in seq[idx + 1 :]:
            yield (a, b)


def _expand(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], ends[i])`` for all i, vectorized."""
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    rep_ends = np.repeat(np.cumsum(counts), counts)
    return (
        np.arange(total, dtype=np.int64)
        - rep_ends
        + np.repeat(counts, counts)
        + np.repeat(starts, counts)
    )
