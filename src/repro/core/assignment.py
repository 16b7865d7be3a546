"""Assignments: the bijection between abstract nodes and system nodes.

Paper Sec. 3.7: the assignment matrix ``assi[ns]`` stores, for each system
node, the id of the abstract node (cluster) mapped onto it (Fig. 23-a/b).
Because ``na == ns`` and clusters may not share processors, an assignment
is a permutation.

We keep the paper's orientation (``assi[system] = cluster``) as the
canonical array and provide the inverse (``placement[cluster] = system``)
because most algorithms index by cluster.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..utils import MappingError, check_permutation

__all__ = ["Assignment"]


class Assignment:
    """A bijection clusters <-> processors.

    Parameters
    ----------
    assi:
        ``assi[system_node] = cluster`` — the paper's orientation.  Must be
        a permutation of ``0..n-1``.
    """

    def __init__(self, assi: Sequence[int] | np.ndarray) -> None:
        arr = np.asarray(assi, dtype=np.int64)
        self._assi = check_permutation(arr, arr.size).copy()
        inv = np.empty_like(self._assi)
        inv[self._assi] = np.arange(self._assi.size)
        self._placement = inv
        self._assi.flags.writeable = False
        self._placement.flags.writeable = False

    # ------------------------------------------------------------------
    @classmethod
    def from_placement(cls, placement: Sequence[int] | np.ndarray) -> "Assignment":
        """Build from the inverse orientation ``placement[cluster] = system``."""
        arr = np.asarray(placement, dtype=np.int64)
        arr = check_permutation(arr, arr.size)
        assi = np.empty_like(arr)
        assi[arr] = np.arange(arr.size)
        return cls(assi)

    @classmethod
    def identity(cls, n: int) -> "Assignment":
        """Cluster ``i`` on system node ``i``."""
        return cls(np.arange(n))

    @classmethod
    def random(
        cls, n: int, rng: int | np.random.Generator | None = None
    ) -> "Assignment":
        """A uniformly random assignment (the paper's comparison baseline)."""
        from ..utils import as_rng

        return cls(as_rng(rng).permutation(n))

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self._assi.size

    @property
    def assi(self) -> np.ndarray:
        """``assi[system] = cluster`` (read-only), the paper's Fig. 23-b."""
        return self._assi

    @property
    def placement(self) -> np.ndarray:
        """``placement[cluster] = system`` (read-only)."""
        return self._placement

    def system_of(self, cluster: int) -> int:
        return int(self._placement[cluster])

    def cluster_on(self, system_node: int) -> int:
        return int(self._assi[system_node])

    def swapped(self, cluster_a: int, cluster_b: int) -> "Assignment":
        """New assignment with two clusters' processors exchanged."""
        if cluster_a == cluster_b:
            raise MappingError("cannot swap a cluster with itself")
        p = self._placement.copy()
        p[cluster_a], p[cluster_b] = p[cluster_b], p[cluster_a]
        return Assignment.from_placement(p)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return np.array_equal(self._assi, other._assi)

    def __hash__(self) -> int:
        """In-process-only hash (dict/set membership within one interpreter).

        Builtin ``hash()`` of bytes depends on ``PYTHONHASHSEED``, so this
        value must never be persisted or used as a cache/store key.
        Durable identity is the SHA-256 canonical-JSON fingerprint
        (:mod:`repro.service.fingerprint`), which never calls ``hash()``.
        """
        # repro: allow[det_builtin_hash] - in-process dict/set membership only
        return hash(self._assi.tobytes())

    def __repr__(self) -> str:
        return f"Assignment(assi={self._assi.tolist()})"

