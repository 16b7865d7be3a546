"""Clusterings and the clustered problem graph.

The paper's first scheduling step groups the ``np`` problem nodes into
``na`` clusters (``na == ns``) and *removes the communication weight* of
every edge whose endpoints fall in the same cluster — precedence is kept,
cost becomes zero (Sec. 1, Sec. 2.1, Fig. 3).  The result is the
*clustered problem graph* ``Gc`` with edge matrix ``clus_edge`` (Fig. 19-a)
and cluster membership table ``clus_pnode`` (Fig. 19-b).

:class:`Clustering` is a plain partition (cluster id per task);
:class:`ClusteredGraph` binds a :class:`~repro.core.taskgraph.TaskGraph`
to a :class:`Clustering` and exposes the derived matrices.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..utils import GraphError
from .taskgraph import _DENSE_LIMIT, TaskGraph

__all__ = ["Clustering", "ClusteredGraph"]


class Clustering:
    """A partition of tasks ``0..np-1`` into clusters ``0..na-1``.

    Parameters
    ----------
    labels:
        ``labels[task] = cluster`` for every task.  Every cluster id in
        ``0..num_clusters-1`` must be used at least once (the mapping stage
        requires a bijection between clusters and processors, so empty
        clusters would waste a processor; callers that want empty clusters
        can renumber).
    num_clusters:
        Total cluster count ``na``.  Defaults to ``max(labels) + 1``.
    """

    def __init__(
        self, labels: Sequence[int] | np.ndarray, num_clusters: int | None = None
    ) -> None:
        arr = np.asarray(labels, dtype=np.int64).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise GraphError("labels must be a non-empty 1-D sequence")
        if (arr < 0).any():
            raise GraphError("cluster labels must be non-negative")
        na = int(arr.max()) + 1 if num_clusters is None else int(num_clusters)
        if (arr >= na).any():
            raise GraphError(f"label {int(arr.max())} out of range for {na} clusters")
        used = np.bincount(arr, minlength=na)
        if (used == 0).any():
            empty = int(np.argmax(used == 0))
            raise GraphError(
                f"cluster {empty} is empty; every cluster must hold at least one task"
            )
        self._labels = arr
        self._na = na
        # Per-cluster member lists, ascending: one stable argsort + split
        # instead of na full scans (the difference between O(n log n) and
        # O(na * n) at 100k tasks x 1k clusters).
        order = np.argsort(arr, kind="stable").astype(np.int64)
        bounds = np.cumsum(used)[:-1]
        self._members: list[np.ndarray] = np.split(order, bounds)

    @property
    def num_tasks(self) -> int:
        return self._labels.size

    @property
    def num_clusters(self) -> int:
        """Number of clusters, the paper's ``na``."""
        return self._na

    @property
    def labels(self) -> np.ndarray:
        """Cluster id per task (read-only view)."""
        view = self._labels.view()
        view.flags.writeable = False
        return view

    def cluster_of(self, task: int) -> int:
        return int(self._labels[task])

    def members(self, cluster: int) -> np.ndarray:
        """Tasks in ``cluster``, ascending (a row of the paper's ``clus_pnode``)."""
        return self._members[cluster]

    def sizes(self) -> np.ndarray:
        """Number of tasks per cluster."""
        return np.asarray([m.size for m in self._members], dtype=np.int64)

    def load(self, graph: TaskGraph) -> np.ndarray:
        """Total task work per cluster under ``graph``'s task sizes."""
        return np.bincount(
            self._labels, weights=graph.task_sizes, minlength=self._na
        ).astype(np.int64)

    def clus_pnode(self) -> np.ndarray:
        """The paper's cluster matrix ``clus_pnode[na][np]`` (Fig. 19-b).

        Row ``c`` lists the member tasks of cluster ``c`` left-justified and
        padded with ``-1`` (the paper pads with blanks).
        """
        out = np.full((self._na, self.num_tasks), -1, dtype=np.int64)
        for c, mem in enumerate(self._members):
            out[c, : mem.size] = mem
        return out

    @classmethod
    def from_groups(
        cls, groups: Iterable[Iterable[int]], num_tasks: int | None = None
    ) -> "Clustering":
        """Build from an iterable of clusters, each an iterable of task ids."""
        group_list = [list(g) for g in groups]
        flat = [t for g in group_list for t in g]
        if not flat:
            raise GraphError("at least one non-empty group is required")
        n = (max(flat) + 1) if num_tasks is None else num_tasks
        if sorted(flat) != list(range(n)):
            raise GraphError("groups must partition tasks 0..n-1 exactly once each")
        labels = np.empty(n, dtype=np.int64)
        for c, g in enumerate(group_list):
            for t in g:
                labels[t] = c
        return cls(labels, num_clusters=len(group_list))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Clustering):
            return NotImplemented
        return self._na == other._na and np.array_equal(self._labels, other._labels)

    def __hash__(self) -> int:  # pragma: no cover
        return id(self)

    def __repr__(self) -> str:
        return f"Clustering(tasks={self.num_tasks}, clusters={self._na})"


class ClusteredGraph:
    """A task graph together with a clustering (the paper's ``Gc``).

    The clustered weights (inter-cluster weights kept, intra-cluster ones
    zeroed) are stored per edge of the parent graph, so every edge keeps
    its precedence (Sec. 4.1 discusses exactly this trap: task 4's
    predecessor is only visible in ``prob_edge``).  :attr:`clus_edge` is
    the dense Fig. 19-a form.
    """

    def __init__(self, graph: TaskGraph, clustering: Clustering) -> None:
        if clustering.num_tasks != graph.num_tasks:
            raise GraphError(
                f"clustering covers {clustering.num_tasks} tasks but the graph "
                f"has {graph.num_tasks}"
            )
        self._graph = graph
        self._clustering = clustering
        labels = clustering.labels
        # Clustered weights stay in the graph's CSR edge layout: the weight
        # where the endpoints' clusters differ, zero where they match.  The
        # dense Fig. 19-a matrix is derived lazily for small instances only.
        srcs, dsts, w = graph.edge_arrays()
        self._cross_out_w = np.where(labels[srcs] != labels[dsts], w, 0)
        self._cross_out_w.flags.writeable = False
        in_srcs, in_dsts, in_w = graph.in_edge_arrays()
        self._cross_in_w = np.where(labels[in_srcs] != labels[in_dsts], in_w, 0)
        self._cross_in_w.flags.writeable = False
        self._cut = int(self._cross_out_w.sum())
        self._clus_dense: np.ndarray | None = None
        self._plan_w: np.ndarray | None = None

    @property
    def graph(self) -> TaskGraph:
        return self._graph

    @property
    def clustering(self) -> Clustering:
        return self._clustering

    @property
    def num_tasks(self) -> int:
        return self._graph.num_tasks

    @property
    def num_clusters(self) -> int:
        return self._clustering.num_clusters

    @property
    def clus_edge(self) -> np.ndarray:
        """Clustered problem edge matrix (read-only view).

        Dense Fig. 19-a form, materialized lazily; subject to the same
        size guard as :attr:`TaskGraph.prob_edge`.  Scale-path consumers
        use :attr:`cross_out_weights` / :attr:`cross_in_weights`, which
        stay aligned with the graph's CSR edge arrays.
        """
        if self._clus_dense is None:
            n = self.num_tasks
            if n > _DENSE_LIMIT:
                gib = n * n * 8 / 2**30
                raise GraphError(
                    f"dense clus_edge for {n} tasks (limit {_DENSE_LIMIT}) would "
                    f"allocate ~{gib:.0f} GiB; use cross_out_weights / cross_in_weights"
                )
            srcs, dsts, _ = self._graph.edge_arrays()
            mat = np.zeros((n, n), dtype=np.int64)
            mat[srcs, dsts] = self._cross_out_w
            self._clus_dense = mat
        view = self._clus_dense.view()
        view.flags.writeable = False
        return view

    @property
    def cross_out_weights(self) -> np.ndarray:
        """Clustered weight per edge, aligned with ``graph.edge_arrays()``
        (zero for intra-cluster edges; read-only)."""
        return self._cross_out_w

    @property
    def cross_in_weights(self) -> np.ndarray:
        """Clustered weight per edge, aligned with ``graph.in_edge_arrays()``
        (zero for intra-cluster edges; read-only)."""
        return self._cross_in_w

    def plan_weights(self) -> np.ndarray:
        """Clustered weight per edge in schedule-plan order (cached).

        Aligned with ``graph.schedule_plan().src/dst`` — the per-edge
        weight array the vectorized schedule sweeps consume.
        """
        if self._plan_w is None:
            plan = self._graph.schedule_plan()
            w = self._cross_in_w[plan.eperm]
            w.flags.writeable = False
            self._plan_w = w
        return self._plan_w

    @property
    def prob_edge(self) -> np.ndarray:
        return self._graph.prob_edge

    @property
    def task_sizes(self) -> np.ndarray:
        return self._graph.task_sizes

    def cluster_of(self, task: int) -> int:
        return self._clustering.cluster_of(task)

    def comm_weight(self, src: int, dst: int) -> int:
        """Clustered communication weight of ``src -> dst`` (0 if intra-cluster)."""
        i = self._graph.edge_index(src, dst)
        return int(self._cross_out_w[i]) if i >= 0 else 0

    def cut_weight(self) -> int:
        """Total inter-cluster communication weight (the clustering's cut)."""
        return self._cut

    def internal_weight(self) -> int:
        """Total communication weight absorbed inside clusters."""
        return self._graph.total_comm - self.cut_weight()

    def __repr__(self) -> str:
        return (
            f"ClusteredGraph(tasks={self.num_tasks}, clusters={self.num_clusters}, "
            f"cut={self.cut_weight()})"
        )
