"""The abstract graph: clusters as single nodes, collapsed edges.

Paper Sec. 2.1 (Fig. 4) and Sec. 3.3: every cluster becomes one *abstract
node*; all clustered problem edges between the same pair of clusters
collapse into one *abstract edge*.  Two matrices describe it:

* ``abs_edge[na][na]`` — 0/1 adjacency of abstract nodes (Fig. 20-a);
* ``mca[na]`` — *communication intensity*: for each abstract node, the sum
  of the weights of all clustered problem edges touching it (Fig. 20-c).
  ``mca`` drives phase 3 of the initial assignment.

The collapsed *weights* (total clustered weight per cluster pair) are also
kept because baselines (Bokhari, Lee) and diagnostics want them; the
paper's own mapper only needs adjacency plus the *critical* abstract
weights computed in :mod:`repro.core.critical`.
"""

from __future__ import annotations

import numpy as np

from .clustered import ClusteredGraph

__all__ = ["AbstractGraph"]


class AbstractGraph:
    """Clusters-as-nodes view of a :class:`~repro.core.clustered.ClusteredGraph`."""

    def __init__(self, clustered: ClusteredGraph) -> None:
        self._clustered = clustered
        na = clustered.num_clusters
        labels = clustered.clustering.labels

        # Aggregate task-level clustered weights up to cluster pairs.  The
        # direction of problem edges is irrelevant at this level (the paper's
        # abstract graph is undirected), so accumulate both orientations.
        # One scattered add over the graph's CSR edge arrays into the flat
        # cluster-pair index — no dense task-pair matrix is ever touched,
        # and intra-cluster edges weigh 0, so they leave the diagonal 0.
        srcs, dsts, _ = clustered.graph.edge_arrays()
        acc = np.zeros(na * na, dtype=np.int64)
        np.add.at(acc, labels[srcs] * na + labels[dsts], clustered.cross_out_weights)
        acc = acc.reshape(na, na)
        weights = acc + acc.T
        self._weights = weights
        self._abs_edge = (weights > 0).astype(np.int64)
        self._mca = weights.sum(axis=1).astype(np.int64)

    @property
    def clustered(self) -> ClusteredGraph:
        return self._clustered

    @property
    def num_nodes(self) -> int:
        """Number of abstract nodes, the paper's ``na``."""
        return self._clustered.num_clusters

    @property
    def abs_edge(self) -> np.ndarray:
        """0/1 abstract adjacency matrix (read-only view), Fig. 20-a."""
        view = self._abs_edge.view()
        view.flags.writeable = False
        return view

    @property
    def weights(self) -> np.ndarray:
        """Symmetric total clustered weight per cluster pair (read-only view)."""
        view = self._weights.view()
        view.flags.writeable = False
        return view

    @property
    def mca(self) -> np.ndarray:
        """Communication intensity per abstract node (read-only view), Fig. 20-c."""
        view = self._mca.view()
        view.flags.writeable = False
        return view

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self._abs_edge[a, b])

    def neighbors(self, node: int) -> np.ndarray:
        """Abstract nodes adjacent to ``node``."""
        return np.flatnonzero(self._abs_edge[node])

    def num_edges(self) -> int:
        """Number of undirected abstract edges."""
        return int(np.triu(self._abs_edge, 1).sum())

    def __repr__(self) -> str:
        return f"AbstractGraph(nodes={self.num_nodes}, edges={self.num_edges()})"
