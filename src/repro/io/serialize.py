"""JSON (de)serialization of graphs, clusterings, and assignments.

Formats are versioned, human-readable, and round-trip exactly — the test
suite asserts equality after a save/load cycle.  Files are plain JSON so
instances can be archived alongside experiment outputs and re-run later.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..core.assignment import Assignment
from ..core.clustered import Clustering
from ..core.taskgraph import TaskGraph
from ..topology.base import SystemGraph
from ..utils import GraphError

__all__ = [
    "task_graph_to_dict",
    "task_graph_from_dict",
    "system_graph_to_dict",
    "system_graph_from_dict",
    "clustering_to_dict",
    "clustering_from_dict",
    "assignment_to_dict",
    "assignment_from_dict",
    "save_instance",
    "load_instance",
]

_FORMAT_VERSION = 1


def task_graph_to_dict(graph: TaskGraph) -> dict:
    """Portable dict form of a task graph (edge list, not the dense matrix)."""
    return {
        "version": _FORMAT_VERSION,
        "kind": "task_graph",
        "name": graph.name,
        "task_sizes": graph.task_sizes.tolist(),
        "edges": [[e.src, e.dst, e.weight] for e in graph.edges()],
    }


def task_graph_from_dict(data: dict) -> TaskGraph:
    _check(data, "task_graph")
    return TaskGraph(
        data["task_sizes"],
        [tuple(e) for e in data["edges"]],
        name=data.get("name", "taskgraph"),
    )


def system_graph_to_dict(system: SystemGraph) -> dict:
    """Edge list; a weighted machine adds ``[u, v, weight]`` link triples."""
    edges = system.edges()
    data = {
        "version": _FORMAT_VERSION,
        "kind": "system_graph",
        "name": system.name,
        "num_nodes": system.num_nodes,
        "edges": [list(e) for e in edges],
    }
    if system.is_weighted:
        data["link_weights"] = [[u, v, system.link_weight(u, v)] for u, v in edges]
    return data


def system_graph_from_dict(data: dict) -> SystemGraph:
    _check(data, "system_graph")
    n, name = data["num_nodes"], data.get("name", "system")
    system = SystemGraph.from_edges(n, [tuple(e) for e in data["edges"]], name=name)
    if "link_weights" not in data:
        return system
    weights = np.zeros_like(system.sys_edge)
    for u, v, w in data["link_weights"]:
        if not (0 <= u < n and 0 <= v < n and system.has_edge(u, v)):
            raise GraphError(f"link weight ({u}, {v}, {w}) is not on a link")
        weights[u, v] = w
    return SystemGraph(system.sys_edge, name=name, link_weights=weights)


def clustering_to_dict(clustering: Clustering) -> dict:
    return {
        "version": _FORMAT_VERSION,
        "kind": "clustering",
        "num_clusters": clustering.num_clusters,
        "labels": clustering.labels.tolist(),
    }


def clustering_from_dict(data: dict) -> Clustering:
    _check(data, "clustering")
    return Clustering(data["labels"], num_clusters=data["num_clusters"])


def assignment_to_dict(assignment: Assignment) -> dict:
    return {
        "version": _FORMAT_VERSION,
        "kind": "assignment",
        "assi": assignment.assi.tolist(),
    }


def assignment_from_dict(data: dict) -> Assignment:
    _check(data, "assignment")
    return Assignment(np.asarray(data["assi"], dtype=np.int64))


def save_instance(
    path: str | Path,
    graph: TaskGraph,
    system: SystemGraph,
    clustering: Clustering | None = None,
    assignment: Assignment | None = None,
) -> None:
    """Save a complete mapping instance (graph + machine [+ partition/map])."""
    payload: dict = {
        "version": _FORMAT_VERSION,
        "kind": "instance",
        "task_graph": task_graph_to_dict(graph),
        "system_graph": system_graph_to_dict(system),
    }
    if clustering is not None:
        payload["clustering"] = clustering_to_dict(clustering)
    if assignment is not None:
        payload["assignment"] = assignment_to_dict(assignment)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_instance(
    path: str | Path,
) -> tuple[TaskGraph, SystemGraph, Clustering | None, Assignment | None]:
    """Inverse of :func:`save_instance`."""
    data = json.loads(Path(path).read_text())
    _check(data, "instance")
    graph = task_graph_from_dict(data["task_graph"])
    system = system_graph_from_dict(data["system_graph"])
    clustering = (
        clustering_from_dict(data["clustering"]) if "clustering" in data else None
    )
    assignment = (
        assignment_from_dict(data["assignment"]) if "assignment" in data else None
    )
    return graph, system, clustering, assignment


def _check(data: dict, kind: str) -> None:
    if not isinstance(data, dict) or data.get("kind") != kind:
        raise GraphError(f"expected a serialized {kind!r}, got {data.get('kind')!r}")
    version = data.get("version")
    if version != _FORMAT_VERSION:
        raise GraphError(
            f"unsupported {kind} format version {version!r} "
            f"(this library reads version {_FORMAT_VERSION})"
        )
