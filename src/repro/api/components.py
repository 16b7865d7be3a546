"""The clusterer, workload, and topology registries.

These three :class:`~repro.api.registry.Registry` instances make every
axis of a mapping experiment addressable by name, exactly like the
mapper axis:

* **clusterers** — ``get_clusterer("dsc", num_clusters=8)`` wraps the
  classes in :mod:`repro.clustering`;
* **workloads** — ``get_workload("fft")(points_log2=4)`` wraps the task
  graph generators in :mod:`repro.workloads` (build with
  :func:`build_workload` to thread an ``rng`` uniformly);
* **topologies** — ``build_topology("torus2d:4x4")`` parses one
  ``family:args`` spec grammar shared by the CLI (``--topology F --size
  K`` is the spec ``F:K``), scenarios, and sweeps.

Registered generators keep their original signatures — the registries
wrap them, they do not replace them.  Deterministic generators silently
accept (and ignore) the uniform ``rng`` keyword so callers never need to
special-case stochastic vs. deterministic components.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Mapping

import numpy as np

from ..clustering import (
    BandClusterer,
    BlockClusterer,
    Clusterer,
    DscClusterer,
    EdgeZeroClusterer,
    LinearClusterer,
    LoadBalanceClusterer,
    RandomClusterer,
    RoundRobinClusterer,
)
from ..core.taskgraph import TaskGraph
from ..topology import generators as topo
from ..topology.base import SystemGraph
from ..workloads import (
    broadcast_tree,
    cholesky_dag,
    diamond_lattice,
    divide_conquer_dag,
    fft_dag,
    fork_join_dag,
    gaussian_elimination_dag,
    gnp_dag,
    layered_random_dag,
    lu_dag,
    map_reduce_dag,
    pipeline_dag,
    reduction_tree,
    series_parallel_dag,
    stencil_sweep_dag,
    triangular_solve_dag,
    wavefront_dag,
)
from .registry import Registry, UnknownComponentError

__all__ = [
    "CLUSTERERS",
    "WORKLOADS",
    "TOPOLOGIES",
    "available_clusterers",
    "available_workloads",
    "available_topologies",
    "get_clusterer",
    "get_workload",
    "build_workload",
    "build_topology",
    "parse_topology_spec",
    "register_clusterer",
    "register_workload",
    "register_topology",
    "registry_listing",
]

#: The clustering axis: names -> Clusterer subclasses.
CLUSTERERS = Registry("clusterer")

#: The workload axis: names -> task-graph generator callables.
WORKLOADS = Registry("workload")

#: The topology axis: family names -> system-graph builder callables.
TOPOLOGIES = Registry("topology")


def register_clusterer(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a :class:`~repro.clustering.Clusterer` factory under ``name``."""
    return CLUSTERERS.register(name)


def register_workload(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a task-graph generator under ``name``.

    The generator is wrapped so it uniformly accepts an ``rng`` keyword
    (ignored when the underlying generator is deterministic).
    """

    def decorate(func: Callable[..., TaskGraph]) -> Callable[..., TaskGraph]:
        WORKLOADS.register(name)(_with_uniform_rng(func))
        return func

    return decorate


def register_topology(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a system-graph builder under ``name`` (see :func:`build_topology`)."""

    def decorate(func: Callable[..., SystemGraph]) -> Callable[..., SystemGraph]:
        TOPOLOGIES.register(name)(_with_uniform_rng(func))
        return func

    return decorate


def available_clusterers() -> list[str]:
    """Sorted names of every registered clusterer."""
    return CLUSTERERS.available()


def available_workloads() -> list[str]:
    """Sorted names of every registered workload generator."""
    return WORKLOADS.available()


def available_topologies() -> list[str]:
    """Sorted names of every registered topology family."""
    return TOPOLOGIES.available()


def registry_listing(kind: str) -> dict[str, object]:
    """Machine-readable listing of one registry, by plural kind name.

    The single serialization behind both ``mimdmap list --json`` and the
    service's ``GET /registries/<kind>`` endpoint, so scripts and HTTP
    clients see identical shapes::

        {"kind": "mappers", "count": 8, "names": ["annealing", ...]}
    """
    from ..lint import RULES
    from ..metrics import METRICS
    from .registry import MAPPERS

    registries = {
        "mappers": MAPPERS,
        "clusterers": CLUSTERERS,
        "workloads": WORKLOADS,
        "topologies": TOPOLOGIES,
        "metrics": METRICS,
        "rules": RULES,
    }
    if kind not in registries:
        raise UnknownComponentError(
            f"unknown registry {kind!r}; "
            f"available: {', '.join(sorted(registries))}"
        )
    names = registries[kind].available()
    return {"kind": kind, "count": len(names), "names": names}


def get_clusterer(name: str, num_clusters: int, **params: object) -> Clusterer:
    """Instantiate the clusterer registered under ``name``."""
    return CLUSTERERS.get(name, num_clusters=num_clusters, **params)


def get_workload(name: str) -> Callable[..., TaskGraph]:
    """The workload generator registered under ``name`` (rng-uniform wrapper)."""
    return WORKLOADS.factory(name)


def build_workload(
    name: str,
    params: Mapping[str, object] | None = None,
    rng: int | np.random.Generator | None = None,
) -> TaskGraph:
    """Build one task graph from a registered generator.

    ``rng`` seeds stochastic generators and is ignored by deterministic
    ones, so sweep code can thread seeds without special-casing.
    """
    return get_workload(name)(**dict(params or {}), rng=rng)


def parse_topology_spec(spec: str) -> tuple[str, tuple[int, ...]]:
    """Split a ``family[:NxM...]`` topology spec into (family, int args).

    Examples: ``"hypercube:3"`` -> ``("hypercube", (3,))``,
    ``"torus2d:4x4"`` -> ``("torus2d", (4, 4))``, ``"petersen"`` ->
    ``("petersen", ())``.  The family must be a registered topology;
    malformed argument lists raise :class:`UnknownComponentError`-adjacent
    registry errors that name the bad spec.
    """
    family, _, arg_part = spec.strip().partition(":")
    family = family.strip()
    if family not in TOPOLOGIES:
        raise UnknownComponentError(
            f"unknown topology {family!r} (in spec {spec!r}); "
            f"{TOPOLOGIES.suggest(family)}"
        )
    args: tuple[int, ...] = ()
    if arg_part:
        try:
            args = tuple(int(a) for a in arg_part.split("x"))
        except ValueError:
            raise UnknownComponentError(
                f"topology spec {spec!r} has malformed arguments {arg_part!r}; "
                "expected integers separated by 'x', e.g. 'torus2d:4x4'"
            ) from None
    return family, args


def build_topology(
    spec: str, rng: int | np.random.Generator | None = None
) -> SystemGraph:
    """Build one system graph from a ``family:args`` spec string.

    ``"hypercube:3"`` is an 8-node cube, ``"torus2d:4x4"`` a 16-node
    torus, ``"random:8"`` a seeded random connected topology (``rng``
    feeds the stochastic families and is ignored elsewhere).
    """
    family, args = parse_topology_spec(spec)
    builder = TOPOLOGIES.factory(family)
    try:
        return builder(*args, rng=rng)
    except TypeError:
        raise UnknownComponentError(
            f"topology spec {spec!r} has the wrong number of arguments "
            f"for family {family!r}"
        ) from None


def _with_uniform_rng(func: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap a generator so it accepts ``rng`` whether or not it uses it."""
    if "rng" in inspect.signature(func).parameters:
        return func

    @functools.wraps(func)
    def build(*args: object, rng: object = None, **kwargs: object) -> Any:
        return func(*args, **kwargs)

    return build


# --- built-in clusterer registrations ---------------------------------------

CLUSTERERS.register("random")(RandomClusterer)
CLUSTERERS.register("round_robin")(RoundRobinClusterer)
CLUSTERERS.register("block")(BlockClusterer)
CLUSTERERS.register("band")(BandClusterer)
CLUSTERERS.register("load_balance")(LoadBalanceClusterer)
CLUSTERERS.register("linear")(LinearClusterer)
CLUSTERERS.register("edge_zero")(EdgeZeroClusterer)
CLUSTERERS.register("dsc")(DscClusterer)

# --- built-in workload registrations ----------------------------------------

for _name, _gen in {
    "layered_random": layered_random_dag,
    "gnp": gnp_dag,
    "series_parallel": series_parallel_dag,
    "fft": fft_dag,
    "fork_join": fork_join_dag,
    "divide_conquer": divide_conquer_dag,
    "pipeline": pipeline_dag,
    "map_reduce": map_reduce_dag,
    "stencil": stencil_sweep_dag,
    "gaussian": gaussian_elimination_dag,
    "cholesky": cholesky_dag,
    "lu": lu_dag,
    "triangular_solve": triangular_solve_dag,
    "wavefront": wavefront_dag,
    "reduction_tree": reduction_tree,
    "broadcast_tree": broadcast_tree,
    "diamond": diamond_lattice,
}.items():
    WORKLOADS.register(_name)(_with_uniform_rng(_gen))

# --- built-in topology registrations ----------------------------------------

for _name, _gen in {
    "hypercube": topo.hypercube,
    "mesh": topo.squarest_mesh,
    "mesh2d": topo.mesh2d,
    "mesh3d": topo.mesh3d,
    "torus": topo.squarest_torus,
    "torus2d": topo.torus2d,
    "torus3d": topo.torus3d,
    "ring": topo.ring,
    "chain": topo.chain,
    "star": topo.star,
    "complete": topo.complete,
    "kbipartite": topo.complete_bipartite,
    "btree": topo.binary_tree,
    "ccc": topo.cube_connected_cycles,
    "debruijn": topo.de_bruijn,
    "kautz": topo.kautz,
    "butterfly": topo.butterfly,
    "chordal": topo.chordal_ring,
    "petersen": topo.petersen,
    "random": topo.random_connected,
    "regular": topo.random_regular,
}.items():
    TOPOLOGIES.register(_name)(_with_uniform_rng(_gen))
