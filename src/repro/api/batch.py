"""Batch engine: fan problem instances across mappers, optionally in parallel.

Two entry points:

* :func:`solve_many` — one mapper over a list of instances;
* :func:`compare` — every (or a chosen subset of) registered mapper over
  one instance, the head-to-head the paper's Sec. 5 tables are built on.

Both derive one independent seed per (instance, mapper) work item from a
single base seed via :class:`numpy.random.SeedSequence`, so results are
bit-identical whether the batch runs serially or on a process pool, and
regardless of worker count or completion order.  Parallelism runs on
process workers (the schedule evaluation is CPU-bound numpy work that
holds the GIL) owned by the *default* :class:`repro.service.MappingService`
— one persistent pool shared by every batch in the process, so repeated
calls pay pool startup once instead of per call.  Batches that cannot
actually go parallel (``max_workers=1``, a single work item, or the
``max_workers=None`` default on a single-CPU host) run inline and never
touch a pool at all; an *explicit* ``max_workers > 1`` is honored as
given.
"""

from __future__ import annotations

import os
import zlib
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Any
from dataclasses import dataclass

import numpy as np

from ..core.clustered import ClusteredGraph
from ..topology.base import SystemGraph
from ..utils import MappingError
from .outcome import MapOutcome
from .registry import Mapper, get_mapper, parse_choice

__all__ = [
    "ProblemInstance",
    "compare",
    "derive_seed",
    "iter_item_outcomes",
    "params_tag",
    "solve_many",
]


@dataclass(frozen=True)
class ProblemInstance:
    """One mapping problem: a clustered graph bound to a target machine."""

    clustered: ClusteredGraph
    system: SystemGraph
    name: str = ""

    def __post_init__(self) -> None:
        if self.clustered.num_clusters != self.system.num_nodes:
            raise MappingError(
                f"instance {self.name!r}: {self.clustered.num_clusters} clusters "
                f"cannot map onto {self.system.num_nodes} system nodes"
            )


def derive_seed(
    base_seed: int, index: int, mapper: str, params_tag: int = 0
) -> int:
    """Deterministic per-work-item seed.

    Mixes the batch's base seed, the work-item index, the mapper name,
    and (when non-zero) a fingerprint of the mapper's constructor
    parameters through a :class:`numpy.random.SeedSequence`, giving
    statistically independent streams that do not depend on execution
    order.  Work items are therefore keyed by (mapper, params, instance):
    the same mapper name under different parameters — or the same
    configuration at a different batch slot — draws a different stream.
    """
    tag = zlib.crc32(mapper.encode("utf-8"))
    entropy = [int(base_seed), int(index), tag]
    if params_tag:
        entropy.append(int(params_tag))
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def params_tag(params: Mapping[str, object]) -> int:
    """Stable non-zero fingerprint of mapper parameters (0 for none)."""
    if not params:
        return 0
    blob = repr(sorted(params.items())).encode("utf-8")
    return zlib.crc32(blob) or 1


@dataclass(frozen=True)
class _WorkItem:
    """Everything a worker process needs to run one mapper on one instance.

    The mapper *instance* travels in the item (the protocol requires
    mappers to be picklable), so custom mappers registered at runtime
    work on any multiprocessing start method — workers never need to
    re-resolve registry names.
    """

    index: int
    instance: ProblemInstance
    mapper: Mapper
    seed: int = 0


def _solve_item(item: _WorkItem) -> MapOutcome:
    return item.mapper.map(item.instance.clustered, item.instance.system, rng=item.seed)


def iter_item_outcomes(
    items: Sequence[Any],
    max_workers: int | None,
    solve: Callable[[Any], MapOutcome] = _solve_item,
    service: Any = None,
) -> Iterator[tuple[object, MapOutcome]]:
    """Yield ``(item, solve(item))`` pairs as work completes.

    The serial path yields in input order; the process-pool path yields
    in completion order, which is what lets sweeps stream results to
    disk while slower instances are still running.  Each item's outcome
    depends only on the item itself, so completion order never changes
    any result.

    The serial path is taken whenever the batch cannot actually go
    parallel — ``max_workers == 1``, a single item, or the
    ``max_workers=None`` default on a single-CPU host — and runs
    entirely inline: no process pool is created or contacted (an
    explicit ``max_workers > 1`` request is honored as given).
    Parallel batches run on the persistent pool of
    ``service`` (default: :func:`repro.service.default_service`), which
    survives between calls; at most ``max_workers`` items are in flight
    at once even though the shared pool may be larger.

    ``solve`` defaults to running a prepared :class:`_WorkItem`; callers
    with cheaper-to-ship work units (the scenario sweep sends specs and
    builds instances worker-side) pass their own module-level function
    (it must be picklable, like the items).
    """
    if max_workers is not None and max_workers < 1:
        raise MappingError(f"max_workers must be >= 1, got {max_workers}")
    workers = min(max_workers or os.cpu_count() or 1, len(items))
    if workers <= 1:
        for item in items:
            yield item, solve(item)
        return
    if service is None:
        from ..service import default_service

        service = default_service()
    yield from service.run_on_pool(items, solve, max_workers=workers)


def _run_items(items: Sequence[_WorkItem], max_workers: int | None) -> list[MapOutcome]:
    # Callers construct items with index == position, so completion order
    # can be folded back into input order directly.
    outcomes: list[MapOutcome | None] = [None] * len(items)
    for item, outcome in iter_item_outcomes(items, max_workers):
        outcomes[item.index] = outcome
    return outcomes


def solve_many(
    instances: Iterable[ProblemInstance | tuple[ClusteredGraph, SystemGraph]],
    mapper: str | Mapper = "critical",
    *,
    seed: int | None = 0,
    max_workers: int | None = 1,
    **params: object,
) -> list[MapOutcome]:
    """Run one mapper over many instances; results keep input order.

    Parameters
    ----------
    instances:
        :class:`ProblemInstance` objects or bare ``(clustered, system)``
        pairs.
    mapper:
        A registry name, or an already-built (picklable) :class:`Mapper`.
    seed:
        Base seed; each instance gets its own derived seed (see
        :func:`derive_seed`).  ``None`` draws a fresh nondeterministic
        base seed.
    max_workers:
        ``1`` (default) runs serially in-process; larger values use a
        process pool.  ``None`` uses one worker per CPU (never more than
        one per instance).
    params:
        Forwarded to the mapper factory, identically for every instance
        (only valid with a mapper *name*).

    >>> from repro.api import solve_many
    >>> from repro.core import ClusteredGraph
    >>> from repro.workloads import layered_random_dag
    >>> from repro.clustering import RandomClusterer
    >>> from repro.topology import hypercube
    >>> g = layered_random_dag(num_tasks=20, rng=1)
    >>> c = RandomClusterer(num_clusters=4).cluster(g, rng=1)
    >>> clustered, system = ClusteredGraph(g, c), hypercube(2)
    >>> outcomes = solve_many([(clustered, system)] * 2, mapper="random", seed=7)
    >>> [o.mapper for o in outcomes]
    ['random', 'random']
    >>> outcomes[0].total_time >= outcomes[0].lower_bound
    True
    """
    if isinstance(mapper, str):
        built = get_mapper(mapper, **params)
    elif params:
        raise TypeError(
            "mapper parameters can only be given with a mapper *name*; "
            f"got an instantiated mapper and params {sorted(params)}"
        )
    else:
        built = mapper
    base = _resolve_base_seed(seed)
    tag = params_tag(params)
    normalized = [_as_instance(obj, i) for i, obj in enumerate(instances)]
    items = [
        _WorkItem(
            index=i,
            instance=inst,
            mapper=built,
            seed=derive_seed(base, i, built.name, tag),
        )
        for i, inst in enumerate(normalized)
    ]
    return _run_items(items, max_workers)


def compare(
    clustered: ClusteredGraph,
    system: SystemGraph,
    mappers: Sequence[object] | None = None,
    *,
    seed: int | None = 0,
    max_workers: int | None = 1,
    mapper_params: dict[str, dict[str, object]] | None = None,
) -> list[MapOutcome]:
    """Score several mapper configurations head-to-head on one instance.

    ``mappers`` defaults to every registered mapper (sorted by name).
    Each entry is a registry name, a ``{"name": ..., "params": {...}}``
    mapping or a ``(name, params)`` pair (see
    :func:`~repro.api.registry.parse_choice`), so the *same* mapper can
    appear several times under different parameters
    — every entry stays a distinct work item (nothing is deduplicated)
    and gets its own seed derived from (slot, name, params) via
    :func:`derive_seed`.  ``mapper_params`` supplies per-name defaults,
    e.g. ``{"random": {"samples": 50}}``; an entry's own params override
    them key by key.  Returns one :class:`MapOutcome` per entry, in the
    order requested.

    >>> from repro.api import compare
    >>> from repro.core import ClusteredGraph
    >>> from repro.workloads import layered_random_dag
    >>> from repro.clustering import RandomClusterer
    >>> from repro.topology import hypercube
    >>> g = layered_random_dag(num_tasks=20, rng=1)
    >>> c = RandomClusterer(num_clusters=4).cluster(g, rng=1)
    >>> outcomes = compare(ClusteredGraph(g, c), hypercube(2),
    ...                    mappers=["critical", ("random", {"samples": 5})],
    ...                    seed=7)
    >>> [o.mapper for o in outcomes]
    ['critical', 'random']
    """
    from .registry import available_mappers

    specs = list(mappers) if mappers is not None else available_mappers()
    base = _resolve_base_seed(seed)
    instance = ProblemInstance(clustered, system, name="compare")
    mapper_params = mapper_params or {}
    items = []
    for slot, spec in enumerate(specs):
        name, own = parse_choice(spec, "compare mapper")
        merged = {**mapper_params.get(name, {}), **own}
        items.append(
            _WorkItem(
                index=slot,
                instance=instance,
                mapper=get_mapper(name, **merged),
                seed=derive_seed(base, slot, name, params_tag(merged)),
            )
        )
    return _run_items(items, max_workers)


def _resolve_base_seed(seed: int | None) -> int:
    if seed is not None:
        return int(seed)
    return int(np.random.SeedSequence().generate_state(1, dtype=np.uint64)[0])


def _as_instance(
    obj: ProblemInstance | tuple[ClusteredGraph, SystemGraph], index: int
) -> ProblemInstance:
    if isinstance(obj, ProblemInstance):
        return obj
    clustered, system = obj
    return ProblemInstance(clustered, system, name=f"instance{index}")
