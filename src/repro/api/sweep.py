"""The scenario sweep engine: run a grid, stream JSONL, resume, aggregate.

:func:`run_scenarios` is the scaling workhorse on top of the declarative
:class:`~repro.api.scenario.Scenario` layer:

* every (scenario, replica) run gets independent per-stage seed streams
  derived from the scenario's base seed, so results are bit-identical at
  any worker count and any completion order;
* runs execute on the same process-pool engine as
  :func:`~repro.api.batch.solve_many`, but results are *streamed* to a
  JSONL file as they complete (written in input order, so the file is
  byte-stable too);
* an existing output file acts as a checkpoint: records already present
  are reused verbatim and only the missing runs re-execute, which makes
  long sweeps resumable after a crash or truncation;
* :func:`format_sweep` aggregates the records into the paper-style
  per-group mapper-comparison tables.

The paper's own tables, ablations and studies are checked-in specs under
``specs/`` (``mimdmap sweep specs/table1_hypercube.json``).

Records deliberately exclude wall-clock time — everything in the file is
a pure function of the spec, which is what makes resume + parallelism
safe to verify byte-for-byte.
"""

from __future__ import annotations

import os
import zlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..core.clustered import ClusteredGraph
from ..io.jsonl import read_jsonl, write_record
from ..utils import MappingError
from .batch import ProblemInstance, iter_item_outcomes
from .components import build_topology, build_workload, get_clusterer
from .outcome import MapOutcome
from .registry import choice_label, get_mapper
from .scenario import Scenario

__all__ = [
    "SweepResult",
    "derive_run_seeds",
    "format_sweep",
    "run_key",
    "run_scenario_once",
    "run_scenarios",
    "summarize_sweep",
]


@dataclass(frozen=True)
class SweepResult:
    """What one :func:`run_scenarios` call did.

    ``records`` holds every run's record in spec order (reused and fresh
    alike); ``executed`` / ``reused`` count how many were computed this
    call vs. recovered from the output file's checkpoint.
    """

    records: list[dict[str, Any]]
    executed: int
    reused: int

    def __len__(self) -> int:
        return len(self.records)


def run_key(scenario: Scenario, replica: int) -> str:
    """Identity of one concrete run — the JSONL dedupe/resume key."""
    return f"{scenario.key()}#r{replica}"


def derive_run_seeds(scenario: Scenario, replica: int) -> tuple[int, int, int, int]:
    """Independent (workload, clustering, topology, mapper) seeds for one run.

    Mixing the scenario's canonical key keeps streams independent across
    grid points even when they share a base seed; mixing the replica
    index keeps repetitions independent of each other.  Nothing depends
    on execution order, which is what makes sweeps reproducible at any
    worker count.
    """
    entropy = [int(scenario.seed), zlib.crc32(scenario.key().encode()), int(replica)]
    state = np.random.SeedSequence(entropy).generate_state(4, dtype=np.uint64)
    return tuple(int(s) for s in state)


def build_scenario_instance(
    scenario: Scenario, replica: int = 0
) -> tuple[ProblemInstance, int]:
    """Materialize one run: (problem instance, mapper seed).

    Builds the topology, the workload, and the clustering from their
    registries with this run's derived seeds; failures are re-raised
    with the scenario label attached so sweep errors are attributable.
    """
    wseed, cseed, tseed, mseed = derive_run_seeds(scenario, replica)
    try:
        system = build_topology(scenario.topology, rng=tseed)
        graph = build_workload(scenario.workload, scenario.workload_params, rng=wseed)
        if graph.num_tasks < system.num_nodes:
            raise MappingError(
                f"workload {scenario.workload!r} produced {graph.num_tasks} "
                f"tasks but topology {scenario.topology!r} has "
                f"{system.num_nodes} nodes; every node needs a cluster"
            )
        clusterer = get_clusterer(
            scenario.clustering,
            num_clusters=system.num_nodes,
            **scenario.clustering_params,
        )
        clustering = clusterer.cluster(graph, rng=cseed)
        instance = ProblemInstance(
            ClusteredGraph(graph, clustering),
            system,
            name=run_key(scenario, replica),
        )
    except MappingError as exc:
        raise MappingError(f"scenario {scenario.label()!r}: {exc}") from None
    return instance, mseed


@dataclass(frozen=True)
class _RunItem:
    """One sweep run, shipped to workers as the (cheap) spec itself.

    Instances are built worker-side from the derived seeds — shipping the
    scenario instead of a materialized :class:`ProblemInstance` keeps the
    parent's memory bounded and parallelizes graph/clustering
    construction along with the mapping.
    """

    index: int
    scenario: Scenario
    replica: int


def run_scenario_once(scenario: Scenario, replica: int = 0) -> MapOutcome:
    """Execute one (scenario, replica) run — the *single* definition of
    what a scenario run is, shared by the sweep engine and the service's
    async scenario jobs (whose cache fingerprints rely on both paths
    producing bit-identical outcomes).

    When the scenario requests metrics, they are evaluated on the final
    assignment here, so every consumer of a scenario run (sweep records,
    service job results) sees the same ``outcome.metrics``."""
    instance, mapper_seed = build_scenario_instance(scenario, replica)
    mapper = get_mapper(scenario.mapper, **scenario.mapper_params)
    outcome = mapper.map(instance.clustered, instance.system, rng=mapper_seed)
    if scenario.metrics:
        from dataclasses import replace

        from ..metrics import evaluate_metrics

        outcome = replace(
            outcome,
            metrics=evaluate_metrics(
                instance.clustered,
                instance.system,
                outcome.assignment,
                scenario.metrics,
            ),
        )
    return outcome


def _solve_run(item: _RunItem) -> MapOutcome:
    return run_scenario_once(item.scenario, item.replica)


def run_scenarios(
    scenarios: Iterable[Scenario],
    *,
    out: str | Path | None = None,
    max_workers: int | None = 1,
    on_record: Callable[[dict[str, Any]], None] | None = None,
    service: Any = None,
) -> SweepResult:
    """Run every (scenario, replica) pair, streaming results to ``out``.

    Parameters
    ----------
    scenarios:
        Concrete scenarios (e.g. from :meth:`Scenario.grid` or
        :func:`~repro.api.scenario.load_spec`).  Each contributes
        ``replicas`` runs.
    out:
        JSONL path.  Records found there (from a previous, possibly
        truncated run) — or in the ``<out>.tmp`` left by an interrupted
        resume — are reused instead of re-executed.  Records stream to
        ``<out>.tmp`` in spec order as runs complete and the finished
        file atomically replaces ``out``, so an existing checkpoint is
        never truncated before the sweep succeeds, and a finished
        sweep's bytes are identical however it was produced.
    max_workers:
        ``1`` runs serially (inline, no process pool at all); larger
        values fan runs across the persistent pool of the default
        :class:`repro.service.MappingService` (results are identical
        either way — see :func:`derive_run_seeds`), so back-to-back
        sweeps reuse warm workers.
    on_record:
        Optional callback invoked with each record in spec order as it
        is finalized (for progress reporting).
    service:
        An explicit :class:`repro.service.MappingService` to run on
        (default: the process-wide one).

    >>> from repro.api import Scenario, run_scenarios
    >>> scenarios = Scenario.grid(
    ...     workload={"name": "diamond", "params": {"width": 3}},
    ...     topology="hypercube:2",
    ...     mapper=["critical", "random"],
    ...     seed=7,
    ... )
    >>> result = run_scenarios(scenarios)
    >>> len(result.records)
    2
    >>> sorted(r["scenario"]["mapper"] for r in result.records)
    ['critical', 'random']
    """
    runs = [
        (scenario, replica)
        for scenario in scenarios
        for replica in range(scenario.replicas)
    ]
    if not runs:
        raise MappingError("run_scenarios needs at least one scenario")
    keys = [run_key(s, r) for s, r in runs]
    if len(set(keys)) != len(keys):
        dupe = next(k for k in keys if keys.count(k) > 1)
        raise MappingError(
            f"duplicate scenario run {dupe!r}; every (scenario, replica) in a "
            "sweep must be unique for resume keys to work"
        )

    cached = _load_checkpoint(out, set(keys))
    fresh_items = [
        _RunItem(index=index, scenario=scenario, replica=replica)
        for index, (scenario, replica) in enumerate(runs)
        if keys[index] not in cached
    ]

    by_index: dict[int, dict[str, Any]] = {
        i: cached[key] for i, key in enumerate(keys) if key in cached
    }
    ordered: list[dict[str, Any]] = []
    # Stream to <out>.tmp and atomically replace on success, so the
    # existing checkpoint survives a crash mid-resume; the .tmp prefix is
    # itself a checkpoint the next resume reads.
    tmp = Path(f"{out}.tmp") if out is not None else None
    fh = tmp.open("w") if tmp is not None else None
    try:
        def flush_ready() -> None:
            while len(ordered) < len(runs) and len(ordered) in by_index:
                record = by_index.pop(len(ordered))
                ordered.append(record)
                if fh is not None:
                    write_record(fh, record)
                if on_record is not None:
                    on_record(record)

        flush_ready()
        for item, outcome in iter_item_outcomes(
            fresh_items, max_workers, solve=_solve_run, service=service
        ):
            by_index[item.index] = _make_record(item.scenario, item.replica, outcome)
            flush_ready()
    finally:
        if fh is not None:
            fh.close()
    if tmp is not None:
        os.replace(tmp, out)
    return SweepResult(
        records=ordered, executed=len(fresh_items), reused=len(cached)
    )


def summarize_sweep(
    records: Sequence[dict[str, Any]],
) -> list[tuple[str, list[dict[str, Any]]]]:
    """Group records into paper-style comparison blocks.

    A block is one scenario *group* (same workload, clustering, topology,
    metrics and seed; different mappers) aggregated over replicas.  Each
    mapper draws its own instance (see :meth:`Scenario.group_key`), so
    raw totals of two rows come from different graphs; rows are ranked
    by mean percent-of-bound, which normalizes each run by its own lower
    bound.  Each row dict carries the mapper label, replica count, mean
    total time, mean percent-of-bound, and how many replicas hit the
    bound; when records carry requested metrics, the row gains a
    ``"metrics"`` dict of per-key means over the replicas that reported
    them.
    """
    groups: dict[str, dict[str, list[dict[str, Any]]]] = {}
    order: list[str] = []
    for record in records:
        group = record["group"]
        if group not in groups:
            groups[group] = {}
            order.append(group)
        groups[group].setdefault(record["run"]["mapper_label"], []).append(record)
    summaries = []
    for group in order:
        rows = []
        for label, recs in groups[group].items():
            times = [r["outcome"]["total_time"] for r in recs]
            bounds = [r["outcome"]["lower_bound"] for r in recs]
            row = {
                "mapper": label,
                "replicas": len(recs),
                "mean_total_time": float(np.mean(times)),
                "mean_percent_of_bound": float(
                    np.mean([100.0 * t / b for t, b in zip(times, bounds)])
                ),
                "optimal": sum(
                    r["outcome"]["reached_lower_bound"] for r in recs
                ),
            }
            metric_values: dict[str, list[float]] = {}
            for r in recs:
                for k, v in r["outcome"].get("metrics", {}).items():
                    metric_values.setdefault(k, []).append(float(v))
            if metric_values:
                row["metrics"] = {
                    k: float(np.mean(vs)) for k, vs in sorted(metric_values.items())
                }
            rows.append(row)
        rows.sort(key=lambda row: row["mean_percent_of_bound"])
        summaries.append((group, rows))
    return summaries


def format_sweep(records: Sequence[dict[str, Any]]) -> str:
    """Render :func:`summarize_sweep` as the paper-style tables."""
    from ..analysis.tables import render_table

    if not records:
        raise ValueError("format_sweep needs at least one record")
    blocks = []
    for group, rows in summarize_sweep(records):
        metric_keys = sorted({k for row in rows for k in row.get("metrics", {})})
        body = [
            [
                row["mapper"],
                f"{row['mean_total_time']:.1f}",
                f"{row['mean_percent_of_bound']:.1f}%",
                f"{row['optimal']}/{row['replicas']}",
            ]
            + [
                f"{row['metrics'][k]:g}" if k in row.get("metrics", {}) else "-"
                for k in metric_keys
            ]
            for row in rows
        ]
        blocks.append(
            render_table(
                ["mapper", "mean total time", "% of bound", "optimal"]
                + metric_keys,
                body,
                title=group,
            )
        )
    return "\n\n".join(blocks)


def _make_record(
    scenario: Scenario, replica: int, outcome: MapOutcome
) -> dict[str, Any]:
    """One JSONL record: pure function of (scenario, replica).

    The ``outcome`` block is :meth:`MapOutcome.to_dict` without
    ``wall_time`` — records must be bit-identical across runs and worker
    counts for resume verification to work.  Its ``metrics`` and
    ``portfolio`` keys appear only for scenarios that produce them;
    racing diagnostics are a pure function of the arm configuration and
    seeds, so they are deterministic at any worker count.
    """
    data = outcome.to_dict()
    del data["wall_time"]
    return {
        "key": run_key(scenario, replica),
        "group": scenario.group_key(),
        "scenario": scenario.to_dict(),
        "run": {
            "replica": replica,
            "label": scenario.label(),
            "mapper_label": choice_label(scenario.mapper, scenario.mapper_params),
        },
        "outcome": data,
    }


def _load_checkpoint(
    out: str | Path | None, expected_keys: set[str]
) -> dict[str, dict[str, Any]]:
    """Records from a previous (possibly truncated) run of the same sweep.

    Reads both the finished file and a ``<out>.tmp`` left behind by an
    interrupted resume.  Only records whose key belongs to the current
    sweep are reused; anything else (a different spec written to the
    same path, garbage) is dropped and recomputed.
    """
    if out is None:
        return {}
    cached: dict[str, dict[str, Any]] = {}
    for path in (Path(out), Path(f"{out}.tmp")):
        if not path.exists():
            continue
        for record in read_jsonl(path, tolerate_partial=True):
            key = record.get("key") if isinstance(record, dict) else None
            if key in expected_keys and key not in cached:
                cached[key] = record
    return cached
