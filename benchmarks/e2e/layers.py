"""Which library callables a traced run wraps, and the per-layer metrics.

Every span name is ``<layer>.<operation>``, where the layer is the
``repro`` module (or subsystem) the callable belongs to.  The same plan
is installed in the benchmark process and in each server process; pool
workers inherit it by fork.  Only the gateway renames three spans, so
that gateway-side request handling reads apart from the shards'.

:func:`per_layer_metrics` turns the merged spans of one traced run into
the ``per_layer`` metrics named in ``BENCHMARK.json``.  A layer that a
workload bypasses reads 0: that is the prediction for that workload.
"""

from __future__ import annotations

import importlib
import statistics

from spans import LOCAL, Recorder, SpanSet, summarize

#: ``(target, span name)``; a target is ``module:function`` or
#: ``module:Class.method``.
PLAN: list[tuple[str, str]] = [
    # instance building
    ("repro.api.components:build_workload", "workloads.build"),
    ("repro.api.components:build_topology", "topology.build"),
    ("repro.clustering.simple:RandomClusterer.cluster", "clustering.cluster"),
    ("repro.api.sweep:build_scenario_instance", "api.sweep.build_instance"),
    ("repro.api.sweep:run_scenario_once", "api.sweep.run_once"),
    # bounds and evaluation
    ("repro.core.ideal:lower_bound", "ideal.lower_bound"),
    ("repro.core.ideal:ideal_schedule", "ideal.lower_bound"),
    ("repro.core.evaluate:total_time", "evaluate.total_time"),
    ("repro.core.evaluate:evaluate_assignment", "evaluate.schedule"),
    # mapper adapters
    ("repro.api.adapters:CriticalEdgeAdapter.map", "mappers.critical"),
    ("repro.api.adapters:RandomMappingAdapter.map", "mappers.random"),
    ("repro.api.adapters:BokhariAdapter.map", "mappers.bokhari"),
    ("repro.api.adapters:LeeAggarwalAdapter.map", "mappers.lee"),
    ("repro.api.adapters:_AnnealBase.map", "mappers.annealing"),
    ("repro.api.adapters:GeneticAdapter.map", "mappers.genetic"),
    ("repro.api.adapters:TabuAdapter.map", "mappers.tabu"),
    ("repro.api.adapters:MultilevelAdapter.map", "mappers.multilevel"),
    # the paper's strategy
    ("repro.core.critical:analyze_criticality", "critical.analyze"),
    ("repro.core.initial:initial_assignment", "critical.initial"),
    ("repro.core.refine:refine_random", "critical.refine"),
    ("repro.core.refine:refine_pairwise", "critical.refine"),
    # baselines
    ("repro.baselines.annealing:anneal_mapping", "baselines.annealing"),
    ("repro.baselines.tabu:tabu_mapping", "baselines.tabu"),
    ("repro.baselines.genetic:genetic_mapping", "baselines.genetic"),
    ("repro.baselines.bokhari:bokhari_mapping", "baselines.bokhari"),
    ("repro.baselines.lee_aggarwal:lee_mapping", "baselines.lee"),
    ("repro.baselines.random_map:average_random_mapping", "baselines.random"),
    # multilevel coarsen-map-refine
    ("repro.core.multilevel:multilevel_map", "multilevel.map"),
    ("repro.core.multilevel:build_hierarchy", "multilevel.hierarchy"),
    ("repro.core.multilevel:abstract_taskgraph", "multilevel.abstract_graph"),
    ("repro.core.multilevel:heavy_edge_matching", "multilevel.matching"),
    ("repro.core.multilevel:contract_graph", "multilevel.contract_graph"),
    ("repro.core.multilevel:match_processors", "multilevel.match_processors"),
    ("repro.core.multilevel:contract_system", "multilevel.contract_system"),
    ("repro.core.multilevel:project_assignment", "multilevel.project"),
    ("repro.core.multilevel:refine_metric", "multilevel.refine"),
    # delta evaluation
    ("repro.core.incremental:DeltaEvaluator.__init__", "incremental.init"),
    ("repro.core.incremental:DeltaEvaluator.probe_swap", "incremental.probe_swap"),
    ("repro.core.incremental:DeltaEvaluator.swap", "incremental.swap"),
    ("repro.core.incremental:DeltaEvaluator.apply_swap", "incremental.swap"),
    ("repro.core.incremental:DeltaEvaluator.revert", "incremental.revert"),
    ("repro.core.incremental:DeltaEvaluator.evaluate", "incremental.evaluate"),
    ("repro.core.incremental:CommVolumeDelta.__init__", "incremental.init"),
    ("repro.core.incremental:CommVolumeDelta.delta_swaps", "incremental.delta_swaps"),
    ("repro.core.incremental:CommVolumeDelta.swap", "incremental.volume_swap"),
    # sweep output, metrics and simulation
    ("repro.io.jsonl:write_record", "io.write_record"),
    ("repro.metrics.base:evaluate_metrics", "metrics.evaluate"),
    ("repro.sim.engine:simulate", "sim.simulate"),
    # serving
    ("repro.service.http:parse_job_body", "service.http.parse"),
    ("repro.service.service:MappingService.submit_scenario", "service.submit"),
    ("repro.service.fingerprint:scenario_fingerprint", "service.fingerprint"),
    ("repro.service.cache:OutcomeCache.get", "service.cache.get"),
    ("repro.service.cache:OutcomeCache.put", "service.cache.put"),
    ("repro.service.backends:JsonlBackend.append", "service.store.append"),
    ("repro.service.service:Job.to_dict", "service.job_to_dict"),
    ("repro.service.shard.gateway:GatewayHTTPServer.forward", "service.shard.gateway.forward"),
]

#: The gateway parses and fingerprints every request itself before it
#: forwards; those spans get gateway names.
GATEWAY_NAMES = {
    "service.http.parse": "service.shard.gateway.parse",
    "service.fingerprint": "service.shard.gateway.fingerprint",
}


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: Recorder, role: str) -> Recorder:
    """Wrap every callable of :data:`PLAN` and activate ``recorder``."""
    for target, name in PLAN:
        if role == "gateway":
            name = GATEWAY_NAMES.get(name, name)
        owner, attr = _resolve(target)
        if isinstance(owner, type):
            recorder.patch_attribute(owner, attr, name)
        else:
            recorder.patch_function(getattr(owner, attr), name)
    recorder.install()
    return recorder


def _is_container(name: str) -> bool:
    """Spans that contain whole mapping runs: the phases below them
    explain their time (see :func:`coverage`)."""
    return name.startswith("mappers.") or name in ("multilevel.map", "api.sweep.run_once")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def coverage(spans: SpanSet, keep) -> float:
    """Share of mapping-run time that named phases account for.

    A container span (a mapper adapter, ``multilevel.map``, one sweep
    run) is explained by its children: a child container recursively, any
    other child by its whole duration.  Time a container spends outside
    every child -- glue the trace does not name -- is the uncovered part.
    """
    children = spans.children()

    def explained(span) -> float:
        total = 0.0
        for child in children.get(id(span), ()):
            if child.end <= 0.0:
                continue
            total += explained(child) if _is_container(child.name) else child.duration
        return total

    covered = total = 0.0
    for span in spans.all():
        if span.end <= 0.0 or not keep(span) or not _is_container(span.name):
            continue
        parent = spans.parent_of(span)
        if parent is not None and _is_container(parent.name):
            continue  # counted inside its outermost container
        covered += explained(span)
        total += span.duration
    return covered / total if total else 0.0


def per_layer_metrics(spans: SpanSet, keep, facts: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric from the spans of one traced run.

    ``facts`` carries what the benchmark itself observed: outcome
    counters, client-side latencies, cache statistics, the pool size and
    the traced-minus-untraced overhead.
    """
    stats = summarize(spans, keep)

    def seconds(name: str) -> float:
        return stats[name].seconds if name in stats else 0.0

    def calls(name: str) -> int:
        return stats[name].calls if name in stats else 0

    def p50_ms(name: str) -> float:
        return 1e3 * _median(stats[name].durations) if name in stats else 0.0

    children = spans.children()
    initial = refine_l0 = 0.0
    for span in spans.all():
        if span.name != "multilevel.map" or span.end <= 0.0 or not keep(span):
            continue
        kids = [c for c in children.get(id(span), ()) if c.end > 0.0]
        initial += sum(c.duration for c in kids if c.name.startswith("mappers."))
        refines = [c for c in kids if c.name == "multilevel.refine"]
        if refines:
            refine_l0 += max(refines, key=lambda c: c.end).duration

    out: dict[str, float] = {}
    for name in (
        "workloads.build",
        "topology.build",
        "clustering.cluster",
        "ideal.lower_bound",
        "evaluate.total_time",
        "evaluate.schedule",
        "multilevel.hierarchy",
        "multilevel.abstract_graph",
        "multilevel.matching",
        "multilevel.contract_graph",
        "multilevel.match_processors",
        "multilevel.contract_system",
        "multilevel.project",
        "multilevel.refine",
        "incremental.init",
        "incremental.delta_swaps",
        "incremental.probe_swap",
        "incremental.evaluate",
        "critical.analyze",
        "critical.initial",
        "critical.refine",
        "baselines.annealing",
        "baselines.tabu",
        "baselines.genetic",
        "baselines.bokhari",
        "api.sweep.build_instance",
        "mappers.critical",
        "mappers.bokhari",
        "mappers.lee",
        "mappers.random",
        "mappers.multilevel",
        "metrics.evaluate",
        "sim.simulate",
        "io.write_record",
    ):
        out[f"{name}_s"] = seconds(name)
    out["multilevel.initial_s"] = initial
    out["multilevel.refine_l0_s"] = refine_l0
    for name in (
        "incremental.delta_swaps",
        "incremental.probe_swap",
        "incremental.swap",
        "incremental.evaluate",
    ):
        out[f"{name}_calls"] = calls(name)
    probes = calls("incremental.probe_swap")
    out["incremental.probe_swap_us_p50"] = 1e3 * p50_ms("incremental.probe_swap")
    out["incremental.accept_ratio"] = calls("incremental.swap") / probes if probes else 0.0

    refine_probes = facts.get("refine_probes", 0.0)
    out["multilevel.refine_probes"] = refine_probes
    out["multilevel.refine_swaps"] = facts.get("refine_swaps", 0.0)
    out["multilevel.swap_yield"] = (
        facts.get("refine_swaps", 0.0) / refine_probes if refine_probes else 0.0
    )
    refine_s = seconds("multilevel.refine")
    out["multilevel.probes_per_s"] = refine_probes / refine_s if refine_s else 0.0
    out["multilevel.levels"] = facts.get("levels", 0.0)
    out["baselines.evaluations"] = facts.get("evaluations", 0.0)

    for name in (
        "service.shard.gateway.parse",
        "service.shard.gateway.fingerprint",
        "service.shard.gateway.forward",
        "service.http.parse",
        "service.submit",
        "service.fingerprint",
        "service.cache.get",
        "service.cache.put",
        "service.store.append",
        "service.job_to_dict",
        "api.sweep.build_instance",
        "mappers.critical",
    ):
        out[f"{name}_ms"] = p50_ms(name)
    out["service.cache.hit_ratio"] = facts.get("cache_hit_ratio", 0.0)
    miss_p50 = facts.get("miss_p50_ms", 0.0)
    out["service.miss_overhead_ms"] = (
        miss_p50
        - p50_ms("api.sweep.build_instance")
        - p50_ms("mappers.critical")
        - p50_ms("service.store.append")
        if miss_p50
        else 0.0
    )
    out["client.polls_per_miss"] = facts.get("polls_per_miss", 0.0)
    out["client.miss_p95_ms"] = facts.get("miss_p95_ms", 0.0)

    # Pool workers are the processes other than this one that ran sweep
    # runs; efficiency is their busy share of the window.
    window = facts.get("window_s", 0.0)
    workers = facts.get("pool_workers", 0.0)
    busy = sum(
        span.duration
        for span in spans.all()
        if span.name == "api.sweep.run_once"
        and span.end > 0.0
        and keep(span)
        and span.process != LOCAL
    )
    out["service.pool_efficiency"] = busy / (workers * window) if workers and window else 0.0

    out["trace.overhead_pct"] = facts.get("overhead_pct", 0.0)
    out["trace.coverage"] = coverage(spans, keep)
    out["trace.spans"] = sum(entry.calls for entry in stats.values())
    return out


def layer_table(spans: SpanSet, keep) -> list[dict[str, float | str]]:
    """Calls, seconds and self seconds for every span name (detail view)."""
    rows = []
    for name, entry in sorted(summarize(spans, keep).items()):
        rows.append(
            {
                "name": name,
                "calls": entry.calls,
                "seconds": entry.seconds,
                "self_seconds": entry.self_seconds,
                "p50_ms": 1e3 * _median(entry.durations),
            }
        )
    return rows
