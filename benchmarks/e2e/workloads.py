"""The benchmark's four workloads.

Each workload builds its inputs from the seed, sets up several times
(``setup_s`` is the median), then repeats one operation on the same
inputs back to back for the measured time and checks every outcome (see
``oracle.py``).  An untraced run reports the end-to-end metrics; a
traced run first times one untraced operation, then repeats set-up and
operation with the layer wrappers installed and reports the per-layer
metrics, the tracing overhead included.

=============  =========================================================
scale-100k     one 100k-task multilevel map on ``hypercube:8``
search-1k      annealing, tabu, genetic and Bokhari on four 1k-task instances
paper-sweep    the paper's grid, 45 runs, through the sweep engine inline
serve-mixed    16 cache hits and 1 miss through a gateway over two shards
=============  =========================================================
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from fleet import SHARDS, Fleet, call, kill_all
from layers import install, layer_table, per_layer_metrics
from oracle import bijection_error, comm_volume, outcome_error, same_outcome
from reference import Echo, Timings, measure, set_up, timed
from spans import Recorder, from_recorder, load_spans

from repro.api import (
    Scenario,
    build_topology,
    build_workload,
    get_mapper,
    run_scenario_once,
    run_scenarios,
)
from repro.api.sweep import build_scenario_instance
from repro.clustering import RandomClusterer
from repro.core import Assignment, ClusteredGraph
from repro.service.fingerprint import scenario_fingerprint
from repro.service.shard import shard_for_fingerprint
from repro.service.store import outcome_to_dict

SETUP_REPEATS = 3
MIN_OPS = 10  # timed operations per run at least
#: A search pass solves this many instances: their structure sets how
#: long a solve takes, and one instance per seed made the seed, not the
#: code, set most of the spread between runs.
SEARCH_INSTANCES = 4
#: Iteration budgets that keep a search pass near two seconds, so that a
#: run times several passes; each is the mapper's default loop, shortened.
SEARCH_MAPPERS = (
    ("annealing", {"cooling": 0.4}),
    ("tabu", {"iterations": 2}),
    ("genetic", {"generations": 10}),
    ("bokhari", {}),
)
SWEEP_MAPPERS = ["critical", "bokhari", "lee", "random", "multilevel"]


@dataclass
class Config:
    seed: int
    seconds: float
    trace: bool
    quick: bool
    work: Path


@dataclass
class Result:
    """What one run of one workload measured and checked."""

    metrics: dict[str, float]
    samples: dict[str, list[float]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)  # samples behind a metric
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    detail: dict[str, float] = field(default_factory=dict)
    layers: list[dict] = field(default_factory=list)

    def check(self, error: str | None) -> None:
        """Count one operation, failed when ``error`` is set."""
        self.attempted += 1
        if error:
            self.fail(error)

    def fail(self, error: str) -> None:
        """Mark an already counted operation as failed."""
        self.failed += 1
        self.errors.append(error)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def check_repeats(result: Result, passes: list[list], what: str) -> None:
    """Every pass must give the first pass's assignments bit for bit."""
    for outcomes in passes[1:]:
        for first, outcome in zip(passes[0], outcomes):
            same = np.array_equal(first.assignment.assi, outcome.assignment.assi)
            result.check(None if same else f"{first.mapper}: {what} changed the assignment")


def end_to_end(
    result: Result, setup: Timings, ops: Timings, ratios: list[float]
) -> Result:
    """The end-to-end metrics of an untraced run: set-up and operation
    times at reference speed (see ``reference.py``), quality and memory.

    ``ratios`` must come from a fixed set of outcomes, never from however
    many operations fit in the run, so that ``makespan_ratio`` depends on
    the seed and the mappers' quality alone, not on speed.
    """
    result.samples = {
        "setup_s": setup.at_reference_speed(),
        "latency_ms": [1e3 * x for x in ops.at_reference_speed()],
        "makespan_ratio": ratios,
        "setup_wall_s": setup.seconds(),
        "latency_wall_ms": [1e3 * x for x in ops.seconds()],
        "reference_ms": [1e3 * x for x in ops.refs],
    }
    result.metrics = {
        "setup_s": setup.median(),
        "latency_ms": 1e3 * ops.median(),
        "makespan_ratio": math.fsum(ratios) / len(ratios),
        "peak_rss_mb": peak_rss_mb(),
    }
    result.counts = {
        "setup_s": len(setup.firsts),
        "latency_ms": len(ops.firsts),
        "makespan_ratio": len(ratios),
    }
    result.detail.update(
        setup_wall_s=_median(setup.seconds()),
        latency_wall_ms=1e3 * _median(ops.seconds()),
        reference_ms=1e3 * _median(ops.refs),
    )
    return result


def traced_layers(
    result: Result,
    recorder_spans,
    windows: list[tuple[float, float]],
    facts: dict[str, float],
) -> Result:
    def keep(span) -> bool:
        return any(lo <= span.start <= hi for lo, hi in windows)

    result.metrics = per_layer_metrics(recorder_spans, keep, facts)
    result.layers = layer_table(recorder_spans, keep)
    return result


# -- scale-100k ----------------------------------------------------------


def _layered_instance(tasks: int, topology: str, seed: int):
    graph = build_workload("layered_random", {"num_tasks": tasks}, rng=seed)
    system = build_topology(topology)
    _ = system.shortest  # the all-pairs hop table, charged to set-up
    clustering = RandomClusterer(system.num_nodes).cluster(graph, rng=seed)
    return ClusteredGraph(graph, clustering), system


def scale_100k(cfg: Config) -> Result:
    tasks, topology = (500, "hypercube:5") if cfg.quick else (100_000, "hypercube:8")
    result = Result(metrics={})
    mapper = get_mapper("multilevel")
    outcomes = []

    def map_once(clustered, system):
        outcomes.append(mapper.map(clustered, system, rng=cfg.seed))

    def check(clustered, system) -> None:
        first = outcomes[0]
        error = outcome_error(
            clustered, system, first.assignment, first.total_time, first.lower_bound
        )
        volume = comm_volume(clustered, system, first.assignment.placement)
        if error is None and volume != first.extras.get("comm_volume"):
            error = f"comm volume {first.extras.get('comm_volume')} != oracle {volume}"
        result.check(error)
        check_repeats(result, [[outcome] for outcome in outcomes], "a repeated map")

    if cfg.trace:
        (clustered, system), _ = timed(_layered_instance, tasks, topology, cfg.seed)
        _, untraced = timed(map_once, clustered, system)
        del clustered, system
        recorder = install(Recorder(None, "bench"), "bench")
        try:
            start = time.perf_counter()
            clustered, system = _layered_instance(tasks, topology, cfg.seed)
            _, traced = timed(map_once, clustered, system)
            window = (start, time.perf_counter())
        finally:
            recorder.uninstall()
        check(clustered, system)
        extras = outcomes[-1].extras
        facts = {
            "refine_probes": extras.get("refine_probes", 0.0),
            "refine_swaps": extras.get("refine_swaps", 0.0),
            "levels": extras.get("levels", 0.0),
            "evaluations": float(outcomes[-1].evaluations),
            "overhead_pct": 100.0 * (traced - untraced) / untraced,
        }
        result.detail = {"untraced_map_s": untraced, "traced_map_s": traced}
        return traced_layers(result, from_recorder(recorder), [window], facts)

    (clustered, system), setups = set_up(
        lambda: _layered_instance(tasks, topology, cfg.seed), SETUP_REPEATS
    )
    latencies = measure(lambda: map_once(clustered, system), cfg.seconds, MIN_OPS)
    check(clustered, system)
    first = outcomes[0]
    result.detail = {
        "maps": len(outcomes),
        "comm_volume": first.extras.get("comm_volume", 0.0),
        "levels": first.extras.get("levels", 0.0),
        "total_time": first.total_time,
        "lower_bound": first.lower_bound,
    }
    ratios = [first.total_time / first.lower_bound]  # every map is identical
    return end_to_end(result, setups, latencies, ratios)


# -- search-1k -----------------------------------------------------------


def instance_seeds(seed: int) -> list[int]:
    """The seed itself (the ``bench_delta`` instance), then independent
    seeds derived from it."""
    derived = [
        int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
        for index in range(1, SEARCH_INSTANCES)
    ]
    return [seed, *derived]


def search_1k(cfg: Config) -> Result:
    tasks, topology = (120, "hypercube:3") if cfg.quick else (1_000, "hypercube:4")
    result = Result(metrics={})

    seeds = instance_seeds(cfg.seed)

    def build() -> list[tuple]:
        return [(*_layered_instance(tasks, topology, seed), seed) for seed in seeds]

    def solve_pass(instances, timings: Timings | None = None) -> list:
        """Every mapper on every instance, mapper seed = instance seed;
        with ``timings``, each solve is a lap."""
        outcomes = []
        for clustered, system, seed in instances:
            for name, params in SEARCH_MAPPERS:
                outcomes.append(get_mapper(name, **params).map(clustered, system, rng=seed))
                if timings is not None:
                    timings.lap()
        return outcomes

    def check(instances, outcomes: list) -> None:
        solved = [instance for instance in instances for _ in SEARCH_MAPPERS]
        for (clustered, system, _), outcome in zip(solved, outcomes):
            result.check(
                outcome_error(
                    clustered, system, outcome.assignment, outcome.total_time,
                    outcome.lower_bound,
                )
            )

    if cfg.trace:
        untraced_outcomes, untraced = timed(solve_pass, build())
        recorder = install(Recorder(None, "bench"), "bench")
        try:
            start = time.perf_counter()
            instances = build()
            outcomes, traced = timed(solve_pass, instances)
            window = (start, time.perf_counter())
        finally:
            recorder.uninstall()
        check(instances, outcomes)
        check_repeats(result, [untraced_outcomes, outcomes], "tracing")
        facts = {
            "evaluations": float(sum(o.evaluations for o in outcomes)),
            "overhead_pct": 100.0 * (traced - untraced) / untraced,
        }
        result.detail = {"untraced_search_s": untraced, "traced_search_s": traced}
        return traced_layers(result, from_recorder(recorder), [window], facts)

    instances: list[tuple] = []

    def build_next() -> None:
        seed = seeds[len(instances)]
        instances.append((*_layered_instance(tasks, topology, seed), seed))

    _, setups = set_up(build_next, SEARCH_INSTANCES)  # each instance is one set-up
    passes: list[list] = []
    timings = Timings()
    latencies = measure(
        lambda: passes.append(solve_pass(instances, timings)), cfg.seconds, 3, timings
    )
    check(instances, passes[0])
    check_repeats(result, passes, "a repeated pass")
    result.detail = {"passes": len(passes)}
    for name, _ in SEARCH_MAPPERS:
        result.detail[f"{name}_evaluations"] = float(
            sum(o.evaluations for o in passes[0] if o.mapper == name)
        )
    ratios = [o.total_time / o.lower_bound for o in passes[0]]  # every pass is identical
    return end_to_end(result, setups, latencies, ratios)


# -- paper-sweep ---------------------------------------------------------


def sweep_grid(seed: int, quick: bool) -> list[Scenario]:
    """The paper's sizes, topologies and mappers as one scenario grid."""
    sizes = (30,) if quick else (30, 120, 300)
    topologies = ["hypercube:3"] if quick else ["hypercube:3", "mesh2d:3x3", "random:8"]
    return Scenario.grid(
        workload=[{"name": "layered_random", "params": {"num_tasks": n}} for n in sizes],
        clustering="random",
        topology=topologies,
        mapper=SWEEP_MAPPERS,
        metrics=["comm_volume", "sim_makespan"],
        seed=seed,
    )


def _run_pass(scenarios, path: Path, on_record=None) -> None:
    """One sweep pass, inline in this process (no worker pool)."""
    run_scenarios(scenarios, out=path, max_workers=1, on_record=on_record)


def _check_records(data: bytes, runs: int) -> tuple[list[dict], list[str | None]]:
    """Parse one pass's JSONL and oracle-check every record."""
    records = [json.loads(line) for line in data.decode("utf-8").splitlines()]
    verdicts: list[str | None] = []
    if len(records) != runs:
        verdicts.append(f"sweep wrote {len(records)} records, expected {runs}")
    for record in records:
        scenario = Scenario.from_dict(record["scenario"])
        instance, _ = build_scenario_instance(scenario, record["run"]["replica"])
        out = record["outcome"]
        verdicts.append(
            outcome_error(
                instance.clustered,
                instance.system,
                Assignment(out["assignment"]),
                out["total_time"],
                out["lower_bound"],
            )
        )
    return records, verdicts


def _count_passes(result: Result, reference: bytes, blobs: list[bytes], runs: int) -> list[dict]:
    """Every pass must write the reference bytes; the reference's record
    verdicts then hold for each pass's runs."""
    records, verdicts = _check_records(reference, runs)
    for blob in blobs:
        if blob != reference:
            result.attempted += runs
            result.fail("a sweep pass wrote different bytes than the first")
            continue
        for verdict in verdicts:
            result.check(verdict)
    return records


def _sweep_facts(records: list[dict], passes: int) -> dict[str, float]:
    multilevel = [r["outcome"]["extras"] for r in records if r["outcome"]["mapper"] == "multilevel"]
    return {
        "refine_probes": passes * sum(e.get("refine_probes", 0.0) for e in multilevel),
        "refine_swaps": passes * sum(e.get("refine_swaps", 0.0) for e in multilevel),
        "levels": max((e.get("levels", 0.0) for e in multilevel), default=0.0),
        "evaluations": float(passes * sum(r["outcome"]["evaluations"] for r in records)),
    }


def _sweep_passes(cfg: Config, scenarios, seconds: float, tag: str, min_ops: int):
    """Timed passes, each to a fresh JSONL file and lapped at every
    record; returns the timings and each pass's bytes."""
    paths: list[Path] = []
    timings = Timings()

    def one() -> None:
        paths.append(cfg.work / f"{tag}{len(paths)}.jsonl")
        _run_pass(scenarios, paths[-1], on_record=lambda record: timings.lap())

    measure(one, seconds, min_ops, timings)
    return timings, [path.read_bytes() for path in paths]


def paper_sweep(cfg: Config) -> Result:
    result = Result(metrics={})
    runs = sum(s.replicas for s in sweep_grid(cfg.seed, cfg.quick))

    if cfg.trace:
        scenarios = sweep_grid(cfg.seed, cfg.quick)
        _run_pass(scenarios, cfg.work / "warm.jsonl")
        untraced, untraced_data = _sweep_passes(cfg, scenarios, 0, "plain", 2)
        recorder = install(Recorder(None, "bench"), "bench")
        try:
            start = time.perf_counter()
            scenarios = sweep_grid(cfg.seed, cfg.quick)
            windows = [(start, time.perf_counter())]
            _run_pass(scenarios, cfg.work / "warm-traced.jsonl")
            begin = time.perf_counter()
            traced, traced_data = _sweep_passes(cfg, scenarios, 0, "traced", 2)
            windows.append((begin, time.perf_counter()))
        finally:
            recorder.uninstall()
        records = _count_passes(result, untraced_data[0], untraced_data + traced_data, runs)
        untraced_s, traced_s = _median(untraced.seconds()), _median(traced.seconds())
        facts = _sweep_facts(records, len(traced_data))
        facts["overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
        result.detail = {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s}
        return traced_layers(result, from_recorder(recorder), windows, facts)

    scenarios, setups = set_up(lambda: sweep_grid(cfg.seed, cfg.quick), SETUP_REPEATS)
    _run_pass(scenarios, cfg.work / "warm.jsonl")
    latencies, data = _sweep_passes(cfg, scenarios, cfg.seconds, "pass", 3)
    warm = (cfg.work / "warm.jsonl").read_bytes()
    records = _count_passes(result, warm, [warm, *data], runs)
    result.detail = {
        "passes": len(data),
        "runs_per_pass": runs,
        "runs_per_s": runs * len(data) / sum(latencies.seconds()),
    }
    ratios = [r["outcome"]["total_time"] / r["outcome"]["lower_bound"] for r in records]
    return end_to_end(result, setups, latencies, ratios)


# -- serve-mixed ---------------------------------------------------------

POLL_INTERVAL = 0.002  # seconds between GET /jobs/<id> polls of a miss
HITS_PER_MISS = 16  # cache hits per fresh job in one serve-mixed cycle
VERIFIED_LOCALLY = 5  # served outcomes re-run locally per traffic phase


def serve_body(seed: int, tasks: int) -> dict:
    return {
        "scenario": {
            "workload": "layered_random",
            "workload_params": {"num_tasks": tasks},
            "clustering": "random",
            "topology": "hypercube:3",
            "mapper": "critical",
            "seed": seed,
        },
        "replica": 0,
    }


@dataclass
class Request:
    """One job body with the fingerprint and owning shard it must get."""

    body: dict
    fingerprint: str
    shard: int

    @classmethod
    def of(cls, body: dict) -> Request:
        fingerprint = scenario_fingerprint(Scenario.from_dict(body["scenario"]), 0)
        return cls(body, fingerprint, shard_for_fingerprint(fingerprint, SHARDS))


@dataclass
class Traffic:
    """What one client phase saw."""

    hits: list[float] = field(default_factory=list)
    misses: list[float] = field(default_factory=list)
    polls: int = 0
    outcomes: list[tuple[Request, dict]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def account(self, result: Result) -> None:
        result.attempted += len(self.hits) + len(self.outcomes)
        for error in self.errors:
            result.check(error)


def _routing_error(request: Request, payload: dict) -> str | None:
    if payload.get("fingerprint") != request.fingerprint:
        return f"fingerprint {payload.get('fingerprint')} != {request.fingerprint}"
    if payload.get("shard") != request.shard:
        return f"job answered by shard {payload.get('shard')}, owner is {request.shard}"
    return None


def submit_miss(address: str, request: Request, traffic: Traffic) -> None:
    """POST a job the fleet has not seen and poll it until it is done."""
    start = time.perf_counter()
    status, payload = call(address, "POST", "/jobs", request.body)
    if status != 202 or payload.get("cached") is not False:
        traffic.errors.append(f"miss answered {status} cached={payload.get('cached')}")
        return
    error = _routing_error(request, payload)
    while error is None:
        time.sleep(POLL_INTERVAL)
        traffic.polls += 1
        status, payload = call(address, "GET", f"/jobs/{payload['id']}")
        if status != 200 or payload.get("status") == "failed":
            error = f"job poll answered {status}: {payload.get('error')}"
        elif payload.get("status") == "done":
            latency = time.perf_counter() - start
            outcome = payload["outcome"]
            error = bijection_error(outcome["assignment"], len(outcome["assignment"]))
            if error is None:
                traffic.outcomes.append((request, outcome))
                traffic.misses.append(latency)
                return
    traffic.errors.append(error)


def submit_hit(address: str, request: Request, traffic: Traffic) -> None:
    """POST a job the fleet has cached; it must come back cached from
    the shard that owns its fingerprint."""
    start = time.perf_counter()
    status, payload = call(address, "POST", "/jobs", request.body)
    latency = time.perf_counter() - start
    if status != 200 or payload.get("cached") is not True:
        traffic.errors.append(f"hit answered {status} cached={payload.get('cached')}")
        return
    error = _routing_error(request, payload)
    if error:
        traffic.errors.append(error)
    else:
        traffic.hits.append(latency)


def serve_setup(cfg: Config, tag: str, warm: list[Request], trace_dir: Path | None):
    """Start a fleet and fill its caches with the warm jobs, one at a time."""
    fleet = Fleet(cfg.work, tag, trace_dir)
    try:
        fleet.start()
        traffic = Traffic()
        for request in warm:
            submit_miss(fleet.gateway, request, traffic)
    except BaseException:
        kill_all([fleet])
        raise
    return fleet, traffic


def mixed_loop(
    address: str,
    warm: list[Request],
    fresh,
    seconds: float,
    seed: int,
    timings: Timings | None = None,
) -> tuple[Traffic, Timings]:
    """One client, one request at a time: each cycle posts
    ``HITS_PER_MISS`` warm jobs chosen by a seeded RNG, then one fresh
    job it polls until done.  Returns the traffic and the cycle times."""
    traffic = Traffic()
    rng = np.random.default_rng([seed, 1])

    def cycle() -> None:
        for _ in range(HITS_PER_MISS):
            submit_hit(address, warm[int(rng.integers(len(warm)))], traffic)
        submit_miss(address, fresh(), traffic)

    return traffic, measure(cycle, seconds, MIN_OPS, timings)


def _verify_locally(result: Result, traffic: Traffic) -> None:
    """The first served outcomes must equal a local run bit for bit and
    pass the schedule oracle."""
    for request, served in traffic.outcomes[:VERIFIED_LOCALLY]:
        scenario = Scenario.from_dict(request.body["scenario"])
        local = outcome_to_dict(run_scenario_once(scenario, 0))
        instance, _ = build_scenario_instance(scenario, 0)
        error = outcome_error(
            instance.clustered,
            instance.system,
            Assignment(served["assignment"]),
            served["total_time"],
            served["lower_bound"],
        )
        if error is None and not same_outcome(local, served):
            error = f"served outcome differs from a local run of seed {scenario.seed}"
        if error:
            result.fail(error)


def _hit_ratio(address: str) -> float:
    status, stats = call(address, "GET", "/stats")
    hits = misses = 0
    for shard in stats.get("shards", []) if status == 200 else []:
        cache = shard.get("stats", {}).get("cache", {})
        hits += cache.get("hits", 0)
        misses += cache.get("misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def serve_mixed(cfg: Config) -> Result:
    tasks, warm_count = (40, 8) if cfg.quick else (300, 16)
    base = 1_000_000 * cfg.seed
    warm = [Request.of(serve_body(base + i, tasks)) for i in range(warm_count)]
    fresh_seeds = iter(range(base + warm_count, base + 1_000_000))

    def fresh() -> Request:
        return Request.of(serve_body(next(fresh_seeds), tasks))

    result = Result(metrics={})
    fleets: list[Fleet] = []
    phases: list[Traffic] = []

    def stop(fleet: Fleet) -> None:
        for problem in fleet.stop():
            result.check(problem)

    try:
        if cfg.trace:
            fleet, warmed = serve_setup(cfg, "plain", warm, None)
            fleets.append(fleet)
            plain, _ = mixed_loop(fleet.gateway, warm, fresh, cfg.seconds / 2, cfg.seed)
            stop(fleet)
            trace_dir = cfg.work / "trace"
            trace_dir.mkdir()
            fleet, warmed_traced = serve_setup(cfg, "traced", warm, trace_dir)
            fleets.append(fleet)
            start = time.perf_counter()
            traffic, _ = mixed_loop(fleet.gateway, warm, fresh, cfg.seconds / 2, cfg.seed)
            window = (start, time.perf_counter())
            hit_ratio = _hit_ratio(fleet.gateway)
            stop(fleet)
            phases = [warmed, plain, warmed_traced, traffic]
        else:
            def start_fleet() -> tuple[Fleet, Traffic]:
                fleet, warmed = serve_setup(cfg, f"fleet{len(fleets)}", warm, None)
                fleets.append(fleet)
                phases.append(warmed)
                return fleet, warmed

            with Echo() as echo:
                (fleet, warmed), setups = set_up(
                    start_fleet, SETUP_REPEATS, lambda started: stop(started[0]), echo.timings()
                )
                traffic, cycles = mixed_loop(
                    fleet.gateway, warm, fresh, cfg.seconds, cfg.seed, echo.timings()
                )
            hit_ratio = _hit_ratio(fleet.gateway)
            stop(fleet)
            phases.append(traffic)
    finally:
        kill_all(fleets)
    for phase in phases:
        phase.account(result)
    _verify_locally(result, phases[-2])
    _verify_locally(result, phases[-1])
    miss_ms = [1e3 * x for x in traffic.misses]

    if cfg.trace:
        untraced = 1e3 * _median(plain.misses)
        facts = {
            "miss_p50_ms": _median(miss_ms),
            "miss_p95_ms": _percentile(miss_ms, 95),
            "polls_per_miss": traffic.polls / max(1, len(miss_ms)),
            "cache_hit_ratio": hit_ratio,
            "pool_workers": float(SHARDS),
            "window_s": window[1] - window[0],
            "evaluations": float(sum(o["evaluations"] for _, o in traffic.outcomes)),
            "overhead_pct": 100.0 * (_median(miss_ms) - untraced) / untraced,
        }
        result.detail = {"untraced_miss_p50_ms": untraced, "traced_miss_p50_ms": _median(miss_ms)}
        return traced_layers(result, load_spans(trace_dir), [window], facts)

    hit_ms = [1e3 * x for x in traffic.hits]
    result.detail = {
        "hits": len(hit_ms),
        "misses": len(miss_ms),
        "hit_p50_ms": _median(hit_ms),
        "hit_p99_ms": _percentile(hit_ms, 99),
        "miss_p50_ms": _median(miss_ms),
        "miss_p95_ms": _percentile(miss_ms, 95),
        "requests_per_s": (len(hit_ms) + len(miss_ms)) / sum(cycles.seconds()),
        "polls_per_miss": traffic.polls / max(1, len(miss_ms)),
        "cache_hit_ratio": hit_ratio,
    }
    ratios = [o["total_time"] / o["lower_bound"] for _, o in warmed.outcomes]
    return end_to_end(result, setups, cycles, ratios)


WORKLOADS = {
    "scale-100k": scale_100k,
    "search-1k": search_1k,
    "paper-sweep": paper_sweep,
    "serve-mixed": serve_mixed,
}
