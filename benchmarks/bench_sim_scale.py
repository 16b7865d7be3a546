"""Scale/fidelity benchmark for the network simulator behind the metrics.

Times :func:`repro.sim.simulate` on large layered random DAGs under the
paper-exact configuration and the relaxed ones the simulator-backed
metrics use (serialized processors + link contention, and bounded-FIFO
backpressure), reporting wall time and event throughput.  The trace
records are built on their first read, which is timed on its own
(``trace_s``, after ``wall``, which it is not part of).

Two modes:

* default — one row per ``--sizes`` entry (1k-10k tasks) on
  ``--topology`` (default ``hypercube:6``) and per configuration.
  Records ``benchmarks/results/bench_sim_scale.txt``.
* ``--smoke`` — one smaller instance sized for CI; with
  ``--json-out FILE`` it emits a machine-readable report for
  ``benchmarks/check_budgets.py``: ``elapsed_seconds``,
  ``makespan_ratio`` (paper-config simulated makespan / analytic total
  time — contractually 1.0), and a ``failures`` count of fidelity
  cross-checks (relaxed configs must never beat the analytic bound,
  repeated runs must be bit-identical, and the analytic per-link
  traffic must equal the simulator's busy time).

Run from the repo root::

    python benchmarks/bench_sim_scale.py                  # full table
    python benchmarks/bench_sim_scale.py --sizes 1000,5000
    python benchmarks/bench_sim_scale.py --smoke --json-out BENCH_sim_scale.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.api import build_topology
from repro.clustering import RandomClusterer
from repro.core import Assignment, ClusteredGraph, evaluate_assignment
from repro.sim import SimConfig, simulate
from repro.workloads import layered_random_dag

RESULTS_PATH = Path(__file__).parent / "results" / "bench_sim_scale.txt"

CONFIGS = [
    ("paper", SimConfig()),
    ("serialized+contention", SimConfig(True, True)),
    ("fifo=1", SimConfig(True, True, fifo_depth=1)),
]


def build_instance(num_tasks: int, topology: str, seed: int):
    system = build_topology(topology)
    graph = layered_random_dag(num_tasks=num_tasks, rng=seed)
    clustering = RandomClusterer(system.num_nodes).cluster(graph, rng=seed)
    clustered = ClusteredGraph(graph, clustering)
    assignment = Assignment.random(system.num_nodes, rng=seed)
    return clustered, system, assignment


def run_config(label: str, config: SimConfig, clustered, system, assignment):
    start = time.perf_counter()
    result = simulate(clustered, system, assignment, config)
    simulated = time.perf_counter()
    events = len(result.trace.tasks) + len(result.trace.transfers)
    wall = simulated - start
    return {
        "config": label,
        "wall_time": wall,
        "trace_seconds": time.perf_counter() - simulated,
        "makespan": int(result.makespan),
        "events": events,
        "events_per_second": events / max(wall, 1e-9),
        "fifo_stall_time": int(result.fifo_stall_time),
    }


def format_rows(size: int, topology: str, rows: list[dict]) -> list[str]:
    lines = [f"{size} tasks on {topology}:"]
    for r in rows:
        lines.append(
            f"  {r['config']:<22} makespan={r['makespan']:>8} "
            f"events={r['events']:>8} wall={r['wall_time']:>8.3f}s "
            f"trace_s={r['trace_seconds']:>7.3f}s "
            f"({r['events_per_second']:>10.0f} ev/s)"
        )
    return lines


def full(sizes: list[int], topology: str, seed: int, record: bool) -> int:
    report_lines = [
        "Simulator throughput under the metric configurations "
        "(benchmarks/bench_sim_scale.py)",
        f"workload: layered_random, clusterer: random, seed: {seed}",
    ]
    for size in sizes:
        clustered, system, assignment = build_instance(size, topology, seed)
        rows = [
            run_config(label, config, clustered, system, assignment)
            for label, config in CONFIGS
        ]
        lines = format_rows(size, topology, rows)
        print("\n".join(lines))
        report_lines.extend(lines)
    if record:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text("\n".join(report_lines) + "\n")
        print(f"[recorded -> {RESULTS_PATH}]")
    return 0


def fidelity_failures(clustered, system, assignment, analytic: int) -> int:
    """Cross-checks that must hold for the metric values to mean anything."""
    from repro.metrics import link_traffic

    failures = 0
    for _label, config in CONFIGS[1:]:
        if simulate(clustered, system, assignment, config).makespan < analytic:
            failures += 1  # a relaxation can never beat the paper model
    cfg = SimConfig(True, True, fifo_depth=1)
    first = simulate(clustered, system, assignment, cfg)
    second = simulate(clustered, system, assignment, cfg)
    if first.makespan != second.makespan or first.trace != second.trace:
        failures += 1  # the engine must be deterministic
    contended = simulate(clustered, system, assignment, SimConfig(True, True))
    if link_traffic(clustered, system, assignment) != (
        contended.trace.link_busy_time()
    ):
        failures += 1  # analytic congestion == simulated busy time
    return failures


def smoke(tasks: int, topology: str, seed: int, json_out: str | None) -> int:
    started = time.perf_counter()
    clustered, system, assignment = build_instance(tasks, topology, seed)
    analytic = evaluate_assignment(clustered, system, assignment).total_time
    rows = [
        run_config(label, config, clustered, system, assignment)
        for label, config in CONFIGS
    ]
    makespan_ratio = rows[0]["makespan"] / max(analytic, 1)
    failures = fidelity_failures(clustered, system, assignment, analytic)
    elapsed = time.perf_counter() - started
    print("\n".join(format_rows(tasks, topology, rows)))
    print(
        f"makespan_ratio={makespan_ratio:.4f} failures={failures} "
        f"elapsed={elapsed:.2f}s"
    )
    if json_out is not None:
        report = {
            "bench": "sim_scale",
            "mode": "smoke",
            "tasks": tasks,
            "topology": topology,
            "seed": seed,
            "elapsed_seconds": elapsed,
            "configs": rows,
            "analytic_total_time": int(analytic),
            "makespan_ratio": makespan_ratio,
            "failures": failures,
        }
        Path(json_out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"[json report -> {json_out}]")
    return 0 if not failures else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="1000,5000",
        help="comma-separated task counts for the full table (1k-10k)",
    )
    parser.add_argument("--topology", default="hypercube:6", help="topology spec")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one CI-sized instance; combine with --json-out for the gate",
    )
    parser.add_argument(
        "--tasks", type=int, default=2000, help="smoke-mode instance size"
    )
    parser.add_argument(
        "--smoke-topology", default="hypercube:5", help="smoke-mode topology"
    )
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="write a machine-readable smoke report for the CI budget gate",
    )
    parser.add_argument(
        "--no-record", action="store_true", help="do not write the results file"
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args.tasks, args.smoke_topology, args.seed, args.json_out)
    if args.json_out is not None:
        parser.error("--json-out is a --smoke option (the CI gate input)")
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        parser.error(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if not sizes:
        parser.error(f"--sizes needs at least one task count, got {args.sizes!r}")
    return full(sizes, args.topology, args.seed, record=not args.no_record)


if __name__ == "__main__":
    sys.exit(main())
