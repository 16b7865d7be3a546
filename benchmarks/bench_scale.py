"""Scale benchmark: the array-native core on 100k-task instances.

Times the full large-instance pipeline — layered random DAG generation,
clustering, the lower bound, the multilevel mapper, and the makespan
evaluation — at sizes far beyond the paper's 30-300 tasks, on the
``hypercube:10`` (1024-processor) machine.  Everything runs on the CSR /
schedule-plan fast paths: no O(n^2) matrix is ever materialized.

Two modes:

* default — one row per ``--sizes`` entry (10k-100k tasks), recording
  ``benchmarks/results/bench_scale.txt``.
* ``--smoke`` — the pinned CI instance (100k tasks on ``hypercube:10``).
  With ``--json-out FILE`` it emits the machine-readable report that
  ``benchmarks/check_budgets.py`` checks against the ``scale`` entry in
  ``benchmarks/budgets.json``.

Run from the repo root::

    python benchmarks/bench_scale.py                  # full table
    python benchmarks/bench_scale.py --sizes 10000,100000
    python benchmarks/bench_scale.py --smoke --json-out BENCH_scale.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.api import build_topology, get_mapper
from repro.clustering import RandomClusterer
from repro.core import ClusteredGraph
from repro.core.evaluate import total_time
from repro.core.ideal import lower_bound
from repro.workloads import layered_random_dag

RESULTS_PATH = Path(__file__).parent / "results" / "bench_scale.txt"


def comm_volume(clustered, system, assignment) -> int:
    """Hop-weighted communication volume, straight off the cross-edge
    arrays (no dense matrix)."""
    labels = clustered.clustering.labels
    hosts = assignment.placement[labels]
    srcs, dsts, _ = clustered.graph.edge_arrays()
    w = clustered.cross_out_weights
    return int((w * system.shortest[hosts[srcs], hosts[dsts]]).sum())


def run_instance(num_tasks: int, topology: str, seed: int) -> dict:
    """Time every stage of the large-instance pipeline once."""
    t0 = time.perf_counter()
    graph = layered_random_dag(num_tasks=num_tasks, rng=seed)
    t1 = time.perf_counter()
    system = build_topology(topology)
    _ = system.shortest  # the all-pairs table, charged to setup
    clustering = RandomClusterer(system.num_nodes).cluster(graph, rng=seed)
    clustered = ClusteredGraph(graph, clustering)
    t2 = time.perf_counter()
    bound = lower_bound(clustered)
    t3 = time.perf_counter()
    mapper = get_mapper("multilevel")
    outcome = mapper.map(clustered, system, rng=seed)
    t4 = time.perf_counter()
    makespan = total_time(clustered, system, outcome.assignment)
    volume = comm_volume(clustered, system, outcome.assignment)
    t5 = time.perf_counter()
    return {
        "tasks": num_tasks,
        "edges": int(graph.num_edges),
        "generate_seconds": t1 - t0,
        "setup_seconds": t2 - t1,
        "bound_seconds": t3 - t2,
        "map_seconds": t4 - t3,
        "eval_seconds": t5 - t4,
        "lower_bound": int(bound),
        "total_time": int(makespan),
        "comm_volume": int(volume),
    }


def format_row(topology: str, row: dict) -> str:
    return (
        f"  {row['tasks']:>7} tasks ({row['edges']:>7} edges) on {topology}: "
        f"gen={row['generate_seconds']:.2f}s setup={row['setup_seconds']:.2f}s "
        f"bound={row['bound_seconds']:.2f}s map={row['map_seconds']:.2f}s "
        f"eval={row['eval_seconds']:.2f}s | lb={row['lower_bound']} "
        f"total={row['total_time']} comm={row['comm_volume']}"
    )


def full(sizes: list[int], topology: str, seed: int, record: bool) -> int:
    report_lines = [
        "Array-native core at scale (benchmarks/bench_scale.py)",
        f"workload: layered_random, clusterer: random, mapper: multilevel, "
        f"seed: {seed}",
    ]
    for size in sizes:
        row = run_instance(size, topology, seed)
        line = format_row(topology, row)
        print(line)
        report_lines.append(line)
    if record:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text("\n".join(report_lines) + "\n")
        print(f"[recorded -> {RESULTS_PATH}]")
    return 0


def smoke(tasks: int, topology: str, seed: int, json_out: str | None) -> int:
    started = time.perf_counter()
    row = run_instance(tasks, topology, seed)
    print(format_row(topology, row))
    elapsed = time.perf_counter() - started
    print(f"elapsed={elapsed:.2f}s")
    if json_out is not None:
        report = {
            "bench": "scale",
            "mode": "smoke",
            "topology": topology,
            "seed": seed,
            "elapsed_seconds": elapsed,
            **row,
        }
        Path(json_out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"[json report -> {json_out}]")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="10000,30000,100000",
        help="comma-separated task counts for the full table",
    )
    parser.add_argument(
        "--topology", default="hypercube:10", help="topology spec (1024 nodes)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="the pinned CI instance only (CI budget gate)",
    )
    parser.add_argument(
        "--tasks", type=int, default=100_000, help="smoke-mode instance size"
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
        return smoke(args.tasks, args.topology, args.seed, args.json_out)
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
