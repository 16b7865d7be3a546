"""Clustering-phase timings and CI smoke for the slow clusterers.

Times :class:`repro.clustering.DscClusterer`,
:class:`repro.clustering.EdgeZeroClusterer` and
:class:`repro.clustering.LinearClusterer` on ``layered_random`` DAGs
(:func:`repro.workloads.layered_random_dag`).  Each cell is one
``cluster`` call, timed once, with the SHA-256 prefix of its labels.

Two modes:

* default — every clusterer at 300, 1k and 5k tasks (``--sizes``) and
  8 and 64 clusters.  ``dsc`` at 5k tasks is left out: its pass leaves
  2,191 clusters, so reaching 8 takes 2,183 merge rounds, and a run
  stopped at 15 minutes had finished 700.  ``--before FILE`` adds the
  columns of an earlier run (its ``--json-out``; e.g. the same script
  run with ``PYTHONPATH`` pointing at another checkout), the
  before/after ratio and whether the labels are the same.  The table is
  recorded under ``benchmarks/results/bench_clustering.txt``.
* ``--smoke`` — ``dsc`` at 300 tasks and ``edge_zero`` at 1k, each at
  8 and 64 clusters.  ``--json-out FILE`` writes the report that
  ``benchmarks/check_budgets.py`` compares against
  ``benchmarks/budgets.json``: ``elapsed_seconds`` and a ``failures``
  count of clusterings that do not have exactly the requested number of
  non-empty clusters.

Run from the repo root::

    python benchmarks/bench_clustering.py                  # timings
    python benchmarks/bench_clustering.py --json-out now.json --no-record
    python benchmarks/bench_clustering.py --before before.json
    python benchmarks/bench_clustering.py --smoke --json-out BENCH_clustering.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.clustering import DscClusterer, EdgeZeroClusterer, LinearClusterer
from repro.workloads import layered_random_dag

RESULTS_PATH = Path(__file__).parent / "results" / "bench_clustering.txt"

CLUSTERERS = {
    "dsc": DscClusterer,
    "edge_zero": EdgeZeroClusterer,
    "linear": LinearClusterer,
}
CLUSTER_COUNTS = (8, 64)
#: Largest task count each clusterer is timed at in the full run.
MAX_TASKS = {"dsc": 1000, "edge_zero": 5000, "linear": 5000}
SMOKE_CELLS = (("dsc", 300), ("edge_zero", 1000))


def measure(name: str, num_tasks: int, clusters: int, seed: int) -> dict:
    """One timed ``cluster`` call on a fresh instance."""
    graph = layered_random_dag(num_tasks=num_tasks, rng=seed)
    start = time.perf_counter()
    clustering = CLUSTERERS[name](clusters).cluster(graph, rng=seed)
    seconds = time.perf_counter() - start
    labels = np.asarray(clustering.labels, dtype=np.int64)
    return {
        "clusterer": name,
        "tasks": num_tasks,
        "clusters": clusters,
        "seconds": seconds,
        "labels": hashlib.sha256(labels.tobytes()).hexdigest()[:16],
        "valid": bool(
            clustering.num_clusters == clusters
            and (np.bincount(labels, minlength=clusters) > 0).all()
        ),
    }


def _cell(row: dict) -> tuple[str, int, int]:
    return row["clusterer"], row["tasks"], row["clusters"]


def format_table(rows: list[dict], before: list[dict] | None) -> list[str]:
    old = {_cell(r): r for r in before or []}
    head = f"{'clusterer':<10} {'tasks':>6} {'clusters':>8} |"
    head += f" {'seconds':>9} {'labels':>16}" if before is None else (
        f" {'before_s':>9} {'after_s':>9} {'ratio':>7} {'labels':>16} {'same':>5}"
    )
    lines = [head]
    for row in rows:
        line = f"{row['clusterer']:<10} {row['tasks']:>6} {row['clusters']:>8} |"
        prev = old.get(_cell(row))
        if before is None:
            line += f" {row['seconds']:>9.3f} {row['labels']:>16}"
        elif prev is None:
            line += f" {'-':>9} {row['seconds']:>9.3f} {'':>7}"
            line += f" {row['labels']:>16} {'-':>5}"
        else:
            ratio = prev["seconds"] / row["seconds"] if row["seconds"] else float("inf")
            same = "yes" if prev["labels"] == row["labels"] else "NO"
            line += (
                f" {prev['seconds']:>9.3f} {row['seconds']:>9.3f} {ratio:>6.1f}x"
                f" {row['labels']:>16} {same:>5}"
            )
        lines.append(line)
    return lines


def timings(
    sizes: list[int],
    seed: int,
    record: bool,
    json_out: str | None,
    before_path: str | None,
) -> int:
    before = json.loads(Path(before_path).read_text())["rows"] if before_path else None
    rows = []
    for name in CLUSTERERS:
        for size in sizes:
            if size > MAX_TASKS[name]:
                continue
            for clusters in CLUSTER_COUNTS:
                rows.append(measure(name, size, clusters, seed))
                print(f"  {name} {size} tasks {clusters} clusters: "
                      f"{rows[-1]['seconds']:.3f}s", flush=True)
    lines = [
        "Clustering-phase wall time (benchmarks/bench_clustering.py)",
        f"instance: layered_random DAG, seed {seed}; one timed cluster() call per row",
        "labels = SHA-256 prefix of the cluster labels",
    ]
    if before is not None:
        lines.append(
            "before = the --before run, after = this run, ratio = before / after, "
            "same = identical labels"
        )
    lines += format_table(rows, before)
    report = "\n".join(lines)
    print(report)
    if json_out is not None:
        rows_json = json.dumps({"seed": seed, "rows": rows}, indent=2)
        Path(json_out).write_text(rows_json + "\n")
        print(f"[json rows -> {json_out}]")
    if record:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(report + "\n")
        print(f"[recorded -> {RESULTS_PATH}]")
    return 0


def smoke(seed: int, json_out: str | None) -> int:
    started = time.perf_counter()
    rows = [
        measure(name, size, clusters, seed)
        for name, size in SMOKE_CELLS
        for clusters in CLUSTER_COUNTS
    ]
    elapsed = time.perf_counter() - started
    failures = sum(not row["valid"] for row in rows)
    print("\n".join(format_table(rows, None)))
    print(f"failures={failures} elapsed={elapsed:.2f}s")
    if json_out is not None:
        report = {
            "bench": "clustering",
            "mode": "smoke",
            "seed": seed,
            "elapsed_seconds": elapsed,
            "rows": rows,
            "failures": failures,
        }
        Path(json_out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"[json report -> {json_out}]")
    return 0 if not failures else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="300,1000,5000",
        help="comma-separated task counts for the timing table",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="dsc at 300 tasks and edge_zero at 1k only (CI guard)",
    )
    parser.add_argument(
        "--no-record", action="store_true", help="do not write the results file"
    )
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="write the smoke report (CI budget gate input) or the timing rows",
    )
    parser.add_argument(
        "--before",
        default=None,
        metavar="FILE",
        help="timing rows (--json-out) of an earlier run to compare against",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args.seed, args.json_out)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        parser.error(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if not sizes:
        parser.error(f"--sizes needs at least one task count, got {args.sizes!r}")
    return timings(sizes, args.seed, not args.no_record, args.json_out, args.before)


if __name__ == "__main__":
    sys.exit(main())
