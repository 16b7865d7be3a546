"""Probe-cost table and correctness guard for the delta evaluator.

Two modes:

* default — the per-call cost of :class:`repro.core.DeltaEvaluator` on
  layered random DAGs of 1k-100k tasks on ``hypercube:4``:
  ``probe_swap`` µs, ``evaluate`` µs and construction ms (medians of
  individually timed calls).  A probe is itself a full re-evaluation —
  one vectorized level sweep of the swapped placement — so the two
  columns measure the same code path.  ``--before FILE`` adds the
  columns of an earlier run (its ``--json-out``; e.g. the same script
  run with ``PYTHONPATH`` pointing at another checkout) and the
  before/after ratio.  The table is recorded under
  ``benchmarks/results/bench_delta.txt``.
* ``--smoke`` — the CI guard: randomized walks over the full operation
  mix (``probe_swap``, ``probe_move``, ``swap``, ``apply_swap``,
  ``revert``, ``evaluate``) on small instances across several
  topologies.  Every result is checked against
  :func:`repro.core.evaluate.total_time` on a shadow assignment (a stack
  that ``apply_swap`` pushes and ``revert`` pops), and the evaluator's
  aggregates against the scalar oracle (:meth:`DeltaEvaluator.verify`)
  after every step.  Exits 1 on any mismatch.  ``--json-out FILE``
  writes the report that ``benchmarks/check_budgets.py`` compares
  against ``benchmarks/budgets.json``.

Run from the repo root::

    python benchmarks/bench_delta.py                  # timings
    python benchmarks/bench_delta.py --json-out now.json --no-record
    python benchmarks/bench_delta.py --before before.json
    python benchmarks/bench_delta.py --smoke --json-out BENCH_delta.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.clustering import RandomClusterer
from repro.core import Assignment, ClusteredGraph, DeltaEvaluator, total_time
from repro.topology import hypercube, mesh2d, ring, torus2d
from repro.workloads import layered_random_dag

RESULTS_PATH = Path(__file__).parent / "results" / "bench_delta.txt"

#: Per-measurement time budget; every measurement takes at least
#: MIN_CALLS calls regardless.
BUDGET_SECONDS = 1.0
MIN_CALLS = 5


def build_instance(num_tasks: int, system, seed: int):
    graph = layered_random_dag(num_tasks=num_tasks, rng=seed)
    clustering = RandomClusterer(system.num_nodes).cluster(graph, rng=seed)
    return ClusteredGraph(graph, clustering), system


# -- smoke ----------------------------------------------------------------

OPS = ("probe_swap", "probe_move", "swap", "apply_swap", "revert", "evaluate")


def walk(ev: DeltaEvaluator, clustered, system, gen, steps: int) -> str | None:
    """One randomized walk over :data:`OPS`; the first mismatch, or None."""
    n = system.num_nodes
    shadow = [ev.assignment]  # shadow[-1] is the evaluator's assignment
    for step in range(steps):
        a, b = (int(x) for x in gen.choice(n, size=2, replace=False))
        op = OPS[int(gen.integers(len(OPS)))]
        current = probed = shadow[-1]
        if op == "probe_swap":
            got, probed = ev.probe_swap(a, b), current.swapped(a, b)
        elif op == "probe_move":
            other = current.cluster_on(b)
            got = ev.probe_move(a, b)
            probed = current if other == a else current.swapped(a, other)
        elif op == "swap":
            shadow = [current.swapped(a, b)]  # a plain commit drops the undo stack
            got = ev.swap(a, b)
        elif op == "apply_swap":
            shadow.append(current.swapped(a, b))
            got = ev.apply_swap(a, b)
        elif op == "revert":
            if len(shadow) == 1:
                continue
            shadow.pop()
            got = ev.revert()
        else:
            shadow = [Assignment.random(n, rng=int(gen.integers(2**31)))]
            got = ev.evaluate(shadow[-1])
        want = total_time(clustered, system, probed if op.startswith("probe") else shadow[-1])
        if got != want:
            return f"step {step}: {op} gave {got}, total_time says {want}"
        if ev.assignment != shadow[-1] or not ev.verify():
            return f"step {step}: state diverged from the oracle after {op}"
    while len(shadow) > 1:  # unwind what is still speculative
        shadow.pop()
        if ev.revert() != total_time(clustered, system, shadow[-1]) or not ev.verify():
            return "final unwind diverged from the oracle"
    return None


def smoke(seed: int, json_out: str | None = None) -> int:
    """Cross-check every operation against the oracle; returns the exit code."""
    started = time.perf_counter()
    cases = [
        ("hypercube-8", hypercube(3)),
        ("mesh-2x4", mesh2d(2, 4)),
        ("torus-3x3", torus2d(3, 3)),
        ("ring-6", ring(6)),
    ]
    steps = 90
    failures = 0
    for name, system in cases:
        clustered, system = build_instance(8 * system.num_nodes, system, seed)
        ev = DeltaEvaluator(clustered, system, Assignment.random(system.num_nodes, rng=seed))
        error = walk(ev, clustered, system, np.random.default_rng(seed), steps)
        if error is None:
            print(f"ok   {name}: {steps} operations match the oracle")
        else:
            print(f"FAIL {name}: {error}")
            failures += 1
    if json_out is not None:
        report = {
            "bench": "delta",
            "mode": "smoke",
            "seed": seed,
            "elapsed_seconds": time.perf_counter() - started,
            "cases": [name for name, _ in cases],
            "operations": list(OPS),
            "failures": failures,
        }
        Path(json_out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"[json report -> {json_out}]")
    if failures:
        print(f"SMOKE FAILED: {failures} case(s) diverged")
        return 1
    print("SMOKE PASSED: every operation matches the oracle bit-for-bit")
    return 0


# -- probe-cost table -------------------------------------------------------


def per_call(call, args: list) -> float:
    """Median seconds of ``call(*args[i])``, cycling through ``args``."""
    samples: list[float] = []
    spent = 0.0
    while len(samples) < MIN_CALLS or spent < BUDGET_SECONDS:
        arg = args[len(samples) % len(args)]
        t0 = time.perf_counter()
        call(*arg)
        dt = time.perf_counter() - t0
        samples.append(dt)
        spent += dt
    return float(np.median(samples))


def measure(num_tasks: int, seed: int) -> dict:
    clustered, system = build_instance(num_tasks, hypercube(4), seed)
    n = system.num_nodes
    gen = np.random.default_rng(seed)
    start = Assignment.random(n, rng=seed)
    construct = per_call(DeltaEvaluator, [(clustered, system, start)])
    ev = DeltaEvaluator(clustered, system, start)
    pairs = [tuple(int(x) for x in gen.choice(n, size=2, replace=False)) for _ in range(64)]
    probe = per_call(ev.probe_swap, pairs)
    others = [(Assignment.random(n, rng=int(s)),) for s in gen.integers(0, 2**31, 16)]
    evaluate = per_call(ev.evaluate, others)
    # The probes must agree with the stateless evaluation of the same moves.
    ev.evaluate(start)
    for a, b in pairs[:8]:
        if ev.probe_swap(a, b) != total_time(clustered, system, start.swapped(a, b)):
            raise SystemExit(f"FAIL: probe_swap disagrees with total_time at {num_tasks} tasks")
    return {
        "tasks": num_tasks,
        "edges": int(clustered.graph.num_edges),
        "construct_ms": 1e3 * construct,
        "probe_swap_us": 1e6 * probe,
        "evaluate_us": 1e6 * evaluate,
    }


COLUMNS = (("construct_ms", "ms"), ("probe_swap_us", "us"), ("evaluate_us", "us"))


def format_table(rows: list[dict], before: list[dict] | None) -> list[str]:
    by_tasks = {row["tasks"]: row for row in before or []}
    head = f"{'tasks':>7} {'edges':>7}"
    for key, _ in COLUMNS:
        head += f" | {key:>14}" if before is None else f" | {key + ' before/after':>28}"
    lines = [head]
    for row in rows:
        line = f"{row['tasks']:>7} {row['edges']:>7}"
        old = by_tasks.get(row["tasks"])
        for key, _ in COLUMNS:
            if before is None:
                line += f" | {row[key]:>14.1f}"
            elif old is None:
                line += f" | {'-':>10} {row[key]:>9.1f} {'':>7}"
            else:
                ratio = old[key] / row[key] if row[key] else float("inf")
                line += f" | {old[key]:>10.1f} {row[key]:>9.1f} {ratio:>6.1f}x"
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
    for size in sizes:
        rows.append(measure(size, seed))
        print(f"  measured {size} tasks", flush=True)
    lines = [
        "DeltaEvaluator per-call cost (benchmarks/bench_delta.py)",
        f"instance: layered_random DAG, random clusterer, hypercube:4, seed {seed}",
        "medians of individually timed calls; construct in ms, probe/evaluate in us",
    ]
    if before is not None:
        lines.append("before = the --before run, after = this run, ratio = before / after")
    lines += format_table(rows, before)
    report = "\n".join(lines)
    print(report)
    if json_out is not None:
        Path(json_out).write_text(json.dumps({"seed": seed, "rows": rows}, indent=2) + "\n")
        print(f"[json rows -> {json_out}]")
    if record:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(report + "\n")
        print(f"[recorded -> {RESULTS_PATH}]")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="1000,5000,20000,100000",
        help="comma-separated task counts for the timing table",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="correctness cross-check only (CI guard); exits 1 on mismatch",
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
        return smoke(args.seed, json_out=args.json_out)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        parser.error(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if not sizes:
        parser.error(f"--sizes needs at least one task count, got {args.sizes!r}")
    return timings(
        sizes, args.seed, not args.no_record, args.json_out, args.before
    )


if __name__ == "__main__":
    sys.exit(main())
