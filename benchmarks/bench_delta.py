"""Probe-cost table and correctness guard for the delta evaluator.

Two modes:

* default — the per-call cost of :class:`repro.core.DeltaEvaluator` on
  layered random DAGs of 300-100k tasks on ``hypercube:4``:
  ``probe_swap`` µs, ``evaluate`` µs and construction ms, plus the ms
  that :func:`repro.workloads.layered_random_dag` takes to generate the
  instance (medians of individually timed calls).  A probe is itself a
  full re-evaluation — one vectorized level sweep of the swapped
  placement — so the probe and evaluate columns measure the same code
  path.  ``--before FILE`` adds the
  columns of an earlier run (its ``--json-out``; e.g. the same script
  run with ``PYTHONPATH`` pointing at another checkout) and the
  before/after ratio.  The table is recorded under
  ``benchmarks/results/bench_delta.txt``.
* ``--smoke`` — the CI guard: randomized walks over the full operation
  mix (``probe_swap``, ``probe_move``, ``swap``, ``apply_swap``,
  ``revert``, ``evaluate``, the batch probes ``probe_swaps`` and
  ``probe_assignments``, and ``commit_probed``: a ``swap`` or
  ``apply_swap``, in either order, of the last pair ``probe_swap`` saw —
  probed right before, so that the commit reuses the probe's sweep, or
  earlier, with other operations in between that must discard it) on
  small instances across several
  topologies.  Every result — every row of a batch — is checked against
  :func:`repro.core.evaluate.total_time` on a shadow assignment (a stack
  that ``apply_swap`` pushes and ``revert`` pops), and the evaluator's
  end times against the independent validator
  :func:`repro.core.validate.verify_times` (:meth:`DeltaEvaluator.verify`)
  after every step.  The smoke also walks
  :class:`repro.core.CommVolumeDelta` on 64 processors (hop distances,
  weighted distances and Bokhari's 0/1 adjacency over upper-triangular
  pair weights, and a random asymmetric metric over directed cluster
  traffic): batches of ``delta_swaps`` over every processor or a random
  subset, between which ``swap`` commits run across several fold
  periods of the gain table; every scored entry is checked against the
  scalar ``delta_swap`` and the volume against a recount after every
  commit.  It walks :class:`repro.core.LinkLoadDelta` on ``hypercube:6``
  and a weighted 8 x 8 torus the same way, every score and commit
  checked against the most-loaded link of ``link_traffic``.
  Exits 1 on any mismatch.  ``--json-out FILE`` writes the report that
  ``benchmarks/check_budgets.py`` compares against
  ``benchmarks/budgets.json``.

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
from repro.core import (
    AbstractGraph,
    Assignment,
    ClusteredGraph,
    CommVolumeDelta,
    DeltaEvaluator,
    LinkLoadDelta,
    total_time,
)
from repro.metrics import link_traffic
from repro.topology import SystemGraph, hypercube, mesh2d, ring, torus2d
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

OPS = (
    "probe_swap",
    "probe_move",
    "swap",
    "apply_swap",
    "revert",
    "evaluate",
    "probe_swaps",
    "probe_assignments",
    "commit_probed",
)


def batch_mismatch(op: str, ev: DeltaEvaluator, clustered, system, current, gen):
    """One batch probe on 1-5 random rows, each row checked against
    ``total_time``; the first mismatch, or None."""
    n = system.num_nodes
    k = int(gen.integers(1, 6))
    if op == "probe_swaps":
        pairs = gen.integers(n, size=(k, 2))
        rows = [current if a == b else current.swapped(a, b) for a, b in pairs.tolist()]
        got = ev.probe_swaps(pairs)
    else:
        assis = np.stack([gen.permutation(n) for _ in range(k)])
        rows = [Assignment(assi) for assi in assis]
        got = ev.probe_assignments(assis)
    for i, (row, value) in enumerate(zip(rows, got.tolist())):
        want = total_time(clustered, system, row)
        if value != want:
            return f"{op} row {i} of {k} gave {value}, total_time says {want}"
    return None


def walk(ev: DeltaEvaluator, clustered, system, gen, steps: int) -> str | None:
    """One randomized walk over :data:`OPS`; the first mismatch, or None."""
    n = system.num_nodes
    shadow = [ev.assignment]  # shadow[-1] is the evaluator's assignment
    last_probe = (0, 1)
    for step in range(steps):
        a, b = (int(x) for x in gen.choice(n, size=2, replace=False))
        op = OPS[int(gen.integers(len(OPS)))]
        current = probed = shadow[-1]
        if op in ("probe_swaps", "probe_assignments"):
            error = batch_mismatch(op, ev, clustered, system, current, gen)
            if error is not None:
                return f"step {step}: {error}"
            got = ev.total_time  # the batch must leave the state alone
        elif op == "commit_probed":
            if gen.integers(2):
                last_probe = (a, b)
                probe = ev.probe_swap(a, b)
                if probe != total_time(clustered, system, current.swapped(a, b)):
                    return f"step {step}: probe_swap before a commit gave {probe}"
            x, y = last_probe if gen.integers(2) else last_probe[::-1]
            if gen.integers(2):
                shadow = [current.swapped(x, y)]
                got = ev.swap(x, y)
            else:
                shadow.append(current.swapped(x, y))
                got = ev.apply_swap(x, y)
        elif op == "probe_swap":
            last_probe = (a, b)
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


def volume_walk(ev: CommVolumeDelta, traffic, metric, gen, commits: int) -> str | None:
    """Batches of ``delta_swaps`` (every processor, or a random subset)
    with 0-5 ``swap`` commits after each, until ``commits`` are made;
    the first mismatch with ``delta_swap`` or a recount, or None."""
    n = metric.shape[0]
    made = 0
    while made < commits:
        cluster = int(gen.integers(n))
        procs = np.arange(n)
        if gen.integers(2):
            procs = gen.choice(n, int(gen.integers(1, n)))
        got = ev.delta_swaps(cluster, procs).tolist()
        for q, delta in zip(procs.tolist(), got):
            want = ev.delta_swap(cluster, int(ev.occupant_view[q]))
            if delta != want:
                return (
                    f"commit {made}: delta_swaps({cluster}) at {q} gave {delta}, "
                    f"delta_swap says {want}"
                )
        for _ in range(int(gen.integers(6))):
            a, b = (int(x) for x in gen.choice(n, size=2, replace=False))
            volume = ev.swap(a, b)
            p = ev.placement_view
            want = int((traffic * metric[np.ix_(p, p)]).sum())
            if volume != want:
                return (
                    f"commit {made}: swap({a}, {b}) gave volume {volume}, "
                    f"a recount says {want}"
                )
            made += 1
    return None


def load_walk(ev: LinkLoadDelta, clustered, system, gen, commits: int) -> str | None:
    """``delta_swaps`` over every processor with 0-3 ``swap`` commits
    after each batch, until ``commits`` are made; every score and commit
    against the most-loaded link of ``link_traffic`` for the swapped
    assignment.  The first mismatch, or None."""
    n = system.num_nodes

    def congestion(assignment: Assignment) -> int:
        return max(link_traffic(clustered, system, assignment).values(), default=0)

    made = 0
    while made < commits:
        cluster = int(gen.integers(n))
        current = ev.assignment
        got = ev.delta_swaps(cluster, np.arange(n)).tolist()
        for q, delta in enumerate(got):
            other = int(ev.occupant_view[q])
            want = 0 if other == cluster else (
                congestion(current.swapped(cluster, other)) - ev.volume
            )
            if delta != want:
                return (
                    f"commit {made}: delta_swaps({cluster}) at {q} gave {delta}, "
                    f"a recount says {want}"
                )
        for _ in range(int(gen.integers(4))):
            a, b = (int(x) for x in gen.choice(n, size=2, replace=False))
            current = current.swapped(a, b)
            load, want = ev.swap(a, b), congestion(current)
            if load != want:
                return (
                    f"commit {made}: swap({a}, {b}) gave load {load}, "
                    f"a recount says {want}"
                )
            made += 1
    return None


def cluster_traffic(clustered) -> np.ndarray:
    """What each cluster sends each other cluster, ``na x na``."""
    labels = clustered.clustering.labels
    srcs, dsts, _ = clustered.graph.edge_arrays()
    na = clustered.num_clusters
    traffic = np.zeros((na, na), dtype=np.int64)
    np.add.at(traffic, (labels[srcs], labels[dsts]), clustered.cross_out_weights)
    np.fill_diagonal(traffic, 0)
    return traffic


def volume_cases(seed: int):
    """``(name, traffic, system, metric)`` for the CommVolumeDelta walks:
    symmetric pair weights as upper-triangular traffic, and a random
    asymmetric metric under the graph's directed cluster traffic."""
    weighted = SystemGraph(
        torus2d(8, 8).sys_edge,
        name="torus-8x8-w",
        link_weights=np.random.default_rng(seed).integers(1, 6, size=(64, 64)),
    )
    cube = hypercube(6)
    clustered = build_instance(4 * 64, cube, seed)[0]
    abstract = AbstractGraph(clustered)
    for name, system, metric in (
        ("volume hypercube-64", cube, None),
        ("volume torus-8x8 weighted", weighted, None),
        ("cardinality hypercube-64", cube, cube.sys_edge),
    ):
        weights = abstract.abs_edge if metric is not None else abstract.weights
        yield name, np.triu(weights, 1), system, metric
    skew = np.random.default_rng(seed).integers(0, 9, size=(64, 64))
    yield "asymmetric metric hypercube-64", cluster_traffic(clustered), cube, skew


def load_cases(seed: int):
    """``(name, clustered, system)`` for the LinkLoadDelta walks."""
    weighted = SystemGraph(
        torus2d(8, 8).sys_edge,
        name="torus-8x8-w",
        link_weights=np.random.default_rng(seed).integers(1, 6, size=(64, 64)),
    )
    for name, system in (
        ("link loads hypercube-64", hypercube(6)),
        ("link loads torus-8x8 weighted", weighted),
    ):
        yield name, build_instance(4 * 64, system, seed)[0], system


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
    commits = 40
    for name, traffic, system, metric in volume_cases(seed):
        start = Assignment.random(system.num_nodes, rng=seed)
        ev = CommVolumeDelta(traffic, system, start, metric=metric)
        pairs = system.shortest if metric is None else metric
        error = volume_walk(ev, traffic, pairs, np.random.default_rng(seed), commits)
        cases.append((name, system))
        if error is None:
            print(f"ok   {name}: every score over {commits} commits matches the oracle")
        else:
            print(f"FAIL {name}: {error}")
            failures += 1
    commits = 12
    for name, clustered, system in load_cases(seed):
        start = Assignment.random(system.num_nodes, rng=seed)
        ev = LinkLoadDelta(cluster_traffic(clustered), system, start)
        error = load_walk(ev, clustered, system, np.random.default_rng(seed), commits)
        cases.append((name, system))
        if error is None:
            print(f"ok   {name}: every score over {commits} commits matches the oracle")
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
            "operations": [*OPS, "delta_swaps", "volume_swap", "load_swap"],
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
    generate = per_call(lambda: layered_random_dag(num_tasks=num_tasks, rng=seed), [()])
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
        "generate_ms": 1e3 * generate,
        "construct_ms": 1e3 * construct,
        "probe_swap_us": 1e6 * probe,
        "evaluate_us": 1e6 * evaluate,
    }


COLUMNS = (
    ("generate_ms", "ms"),
    ("construct_ms", "ms"),
    ("probe_swap_us", "us"),
    ("evaluate_us", "us"),
)


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
        "Instance generation and DeltaEvaluator per-call cost (benchmarks/bench_delta.py)",
        f"instance: layered_random DAG, random clusterer, hypercube:4, seed {seed}",
        "medians of individually timed calls; generate/construct in ms, probe/evaluate in us",
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
        default="300,1000,5000,20000,100000",
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
