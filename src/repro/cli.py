"""Command-line interface: map instances, run sweeps, serve mappings.

::

    mimdmap example                          # worked example, Figs. 2-6/18-24
    mimdmap counterexamples                  # Sec. 2.2, Figs. 7-17 (exhaustive)
    mimdmap matrices                         # Sec. 3 matrix dump for the example
    mimdmap map --tasks N --topology F --size K [--mapper M] [--metrics a,b]
    mimdmap compare [--mappers a,b,...]      # all registered mappers, one instance
    mimdmap sweep SPEC.json [--workers N] [--out results.jsonl]  # scenario grid
    mimdmap list {mappers,clusterers,workloads,topologies,metrics,rules} [--json]
    mimdmap recommend --workload F --topology F --store F.jsonl  # learned default
    mimdmap serve [--port P] [--workers N] [--store F.jsonl]  # HTTP mapping service
    mimdmap serve --shard-index I --shard-count N [--queue-limit Q]  # fleet shard
    mimdmap gateway --shards host:port,host:port [--port P]  # fingerprint router
    mimdmap --version

The paper's Tables 1-3, ablations and studies are sweep specs:
``mimdmap sweep specs/table1_hypercube.json`` (see docs/architecture.md).
Also runnable as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

__all__ = ["main", "build_parser", "package_version"]


def package_version() -> str:
    """The installed distribution version, falling back to the source tree.

    ``pip install -e .`` exposes the ``mimd-mapping-repro`` metadata;
    plain ``PYTHONPATH=src`` runs fall back to ``repro.__version__``.
    """
    from importlib import metadata

    try:
        return metadata.version("mimd-mapping-repro")
    except metadata.PackageNotFoundError:
        from . import __version__

        return __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimdmap",
        description=(
            "Reproduction of 'A Mapping Strategy for MIMD Computers' "
            "(Yang, Bic & Nicolau, ICPP 1991)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("example", help="run the worked example (Figs. 2-6, 18-24)")
    sub.add_parser(
        "counterexamples",
        help="prove the Sec. 2.2 counterexamples by exhaustive search",
    )
    sub.add_parser("matrices", help="print the Sec. 3 matrices of the worked example")

    from .api import available_clusterers, available_mappers

    def add_instance_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tasks", type=int, default=80, help="problem graph size np")
        p.add_argument(
            "--topology",
            default="hypercube",
            help="topology family (hypercube, mesh, torus, ring, chain, star, "
            "complete, random)",
        )
        p.add_argument("--size", type=int, default=8, help="system graph size ns")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--clusterer",
            default="random",
            choices=available_clusterers(),
            help="clustering algorithm for the np -> na step",
        )
        p.add_argument(
            "--input",
            default=None,
            metavar="FILE",
            help="load the instance from a JSON file (see repro.io.save_instance) "
            "instead of generating a random one; --tasks/--topology/--size are "
            "then ignored",
        )

    p = sub.add_parser("map", help="map one random workload and print the report")
    add_instance_args(p)
    p.add_argument(
        "--mapper",
        default="critical",
        choices=available_mappers(),
        help="mapping algorithm (default: the paper's critical-edge strategy)",
    )
    p.add_argument("--gantt", action="store_true", help="print the schedule chart")
    p.add_argument(
        "--metrics",
        default=None,
        metavar="NAMES",
        help="comma-separated registry metrics to score the mapping with "
        "(see 'mimdmap list metrics'), e.g. 'hop_bytes,sim_makespan'",
    )
    p.add_argument(
        "--sim-gantt",
        action="store_true",
        help="simulate the mapping (serialized processors, link contention) "
        "and print the simulator's chart",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write the simulator's event trace as JSONL "
        "(see repro.sim.read_trace_jsonl)",
    )

    p = sub.add_parser(
        "compare", help="score every registered mapper on one random instance"
    )
    add_instance_args(p)
    p.add_argument(
        "--mappers",
        default=None,
        help="comma-separated mapper names (default: all registered)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size for running the mappers in parallel",
    )

    p = sub.add_parser(
        "sweep",
        help="run a scenario grid from a JSON spec, streaming JSONL results",
    )
    p.add_argument("spec", help="sweep spec file (see docs/architecture.md 'Sweeps')")
    p.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="JSONL output path; an existing file resumes the sweep "
        "(completed runs are reused, only missing ones execute)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size; results are identical at any worker count",
    )
    p.add_argument(
        "--quiet", action="store_true", help="omit per-run progress lines"
    )
    p.add_argument(
        "--no-table", action="store_true", help="omit the aggregate tables"
    )

    p = sub.add_parser(
        "lint",
        help="AST determinism & invariant linter (DET/INV rules, "
        "see README 'Static analysis')",
    )
    p.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: ./src if present, else .)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable report on stdout instead of text",
    )
    p.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="baseline of grandfathered findings "
        "(default: ./lint-baseline.json when present)",
    )
    p.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding as new",
    )
    p.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    p.add_argument(
        "--rules",
        default=None,
        metavar="NAMES",
        help="comma-separated rule subset (see --list-rules)",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (name, code, severity, summary)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size for checking files in parallel "
        "(findings are identical at any worker count)",
    )

    p = sub.add_parser("list", help="list one registry's component names")
    p.add_argument(
        "axis",
        choices=[
            "mappers",
            "clusterers",
            "workloads",
            "topologies",
            "metrics",
            "rules",
        ],
        help="which registry to list",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable listing (same shape as GET /registries/<kind>)",
    )

    p = sub.add_parser(
        "recommend",
        help="mine a result store for the learned-default mapper of a "
        "(workload family, topology family) key",
    )
    p.add_argument(
        "--workload",
        required=True,
        metavar="FAMILY",
        help="workload family key, e.g. 'fft' or 'layered_random'",
    )
    p.add_argument(
        "--topology",
        required=True,
        metavar="FAMILY",
        help="topology family key, e.g. 'hypercube' (specs like "
        "'hypercube:6' are reduced to their family)",
    )
    p.add_argument(
        "--store",
        required=True,
        metavar="FILE",
        help="the result store to mine (read-only: a live service can "
        "keep writing to it)",
    )
    p.add_argument(
        "--store-backend",
        default="auto",
        choices=["auto", "jsonl", "sqlite"],
        help="store backend (auto picks by suffix, like 'serve')",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable payload (same shape as GET /recommend)",
    )

    p = sub.add_parser(
        "serve",
        help="run the HTTP mapping service (POST /jobs, GET /jobs/<id>, "
        "GET /registries/<kind>)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port",
        type=int,
        default=8421,
        help="bind port (0 picks an ephemeral port, printed on startup)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="persistent worker-pool size (default: one per CPU)",
    )
    p.add_argument(
        "--store",
        default=None,
        metavar="FILE",
        help="durable result store; an existing file is recovered so "
        "previously solved jobs are served from cache across restarts",
    )
    p.add_argument(
        "--store-backend",
        default="auto",
        choices=["auto", "jsonl", "sqlite"],
        help="store persistence backend (auto picks by suffix: .db/.sqlite/"
        ".sqlite3 mean SQLite WAL, anything else JSONL)",
    )
    p.add_argument(
        "--store-sync",
        default="always",
        choices=["always", "never"],
        help="store durability: 'always' fsyncs every completed job before "
        "acknowledging it (default), 'never' only flushes to the OS",
    )
    p.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="in-memory LRU capacity (evictions fall back to the store)",
    )
    p.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        metavar="N",
        help="admission bound: beyond N unfinished jobs new submissions get "
        "429 + Retry-After instead of queueing (default: unbounded; 0 "
        "refuses all new work but still serves cached results)",
    )
    p.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="back-off hint sent with 429 responses",
    )
    p.add_argument(
        "--shard-index",
        type=int,
        default=None,
        metavar="I",
        help="serve as shard I of a --shard-count fleet: only fingerprints "
        "in this shard's keyspace slice are accepted (421 otherwise)",
    )
    p.add_argument(
        "--shard-count",
        type=int,
        default=None,
        metavar="N",
        help="total number of shards in the fleet (requires --shard-index)",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="on SIGTERM, wait up to this long for in-flight jobs to finish "
        "before closing the store and exiting",
    )
    p.add_argument(
        "--verbose", action="store_true", help="log every HTTP request to stderr"
    )

    p = sub.add_parser(
        "gateway",
        help="run the fingerprint-routing gateway over a fleet of "
        "'mimdmap serve' shards (POST /jobs routed by keyspace slice, "
        "GET /health aggregated)",
    )
    p.add_argument(
        "--shards",
        required=True,
        metavar="ADDRS",
        help="comma-separated shard addresses in fleet order, e.g. "
        "127.0.0.1:8431,127.0.0.1:8432 — order defines the keyspace slices, "
        "so every fleet member must use the same list",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port",
        type=int,
        default=8430,
        help="bind port (0 picks an ephemeral port, printed on startup)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=2,
        help="extra attempts against an unresponsive shard before a 502",
    )
    p.add_argument(
        "--retry-delay",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="pause between retry attempts",
    )
    p.add_argument(
        "--verbose", action="store_true", help="log every HTTP request to stderr"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    from .utils import GraphError, MappingError

    args = build_parser().parse_args(argv)
    command: str = args.command
    # The one error boundary: invalid input anywhere below (including an
    # instance too large for a dense path) exits 2 with one line.
    try:
        if command == "example":
            _run_example()
        elif command == "counterexamples":
            _run_counterexamples()
        elif command == "matrices":
            _run_matrices()
        elif command == "map":
            _run_map(args)
        elif command == "compare":
            _run_compare(args)
        elif command == "sweep":
            _run_sweep(args)
        elif command == "lint":
            _run_lint(args)
        elif command == "list":
            _run_list(args)
        elif command == "recommend":
            _run_recommend(args)
        elif command == "serve":
            _run_serve(args)
        elif command == "gateway":
            _run_gateway(args)
        else:  # pragma: no cover - argparse guards this
            raise SystemExit(f"unknown command {command!r}")
    except (GraphError, MappingError) as exc:
        raise _cli_error(command, str(exc)) from None
    return 0


def _run_example() -> None:
    from .experiments import format_worked_example, run_worked_example

    print(format_worked_example(run_worked_example()))


def _run_counterexamples() -> None:
    from .experiments import (
        format_counterexample,
        run_bokhari_counterexample,
        run_lee_counterexample,
    )

    print(format_counterexample(run_bokhari_counterexample()))
    print()
    print(format_counterexample(run_lee_counterexample()))


def _run_matrices() -> None:
    from .core import Assignment, collect_matrices
    from .io import format_paper_matrices
    from .workloads import (
        running_example_assignment_vector,
        running_example_clustered,
        running_example_system,
    )

    clustered = running_example_clustered()
    system = running_example_system()
    assignment = Assignment(running_example_assignment_vector())
    print(format_paper_matrices(collect_matrices(clustered, system, assignment)))


def _cli_error(command: str, message: str) -> "SystemExit":
    """One-line diagnostic on stderr and exit code 2 (usage/input error)."""
    print(f"mimdmap {command}: error: {message}", file=sys.stderr)
    return SystemExit(2)


def _build_instance(args: argparse.Namespace):
    """One (clustered graph, system) instance from the CLI knobs or a file.

    Bad input — an unreadable/invalid ``--input`` file or out-of-range
    ``--tasks``/``--size`` — exits with code 2 and a one-line message
    instead of a traceback.
    """
    from .api import get_clusterer
    from .core import ClusteredGraph
    from .topology import by_name
    from .workloads import layered_random_dag

    command: str = args.command
    if args.input is not None:
        graph, system, clustering, _ = _load_input(command, args.input)
    else:
        if args.tasks < 1:
            raise _cli_error(command, f"--tasks must be >= 1, got {args.tasks}")
        if args.size < 1:
            raise _cli_error(
                command, f"--size (processor count) must be >= 1, got {args.size}"
            )
        system = by_name(args.topology, args.size, rng=args.seed)
        graph = layered_random_dag(num_tasks=args.tasks, rng=args.seed)
        clustering = None
    if clustering is None:
        clustering = get_clusterer(
            args.clusterer, num_clusters=system.num_nodes
        ).cluster(graph, rng=args.seed)
    return ClusteredGraph(graph, clustering), system


def _load_input(command: str, path: str):
    """Load an instance file, converting every failure to a clean exit 2."""
    import json

    from .io import load_instance

    try:
        return load_instance(path)
    except OSError as exc:
        raise _cli_error(
            command, f"cannot read input file {path!r}: {exc.strerror or exc}"
        ) from None
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise _cli_error(
            command, f"input file {path!r} is not a valid instance: {exc}"
        ) from None


def _run_map(args: argparse.Namespace) -> None:
    from .analysis import compute_metrics, format_metrics, render_gantt
    from .api import solve_instance
    from .core import evaluate_assignment

    clustered, system = _build_instance(args)
    outcome = solve_instance(clustered, system, mapper=args.mapper, rng=args.seed)
    schedule = evaluate_assignment(clustered, system, outcome.assignment)

    extra = None
    if args.metrics is not None:
        from .metrics import evaluate_metrics

        specs = [name.strip() for name in args.metrics.split(",") if name.strip()]
        if not specs:
            raise _cli_error(
                "map", "--metrics needs at least one metric name "
                "(see 'mimdmap list metrics')"
            )
        extra = evaluate_metrics(clustered, system, outcome.assignment, specs)

    print(f"workload   : {clustered.graph}")
    print(f"machine    : {system}")
    print(f"clusterer  : {args.clusterer}")
    print(f"mapper     : {outcome.mapper}")
    print(f"lower bound: {outcome.lower_bound}")
    print(
        f"mapped     : {outcome.total_time} "
        f"({outcome.percent_of_lower_bound():.1f}% of the bound, "
        f"optimal: {outcome.is_provably_optimal})"
    )
    print(f"assignment : {outcome.assignment.assi.tolist()}")
    print()
    print(format_metrics(compute_metrics(schedule), extra=extra))
    if args.gantt:
        print()
        print(render_gantt(schedule, max_rows=60))
    if args.sim_gantt or args.trace_out is not None:
        from .analysis import render_sim_gantt
        from .sim import SimConfig, simulate, write_trace_jsonl

        config = SimConfig(serialize_processors=True, link_contention=True)
        result = simulate(clustered, system, outcome.assignment, config=config)
        if args.trace_out is not None:
            try:
                records = write_trace_jsonl(result, args.trace_out)
            except OSError as exc:
                raise _cli_error(
                    "map",
                    f"cannot write trace file {args.trace_out!r}: "
                    f"{exc.strerror or exc}",
                ) from None
            print()
            print(f"wrote {records} trace records to {args.trace_out}")
        if args.sim_gantt:
            print()
            print(
                render_sim_gantt(
                    result, num_processors=system.num_nodes, max_rows=60
                )
            )


def _run_compare(args: argparse.Namespace) -> None:
    from .api import available_mappers, compare, format_comparison

    if args.workers < 1:
        raise _cli_error("compare", f"--workers must be >= 1, got {args.workers}")
    mappers = None
    if args.mappers is not None:
        names = [name.strip() for name in args.mappers.split(",") if name.strip()]
        seen: set[str] = set()
        mappers = [m for m in names if not (m in seen or seen.add(m))]
        if not mappers:
            raise _cli_error(
                "compare",
                "--mappers needs at least one mapper name "
                f"(choose from {', '.join(available_mappers())})",
            )
        unknown = sorted(set(mappers) - set(available_mappers()))
        if unknown:
            raise _cli_error(
                "compare",
                f"unknown mapper(s) {', '.join(unknown)} "
                f"(choose from {', '.join(available_mappers())})",
            )
    clustered, system = _build_instance(args)
    outcomes = compare(
        clustered,
        system,
        mappers=mappers,
        seed=args.seed,
        max_workers=args.workers,
    )
    print(f"workload   : {clustered.graph}")
    print(f"machine    : {system}")
    print(f"clusterer  : {args.clusterer}")
    print()
    print(format_comparison(outcomes))


def _run_sweep(args: argparse.Namespace) -> None:
    import json

    from .api import format_sweep, load_spec, run_scenarios

    if args.workers < 1:
        raise _cli_error("sweep", f"--workers must be >= 1, got {args.workers}")
    try:
        scenarios = load_spec(args.spec)
    except OSError as exc:
        raise _cli_error(
            "sweep", f"cannot read spec file {args.spec!r}: {exc.strerror or exc}"
        ) from None
    except json.JSONDecodeError as exc:
        raise _cli_error(
            "sweep", f"spec file {args.spec!r} is not valid JSON: {exc}"
        ) from None

    total = sum(s.replicas for s in scenarios)
    print(f"sweep: {len(scenarios)} scenarios, {total} runs", flush=True)

    done = 0

    def progress(record: dict) -> None:
        nonlocal done
        done += 1
        if args.quiet:
            return
        o = record["outcome"]
        pct = 100.0 * o["total_time"] / o["lower_bound"]
        print(
            f"[{done}/{total}] {record['run']['label']} "
            f"(r{record['run']['replica']}): total={o['total_time']} "
            f"bound={o['lower_bound']} ({pct:.1f}%)",
            flush=True,
        )

    try:
        result = run_scenarios(
            scenarios, out=args.out, max_workers=args.workers, on_record=progress
        )
    except OSError as exc:
        raise _cli_error(
            "sweep",
            f"cannot write output file {args.out!r}: {exc.strerror or exc}",
        ) from None
    if args.out:
        print(
            f"wrote {len(result.records)} records to {args.out} "
            f"({result.executed} executed, {result.reused} reused)"
        )
    if not args.no_table:
        print()
        print(format_sweep(result.records))


def _run_lint(args: argparse.Namespace) -> None:
    """Run the determinism/invariant linter; exit 1 on new findings."""
    import os

    from .lint import (
        RULES,
        apply_baseline,
        format_json,
        format_text,
        load_baseline,
        rule_catalog,
        run_lint,
        save_baseline,
    )

    if args.list_rules:
        for rule in rule_catalog():
            print(
                f"{rule['code']:<8} {rule['name']:<24} "
                f"{rule['severity']:<8} {rule['summary']}"
            )
        return

    if args.workers < 1:
        raise _cli_error("lint", f"--workers must be >= 1, got {args.workers}")
    rule_names = None
    if args.rules is not None:
        rule_names = [name.strip() for name in args.rules.split(",") if name.strip()]
        if not rule_names:
            raise _cli_error(
                "lint", "--rules needs at least one rule name (see --list-rules)"
            )
        for name in rule_names:
            if name not in RULES:
                raise _cli_error("lint", f"unknown rule {name!r}; {RULES.suggest(name)}")

    paths = list(args.paths)
    if not paths:
        paths = ["src"] if os.path.isdir("src") else ["."]
    try:
        result = run_lint(paths, rule_names=rule_names, max_workers=args.workers)
    except FileNotFoundError as exc:
        raise _cli_error("lint", str(exc)) from None
    except OSError as exc:
        raise _cli_error("lint", f"cannot read {exc.filename!r}: {exc.strerror or exc}") from None

    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline:
        baseline_path = (
            "lint-baseline.json" if os.path.isfile("lint-baseline.json") else None
        )

    if args.update_baseline:
        if args.no_baseline:
            raise _cli_error(
                "lint", "--update-baseline and --no-baseline are contradictory"
            )
        target = args.baseline or "lint-baseline.json"
        try:
            count = save_baseline(target, result.findings)
        except OSError as exc:
            raise _cli_error(
                "lint",
                f"cannot write baseline {target!r}: {exc.strerror or exc}",
            ) from None
        print(f"wrote {count} grandfathered finding(s) to {target}")
        return

    entries: list = []
    if baseline_path is not None and not args.no_baseline:
        try:
            entries = load_baseline(baseline_path)
        except OSError as exc:
            raise _cli_error(
                "lint",
                f"cannot read baseline {baseline_path!r}: {exc.strerror or exc}",
            ) from None
    diff = apply_baseline(result.findings, entries)

    if args.json:
        print(format_json(result, diff))
    else:
        print(format_text(result, diff))
    if diff.new:
        raise SystemExit(1)


def _run_list(args: argparse.Namespace) -> None:
    import json

    from .api import registry_listing

    listing = registry_listing(args.axis)
    if args.json:
        print(json.dumps(listing, sort_keys=True))
    else:
        for name in listing["names"]:
            print(name)


def _run_recommend(args: argparse.Namespace) -> None:
    import json
    from pathlib import Path

    from .portfolio.recommend import mine_records
    from .service.backends import read_records

    if not Path(args.store).exists():
        raise _cli_error("recommend", f"store {args.store!r} does not exist")
    records = read_records(args.store, backend=args.store_backend)
    payload = mine_records(records, args.workload, args.topology)
    if payload is None:
        raise _cli_error(
            "recommend",
            f"no recorded history for workload={args.workload!r} "
            f"topology={args.topology!r} in {args.store}",
        )
    if args.json:
        print(json.dumps(payload, sort_keys=True))
        return
    best = payload["recommendation"]
    print(
        f"{payload['workload']} x {payload['topology']} "
        f"({payload['samples']} recorded solve(s)):"
    )
    for rank, entry in enumerate([best] + list(payload["alternatives"]), 1):
        params = (
            json.dumps(entry["params"], sort_keys=True) if entry["params"] else "{}"
        )
        print(
            f"  {rank}. {entry['mapper']} params={params} "
            f"mean%bound={entry['mean_percent_of_bound']:.2f} "
            f"mean_wall={entry['mean_wall_time']:.4f}s "
            f"samples={entry['samples']}"
        )


class _DrainRequested(BaseException):
    """SIGTERM arrived: stop accepting, finish in-flight work, exit 0.

    A ``BaseException``, as ``KeyboardInterrupt`` is: the signal can land
    while the main thread is inside ``process_request``, whose caller in
    ``socketserver`` logs and swallows any ``Exception`` and keeps serving.
    """


def _install_sigterm_drain() -> None:
    """Route SIGTERM through :class:`_DrainRequested` (POSIX main thread).

    ``serve_forever`` runs on the main thread, so raising from the
    handler unwinds the accept loop cleanly and lands in the drain
    sequence below — the shard's graceful-shutdown contract.
    """
    import signal

    def handler(signum: int, frame: object) -> None:
        raise _DrainRequested

    try:
        signal.signal(signal.SIGTERM, handler)
    except ValueError:  # pragma: no cover - non-main thread (embedded use)
        pass


def _run_serve(args: argparse.Namespace) -> None:
    from .service import MappingService, make_server
    from .service.shard import KeyspaceSlice

    if args.workers is not None and args.workers < 1:
        raise _cli_error("serve", f"--workers must be >= 1, got {args.workers}")
    if args.cache_size < 1:
        raise _cli_error("serve", f"--cache-size must be >= 1, got {args.cache_size}")
    if not (0 <= args.port <= 65535):
        raise _cli_error("serve", f"--port must be in [0, 65535], got {args.port}")
    if args.queue_limit is not None and args.queue_limit < 0:
        raise _cli_error(
            "serve", f"--queue-limit must be >= 0, got {args.queue_limit}"
        )
    if (args.shard_index is None) != (args.shard_count is None):
        raise _cli_error(
            "serve", "--shard-index and --shard-count must be given together"
        )
    keyspace = None
    if args.shard_index is not None:
        keyspace = KeyspaceSlice.for_shard(args.shard_index, args.shard_count)
    service = MappingService(
        max_workers=args.workers,
        store_path=args.store,
        store_backend=args.store_backend,
        store_sync=args.store_sync,
        cache_size=args.cache_size,
        queue_limit=args.queue_limit,
        retry_after=args.retry_after,
        keyspace=keyspace,
    )
    try:
        server = make_server(
            service, host=args.host, port=args.port, quiet=not args.verbose
        )
    except OSError as exc:
        service.close()
        raise _cli_error(
            "serve",
            f"cannot bind {args.host}:{args.port}: {exc.strerror or exc}",
        ) from None
    host, port = server.server_address[:2]
    if service.cache.store is not None:
        print(
            f"store: {service.cache.store.path} "
            f"[{service.cache.store.backend_name}] "
            f"({service.cache.store.recovered} result(s) recovered)",
            flush=True,
        )
    if keyspace is not None:
        print(
            f"shard {args.shard_index}/{args.shard_count}: keyspace "
            f"{keyspace.describe()}",
            flush=True,
        )
    _install_sigterm_drain()
    draining = False
    try:
        # The smoke tooling greps this exact line for the bound
        # (ephemeral) port.  Printed inside the try: a SIGTERM landing
        # between the announcement and the accept loop must still drain.
        print(f"serving on http://{host}:{port}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    except _DrainRequested:
        draining = True
        print("draining: no longer accepting, finishing in-flight jobs", flush=True)
    finally:
        server.server_close()
        left = service.drain(timeout=args.drain_timeout)
        service.close()
        if draining:
            if left:
                print(f"drain timeout: {left} job(s) abandoned", flush=True)
            else:
                print("drained: in-flight jobs finished, store flushed", flush=True)


def _run_gateway(args: argparse.Namespace) -> None:
    from .service.shard import make_gateway

    shards = [s.strip() for s in args.shards.split(",") if s.strip()]
    if not shards:
        raise _cli_error(
            "gateway", "--shards needs at least one host:port address"
        )
    if not (0 <= args.port <= 65535):
        raise _cli_error("gateway", f"--port must be in [0, 65535], got {args.port}")
    if args.retries < 0:
        raise _cli_error("gateway", f"--retries must be >= 0, got {args.retries}")
    if args.retry_delay < 0:
        raise _cli_error(
            "gateway", f"--retry-delay must be >= 0, got {args.retry_delay}"
        )
    try:
        server = make_gateway(
            shards,
            host=args.host,
            port=args.port,
            retries=args.retries,
            retry_delay=args.retry_delay,
            quiet=not args.verbose,
        )
    except OSError as exc:
        raise _cli_error(
            "gateway",
            f"cannot bind {args.host}:{args.port}: {exc.strerror or exc}",
        ) from None
    host, port = server.server_address[:2]
    for index, (address, keyslice) in enumerate(zip(server.shards, server.slices)):
        print(f"shard {index}: {address} owns {keyslice.describe()}", flush=True)
    _install_sigterm_drain()
    # The smoke tooling greps this exact line for the bound (ephemeral) port.
    print(f"serving on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except (KeyboardInterrupt, _DrainRequested):
        print("shutting down", flush=True)
    finally:
        server.server_close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
