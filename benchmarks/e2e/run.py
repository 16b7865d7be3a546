"""One-command end-to-end benchmark of the mapping library.

Run from the repository root::

    python benchmarks/e2e/run.py --seed 0 --out R.json            # all workloads
    python benchmarks/e2e/run.py --seed 0 --trace --out T.json    # per-layer
    python benchmarks/e2e/run.py --workload search-1k --seed 3 --seconds 20 --trace 0

Without ``--workload`` every workload runs in a fresh Python process;
with ``--workload`` the workload runs in this process.  Either way the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; untraced runs
report the ``end_to_end`` metrics of ``BENCHMARK.json``, traced runs its
``per_layer`` metrics.  Any failed correctness check makes ``correct``
false and the exit status 1.  ``--out`` writes every run's raw samples,
counts and layer table for ``compare.py``.  Scratch files (stores, sweep
output, span files) live in a temporary directory inside the checkout
that is removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("scale-100k", "search-1k", "paper-sweep", "serve-mixed")


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units, bounds and run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def ensure_source() -> None:
    """Import ``repro`` from this checkout's ``src``, never an installed copy."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no repro sources under {ROOT / 'src'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        raise SystemExit(f"run.py: {ROOT / 'BENCHMARK.json'} is missing")
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def scratch_dir() -> tempfile.TemporaryDirectory:
    """A temporary directory inside the checkout, removed on exit."""
    return tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-")


def run_here(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Run one workload in this process; returns its run record."""
    import workloads

    spec = load_spec()
    kind = "per_layer" if trace else "end_to_end"
    started = time.perf_counter()
    with scratch_dir() as work:
        cfg = workloads.Config(seed, seconds, trace, quick, Path(work))
        result = workloads.WORKLOADS[name](cfg)
    missing = [m["name"] for m in spec[kind] if m["name"] not in result.metrics]
    if missing:
        raise RuntimeError(f"{name} did not measure {', '.join(missing)}")
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "quick": quick,
        "seconds": seconds,
        "wall_s": time.perf_counter() - started,
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "errors": result.errors[:20],
        "metrics": {m["name"]: result.metrics[m["name"]] for m in spec[kind]},
        "units": {m["name"]: m["unit"] for m in spec[kind]},
        "counts": result.counts,
        "samples": result.samples,
        "detail": result.detail,
        "layers": result.layers,
    }


def report(run: dict) -> None:
    """Human-readable lines for one run (the JSON line comes last)."""
    mode = "traced" if run["trace"] else "untraced"
    print(
        f"{run['workload']} seed={run['seed']} {mode}: attempted {run['attempted']}, "
        f"failed {run['failed']}, wall {run['wall_s']:.1f} s"
    )
    for name, value in run["metrics"].items():
        count = run["counts"].get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"  {name:<40} {value:>14.6g} {run['units'][name]}{suffix}")
    for name, value in run["detail"].items():
        print(f"  detail {name:<33} {value:>14.6g}")
    if run["layers"]:
        print("  layer                                  calls    seconds  self s   p50 ms")
        for row in sorted(run["layers"], key=lambda r: -r["self_seconds"])[:25]:
            print(
                f"  {row['name']:<36} {row['calls']:>8} {row['seconds']:>9.3f}"
                f" {row['self_seconds']:>8.3f} {row['p50_ms']:>8.3f}"
            )
    for error in run["errors"]:
        print(f"  ERROR {error}", file=sys.stderr)


def result_line(runs: list[dict]) -> dict:
    """The final result line; several runs are keyed ``workload:metric``."""
    if len(runs) == 1:
        metrics = {
            name: {"value": value, "unit": runs[0]["units"][name]}
            for name, value in runs[0]["metrics"].items()
        }
    else:
        metrics = {
            f"{run['workload']}:{name}": {"value": value, "unit": run["units"][name]}
            for run in runs
            for name, value in run["metrics"].items()
        }
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }


def write_runs(path: Path, runs: list[dict]) -> None:
    """One run per line, so result files diff and grep well."""
    body = ",\n".join(json.dumps(run) for run in runs)
    path.write_text(f'{{"env": {json.dumps(environment())},\n"runs": [\n{body}\n]}}\n')


def run_child(name: str, seed: int, args: argparse.Namespace, out: Path) -> dict:
    """One workload in a fresh interpreter; returns its run record."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(int(args.trace)),
        "--out", str(out),
    ]
    if args.quick:
        command.append("--quick")
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = child.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if child.returncode not in (0, 1) or not out.is_file():
        raise SystemExit(f"run.py: {name} seed {seed} crashed (exit {child.returncode})")
    return json.loads(out.read_text())["runs"][0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="per-layer run: --trace, or --trace 0|1")
    parser.add_argument("--quick", action="store_true",
                        help="small instances for a self-test of a few seconds")
    parser.add_argument("--out", type=Path, default=None, help="write raw results here")
    args = parser.parse_args(argv)
    # A terminated run still stops its servers and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ensure_source()
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])

    if args.workload is not None:
        runs = [run_here(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)]
        report(runs[0])
    else:
        with scratch_dir() as scratch:
            runs = [
                run_child(name, args.seed, args, Path(scratch) / f"{name}.json")
                for name in WORKLOAD_NAMES
            ]
    if args.out is not None:
        write_runs(args.out, runs)
    line = result_line(runs)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
