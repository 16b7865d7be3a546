"""Compare two sets of benchmark runs metric by metric, seed by seed.

Usage, from the repository root, with the parent checkout in ``../parent``::

    mkdir -p A B
    for seed in 100 101 102; do
        (cd ../parent && python benchmarks/e2e/run.py --seed $seed --out "$OLDPWD/A/$seed.json")
        python benchmarks/e2e/run.py --seed $seed --out B/$seed.json
    done
    python benchmarks/e2e/compare.py A B

Each side is a file written by ``run.py --out`` or a directory of them.
Runs are paired by workload and seed: each seed's inputs are the same on
both sides, and runs of a pair made one after the other share the host's
state, so drift that lasts longer than a pair cancels out.  For each
(workload, end-to-end metric) the table shows both sides' median with its
quartiles over the paired runs, the median of the per-seed relative
changes, the metric's bound from ``BENCHMARK.json`` and a verdict:

* ``regressed`` -- the median change is worse than the bound;
* ``unresolved`` -- the per-seed changes spread (interquartile range)
  more than the bound, so a change of that size cannot be told from
  noise, unless B is better than A on every seed;
* ``ok`` -- otherwise.

Exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(median, q1, q3)``."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(pairs: list[tuple[float, float]], better: str, bound: float) -> tuple[str, float]:
    """The verdict for B against baseline A over ``(a, b)`` pairs of one
    seed each, and the median relative change."""
    changes = [(b - a) / abs(a) if a else 0.0 for a, b in pairs]
    change, q1, q3 = summary(changes)
    worse = change if better == "lower" else -change
    if q3 - q1 > bound:
        improved = all((c < 0) if better == "lower" else (c > 0) for c in changes)
        return ("ok" if improved else "unresolved"), change
    return ("regressed" if worse > bound else "ok"), change


def untraced_values(path: Path) -> dict[tuple[str, str], dict[int, float]]:
    """``(workload, metric) -> {seed: value}`` over the untraced runs of a
    run file, or of every run file in a directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    values: dict[tuple[str, str], dict[int, float]] = {}
    for file in files:
        for run in json.loads(file.read_text())["runs"]:
            if run["trace"]:
                continue
            for name, value in run["metrics"].items():
                values.setdefault((run["workload"], name), {})[run["seed"]] = float(value)
    return values


def compare(path_a: Path, path_b: Path, spec: dict) -> list[dict]:
    a, b = untraced_values(path_a), untraced_values(path_b)
    rows = []
    for key in sorted(set(a) | set(b)):
        workload, name = key
        metric = next((m for m in spec["end_to_end"] if m["name"] == name), None)
        if metric is None:
            continue
        bound = metric["bound"]
        row = {"workload": workload, "metric": name, "unit": metric["unit"], "bound": bound}
        seeds = sorted(set(a.get(key, {})) & set(b.get(key, {})))
        if not seeds:
            row.update(verdict="missing", change=0.0, n=0)
        else:
            pairs = [(a[key][seed], b[key][seed]) for seed in seeds]
            row["verdict"], row["change"] = verdict(pairs, metric["better"], bound)
            row["a"] = summary([x for x, _ in pairs])
            row["b"] = summary([y for _, y in pairs])
            row["n"] = len(seeds)
        rows.append(row)
    return rows


def _side(stats: tuple[float, float, float] | None) -> str:
    if stats is None:
        return "-"
    median, q1, q3 = stats
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="runs of the parent (A): file or directory")
    parser.add_argument("candidate", type=Path, help="runs of the change (B): file or directory")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(args.baseline, args.candidate, spec)
    print(
        f"{'workload':<12} {'metric':<17} {'pairs':>5} {'A median [q1, q3]':<30} "
        f"{'B median [q1, q3]':<30} {'change':>8} {'bound':>6}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<12} {row['metric']:<17} {row['n']:>5} "
            f"{_side(row.get('a')):<30} {_side(row.get('b')):<30} "
            f"{100 * row['change']:>+7.1f}% {100 * row['bound']:>5.0f}%  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
