"""Self-test of the end-to-end benchmark.

Run from the repository root (a few tens of seconds; every workload runs
once untraced and once traced at ``--quick`` size)::

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import compare
import pytest
import run

run.ensure_source()

HERE = Path(__file__).resolve().parent
SPEC = run.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
        check=False,
    )


def test_benchmark_json_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "search-1k", "--quick", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _patched_state():
    """Every function binding in repro modules, plus the class attributes
    the layer plan wraps."""
    import layers

    bindings = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name.startswith("repro") and module is not None
        for attr, value in vars(module).items()
        if callable(value)
    }
    targets = {}
    for target, _ in layers.PLAN:
        owner, attr = layers._resolve(target)
        targets[target] = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return bindings, targets


def test_wrappers_are_restored_after_a_traced_pass(tmp_path):
    import workloads

    before = _patched_state()
    result = workloads.search_1k(workloads.Config(0, 0.0, True, True, tmp_path))
    assert result.failed == 0 and result.metrics["incremental.probe_swap_calls"] > 0
    after = _patched_state()
    assert after[1] == before[1]
    changed = {key for key in before[0] if after[0].get(key) is not before[0][key]}
    assert not changed


@pytest.mark.parametrize("mapper", ["multilevel", "annealing", "critical"])
def test_traced_and_untraced_maps_are_identical(mapper):
    import layers
    import numpy as np
    import spans
    import workloads

    from repro.api import get_mapper

    clustered, system = workloads._layered_instance(400, "hypercube:4", 3)
    plain = get_mapper(mapper).map(clustered, system, rng=3)
    recorder = layers.install(spans.Recorder(None, "bench"), "bench")
    try:
        traced = get_mapper(mapper).map(clustered, system, rng=3)
    finally:
        recorder.uninstall()
    assert recorder.spans, "the traced map recorded no spans"
    assert np.array_equal(plain.assignment.assi, traced.assignment.assi)
    assert (plain.total_time, plain.evaluations) == (traced.total_time, traced.evaluations)


def test_seed_changes_the_instances():
    import workloads

    from repro.service.fingerprint import instance_fingerprint

    def fingerprint(seed: int) -> str:
        clustered, system = workloads._layered_instance(300, "hypercube:3", seed)
        return instance_fingerprint(clustered, system, "critical", {}, 0)

    assert fingerprint(0) != fingerprint(1)
    assert set(workloads.instance_seeds(0)).isdisjoint(workloads.instance_seeds(1))
    assert {s.key() for s in workloads.sweep_grid(0, True)}.isdisjoint(
        s.key() for s in workloads.sweep_grid(1, True)
    )


def test_times_at_reference_speed_scale_each_lap_by_its_reference_loops():
    import reference

    timings = reference.Timings(lambda: None, 0.01)
    timings.laps = [1.0, 2.0, 3.0]  # call 0 is lap 0; call 1 is laps 1 and 2
    timings.refs = [0.01, 0.02, 0.02, 0.01]
    timings.firsts = [0, 1]
    assert timings.seconds() == [1.0, 5.0]
    # each lap over the mean of the loops beside it, times 0.01 s
    assert timings.at_reference_speed() == pytest.approx([1.0 * 2 / 3, 1.0 + 2.0])
    assert timings.median() == pytest.approx((2 / 3 + 3.0) / 2)


def test_echo_helper_answers_and_exits():
    import reference

    with reference.Echo() as echo:
        timings = echo.timings()
        timings.time(lambda: None)
    assert echo.helper.returncode == 0
    assert len(timings.refs) == 2 and timings.reference_s > reference.REFERENCE_S


def _runs_file(path: Path, values: list[float]) -> Path:
    runs = [
        {"workload": "w", "seed": seed, "trace": False, "metrics": {"latency_ms": v}}
        for seed, v in enumerate(values)
    ]
    path.write_text(json.dumps({"runs": runs}))
    return path


SPEC_10 = {"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}


@pytest.mark.parametrize(
    ("a", "b", "expected"),
    [
        ([100, 101, 102], [101, 102, 103], "ok"),
        ([100, 101, 102], [130, 131, 132], "regressed"),
        ([50, 100, 150], [100, 101, 102], "unresolved"),
        ([50, 100, 150], [10, 11, 12], "ok"),
        # seeds differ widely, but every seed got 20% slower
        ([50, 100, 150], [60, 120, 180], "regressed"),
    ],
)
def test_compare_verdicts(tmp_path, a, b, expected):
    rows = compare.compare(_runs_file(tmp_path / "a.json", a),
                           _runs_file(tmp_path / "b.json", b), SPEC_10)
    assert [row["verdict"] for row in rows] == [expected]


def test_compare_reads_directories_and_pairs_by_seed(tmp_path):
    (tmp_path / "A").mkdir()
    _runs_file(tmp_path / "A" / "0.json", [100, 200, 300])
    b = _runs_file(tmp_path / "b.json", [130, 200])  # seed 2 has no pair
    [row] = compare.compare(tmp_path / "A", b, SPEC_10)
    assert row["n"] == 2 and row["verdict"] == "unresolved"
    assert row["change"] == pytest.approx(0.15)
