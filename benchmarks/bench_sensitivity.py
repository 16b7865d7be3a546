"""Calibration sensitivity study: how the hidden workload knobs move results.

The paper leaves the workload generator's parameters unpublished; these
sweeps document how each hidden knob moves the Table 1-3 style numbers,
justifying the calibrated defaults used in the regenerated tables:

* communication weight ceiling (vs task sizes 1-10),
* DAG density (extra edges per task),
* problem size np at fixed machines.
"""

from repro.experiments import (
    format_sweep,
    sweep_comm_ratio,
    sweep_edge_density,
    sweep_problem_size,
)

SEED = 5


def test_comm_ratio_sweep(benchmark, record_artifact):
    points = benchmark.pedantic(
        sweep_comm_ratio, kwargs={"rng": SEED}, rounds=1, iterations=1
    )
    record_artifact(
        "sensitivity_comm_ratio",
        format_sweep(points, "Sensitivity — communication weight ceiling"),
    )
    # Heavier communication must widen the random column.
    assert points[-1].random_pct_mean > points[0].random_pct_mean


def test_edge_density_sweep(benchmark, record_artifact):
    points = benchmark.pedantic(
        sweep_edge_density, kwargs={"rng": SEED}, rounds=1, iterations=1
    )
    record_artifact(
        "sensitivity_edge_density",
        format_sweep(points, "Sensitivity — DAG density (extra edges/task)"),
    )
    assert points[-1].ours_pct_mean >= points[0].ours_pct_mean


def test_problem_size_sweep(benchmark, record_artifact):
    points = benchmark.pedantic(
        sweep_problem_size, kwargs={"rng": SEED}, rounds=1, iterations=1
    )
    record_artifact(
        "sensitivity_problem_size",
        format_sweep(points, "Sensitivity — problem size np"),
    )
    # Lower-bound hits concentrate on small problems.
    assert points[0].hit_rate >= points[-1].hit_rate
