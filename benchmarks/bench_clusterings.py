"""Clustering-impact study (an extension supporting the A-series ablations).

The paper treats clustering as an external preprocessing step; this
bench quantifies how much the choice matters on the same machine with
the same mapper — and that structure-aware clusterers (linear, edge
zeroing, DSC) both lower the bound and let the mapper reach it.
"""

from repro.experiments import format_clustering_study, run_clustering_study

SEED = 3


def test_clustering_study(benchmark, record_artifact):
    rows = benchmark.pedantic(
        run_clustering_study, kwargs={"rng": SEED}, rounds=1, iterations=1
    )
    record_artifact("clustering_impact", format_clustering_study(rows))

    by_workload: dict[str, dict[str, int]] = {}
    for r in rows:
        by_workload.setdefault(r.workload, {})[r.clusterer] = r.total_time
    for workload, times in by_workload.items():
        # Structure-aware clustering must beat structure-blind random
        # grouping on absolute total time for the structured workload.
        if workload.startswith("gauss"):
            best_structured = min(
                times["linear"], times["edge_zero"], times["dsc"]
            )
            assert best_structured <= times["random"]
