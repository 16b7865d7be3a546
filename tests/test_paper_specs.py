"""The paper's claims, checked on the records of the checked-in sweep specs.

Every grid-shaped study — Tables 1-3, ablations A1-A5, the sensitivity
and clustering studies — is a spec under ``specs/`` that
``mimdmap sweep`` runs.  These tests run each spec through
:func:`repro.api.run_scenarios` and assert what the study exists to
show.  Scenario keys do not include ``replicas``, so a run lowered to
``k`` replicas reproduces the first ``k`` replicas of the full spec
exactly.

Replicas are lowered here (never in the spec files) wherever the claim
is per record or its gap is far outside run-to-run spread.  The table
groups and A2/A3 compare means whose gap is within that spread at two to
five replicas, so they run at the spec's own replicas.
"""

from __future__ import annotations

import dataclasses
import json
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    Scenario,
    available_mappers,
    build_topology,
    load_spec,
    parse_topology_spec,
    run_scenarios,
    summarize_sweep,
)
from repro.baselines import random_mapping
from repro.clustering import RandomClusterer
from repro.core import ClusteredGraph, CriticalEdgeMapper
from repro.sim import SimConfig, simulate
from repro.topology import hypercube
from repro.workloads import layered_random_dag

SPECS = Path(__file__).resolve().parent.parent / "specs"
#: Each table's spec and the machine family it maps onto.
TABLES = {"table1_hypercube": "hypercube", "table2_mesh": "mesh2d", "table3_random": "random"}


def run_spec(
    name: str, *, replicas: int | None = None, mappers: set[str] | None = None
) -> list[dict]:
    scenarios = load_spec(SPECS / f"{name}.json")
    if mappers is not None:
        scenarios = [s for s in scenarios if s.mapper in mappers]
    if replicas is not None:
        scenarios = [dataclasses.replace(s, replicas=replicas) for s in scenarios]
    return run_scenarios(scenarios).records


def pct(record: dict) -> float:
    outcome = record["outcome"]
    return 100.0 * outcome["total_time"] / outcome["lower_bound"]


def mean_pct(records: list[dict]) -> float:
    return float(np.mean([pct(r) for r in records]))


def by(records: list[dict], key) -> dict:
    out: dict = defaultdict(list)
    for record in records:
        out[key(record)].append(record)
    return out


def by_mapper(record: dict) -> str:
    return record["run"]["mapper_label"]


def by_knob(record: dict) -> str:
    return json.dumps(record["scenario"]["workload_params"], sort_keys=True)


@pytest.mark.parametrize("path", sorted(SPECS.glob("*.json")), ids=lambda p: p.stem)
def test_every_spec_expands(path):
    scenarios = load_spec(path)
    assert scenarios
    assert all(isinstance(s, Scenario) for s in scenarios)


class TestTables:
    """Tables 1-3: critical-edge mapping against averaged random mapping."""

    @pytest.fixture(scope="class", params=TABLES)
    def table(self, request):
        return request.param, run_spec(request.param)

    def test_spec_design(self, table):
        """The paper's ranges: np in [30, 300], ns in [4, 40], np >= ns."""
        name, _ = table
        for scenario in load_spec(SPECS / f"{name}.json"):
            assert scenario.seed == 1991 and scenario.replicas >= 5
            assert parse_topology_spec(scenario.topology)[0] == TABLES[name]
            ns = build_topology(scenario.topology, rng=0).num_nodes
            num_tasks = scenario.workload_params["num_tasks"]
            assert 4 <= ns <= 40 and ns <= num_tasks and 30 <= num_tasks <= 300

    def test_critical_below_random_in_every_group(self, table):
        _, records = table
        for group, recs in by(records, lambda r: r["group"]).items():
            rows = by(recs, by_mapper)
            assert mean_pct(rows["critical"]) < mean_pct(rows["random[samples=1]"]), group

    def test_some_run_reaches_the_bound(self, table):
        _, records = table
        assert any(
            r["outcome"]["reached_lower_bound"]
            for r in records
            if r["scenario"]["mapper"] == "critical"
        )


class TestAblations:
    """A1-A3: refinement, critical guidance, exchange strategy."""

    @pytest.fixture(scope="class")
    def rows(self):
        return by(run_spec("ablations_critical"), by_mapper)

    def test_a1_refinement_never_hurts_and_sometimes_helps(self, rows):
        records = rows["critical"]
        totals = [r["outcome"]["total_time"] for r in records]
        initial = [r["outcome"]["extras"]["initial_total_time"] for r in records]
        assert all(t <= i for t, i in zip(totals, initial))
        assert any(t < i for t, i in zip(totals, initial))

    def test_a1_no_refinement_keeps_the_initial_assignment(self, rows):
        for record in rows["critical[refinement='none']"]:
            outcome = record["outcome"]
            assert outcome["evaluations"] == 0
            assert outcome["total_time"] == outcome["extras"]["initial_total_time"]

    def test_a2_critical_guidance_wins_in_aggregate(self, rows):
        unguided = rows["critical[use_critical_guidance=False]"]
        assert mean_pct(rows["critical"]) <= mean_pct(unguided) + 2

    def test_a3_random_replacement_vs_pairwise_exchange(self, rows):
        pairwise = rows["critical[refinement='pairwise']"]
        assert mean_pct(rows["critical"]) <= mean_pct(pairwise) + 5


class TestFidelity:
    """A4: one scenario per (machine, simulator variant)."""

    @pytest.fixture(scope="class")
    def records(self):
        return run_spec("a4_fidelity", replicas=1)

    def test_simulated_makespan_never_below_the_analytic_model(self, records):
        assert len(records) == 12
        for record in records:
            outcome = record["outcome"]
            assert outcome["metrics"]["sim_makespan"] >= outcome["total_time"]
            params = record["scenario"]["metrics"][0]["params"]
            if not params["serialize_processors"] and not params["link_contention"]:
                assert outcome["metrics"]["sim_makespan"] == outcome["total_time"]

    def test_each_variant_is_its_own_table(self, records):
        """Variants differ only in metrics, so each is a group of one row
        instead of four variants averaged into one."""
        summaries = summarize_sweep(records)
        assert len(summaries) == 12
        assert all(len(rows) == 1 for _, rows in summaries)

    def test_ranking_survives_the_harshest_model(self):
        """Critical-edge mapping stays at or below random mapping under
        serialized processors plus link contention in at least half of
        six 100-task ``hypercube:3`` trials (seed 7; 4 of 6 measured).
        The mapping optimizes the contention-free model, so some
        inversions are expected."""
        gen = np.random.default_rng(7)
        system = hypercube(3)
        config = SimConfig(serialize_processors=True, link_contention=True)
        wins = 0
        for _ in range(6):
            graph = layered_random_dag(num_tasks=100, comm_range=(1, 5), rng=gen)
            clustering = RandomClusterer(8).cluster(graph, rng=gen)
            clustered = ClusteredGraph(graph, clustering)
            ours = CriticalEdgeMapper(rng=gen).map(clustered, system)
            rand_assignment, _ = random_mapping(clustered, system, rng=gen)
            ours_span = simulate(clustered, system, ours.assignment, config).makespan
            rand_span = simulate(clustered, system, rand_assignment, config).makespan
            wins += ours_span <= rand_span
        assert wins * 2 >= 6


def test_a5_ours_beats_random_and_the_indirect_objectives():
    # Only the mappers the claim names run here; the CI examples job
    # runs the whole spec through examples/sweep_paper_grid.py.
    claim = {"critical", "random", "bokhari", "lee"}
    spec_mappers = {s.mapper for s in load_spec(SPECS / "a5_baselines.json")}
    assert spec_mappers == set(available_mappers())
    rows = by(run_spec("a5_baselines", replicas=1, mappers=claim), by_mapper)
    ours = mean_pct(rows["critical"])
    assert ours < mean_pct(rows["random[samples=1]"])
    assert ours <= mean_pct(rows["bokhari"]) + 2
    assert ours <= mean_pct(rows["lee"]) + 2


class TestSensitivity:
    """The calibration facts behind the workload defaults."""

    @staticmethod
    def points(name: str) -> list[dict]:
        knobs = by(run_spec(name, replicas=2), by_knob)
        return [by(recs, lambda r: r["scenario"]["mapper"]) for recs in knobs.values()]

    def test_comm_ratio_monotone_random_column(self):
        low, *_, high = self.points("sensitivity_comm")
        assert mean_pct(low["random"]) < mean_pct(high["random"])

    def test_density_pushes_everyone_up(self):
        sparse, *_, dense = self.points("sensitivity_density")
        assert mean_pct(sparse["critical"]) < mean_pct(dense["critical"])
        assert mean_pct(sparse["random"]) < mean_pct(dense["random"])

    def test_problem_size_hit_rate(self):
        small, *_, large = self.points("sensitivity_size")

        def hit_rate(records):
            return np.mean([r["outcome"]["reached_lower_bound"] for r in records])

        assert hit_rate(small["critical"]) >= hit_rate(large["critical"])


class TestClusteringStudy:
    @pytest.fixture(scope="class")
    def records(self):
        return run_spec("clustering_study", replicas=1)

    def test_all_combinations_present(self, records):
        pairs = {(r["scenario"]["workload"], r["scenario"]["clustering"]) for r in records}
        assert len(pairs) == len(records) == 12

    def test_records_internally_consistent(self, records):
        for record in records:
            outcome = record["outcome"]
            assert outcome["total_time"] >= outcome["lower_bound"]
            assert outcome["reached_lower_bound"] == (
                outcome["total_time"] == outcome["lower_bound"]
            )

    def test_structure_aware_clustering_beats_random_on_gaussian(self, records):
        total = {
            r["scenario"]["clustering"]: r["outcome"]["total_time"]
            for r in records
            if r["scenario"]["workload"] == "gaussian"
        }
        assert min(total["linear"], total["edge_zero"], total["dsc"]) <= total["random"]
