"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tableau"])


class TestCommands:
    def test_example(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "ALL MILESTONES PASS             : True" in out

    def test_matrices(self, capsys):
        assert main(["matrices"]) == 0
        out = capsys.readouterr().out
        assert "prob_edge (Fig. 18)" in out
        assert "assi (Fig. 23-b)" in out

    def test_counterexamples(self, capsys):
        assert main(["counterexamples"]) == 0
        out = capsys.readouterr().out
        assert out.count("phenomenon HOLDS") == 2

    def test_map_command(self, capsys):
        assert (
            main(
                [
                    "map", "--tasks", "30", "--topology", "ring", "--size", "5",
                    "--seed", "3", "--clusterer", "band", "--gantt",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "lower bound:" in out
        assert "speedup" in out
        assert "time |" in out  # the gantt chart

    def test_map_with_mapper(self, capsys):
        assert (
            main(
                [
                    "map", "--tasks", "24", "--topology", "ring", "--size", "4",
                    "--seed", "3", "--mapper", "tabu",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mapper     : tabu" in out
        assert "lower bound:" in out
        assert "speedup" in out

    def test_map_bad_clusterer(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["map", "--clusterer", "magic"])

    def test_map_bad_mapper(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["map", "--mapper", "magic"])

    def test_compare(self, capsys):
        assert (
            main(
                [
                    "compare", "--tasks", "24", "--topology", "ring", "--size", "4",
                    "--seed", "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Mapper comparison (lower bound =" in out
        from repro.api import available_mappers

        for name in available_mappers():
            assert name in out

    def test_compare_subset(self, capsys):
        assert (
            main(
                [
                    "compare", "--tasks", "24", "--topology", "ring", "--size", "4",
                    "--seed", "3", "--mappers", "critical,random",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "critical" in out
        assert "tabu" not in out



class TestErrorPaths:
    """Bad input exits with code 2 and a one-line message, never a traceback."""

    def _expect_exit2(self, argv, capsys, fragment):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert fragment in err
        assert err.strip().count("\n") == 0  # a single diagnostic line
        assert err.startswith(f"mimdmap {argv[0]}: error:")

    def test_map_missing_input_file(self, capsys):
        self._expect_exit2(
            ["map", "--input", "/no/such/file.json"], capsys, "cannot read input file"
        )

    def test_map_unreadable_input_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("this is not json")
        self._expect_exit2(
            ["map", "--input", str(bad)], capsys, "not a valid instance"
        )

    def test_map_wrong_kind_input_file(self, capsys, tmp_path):
        bad = tmp_path / "graph-only.json"
        bad.write_text('{"version": 1, "kind": "task_graph"}')
        self._expect_exit2(
            ["map", "--input", str(bad)], capsys, "not a valid instance"
        )

    @pytest.mark.parametrize("size", ["0", "-4"])
    def test_map_out_of_range_processor_count(self, capsys, size):
        self._expect_exit2(["map", "--size", size], capsys, "must be >= 1")

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_compare_out_of_range_processor_count(self, capsys, size):
        self._expect_exit2(["compare", "--size", size], capsys, "must be >= 1")

    def test_map_out_of_range_tasks(self, capsys):
        self._expect_exit2(["map", "--tasks", "0"], capsys, "--tasks")

    def test_map_invalid_topology_size(self, capsys):
        self._expect_exit2(
            ["map", "--topology", "hypercube", "--size", "7"],
            capsys,
            "power of two",
        )

    def test_compare_unknown_mapper_exits_2(self, capsys):
        self._expect_exit2(
            ["compare", "--mappers", "magic"], capsys, "unknown mapper"
        )

    def test_compare_bad_workers_exits_2(self, capsys):
        self._expect_exit2(["compare", "--workers", "0"], capsys, "--workers")

    def test_map_above_the_dense_limit_exits_2(self, capsys):
        self._expect_exit2(
            ["map", "--tasks", "20001", "--topology", "hypercube", "--size", "8"],
            capsys,
            "(limit 20000)",
        )

    def test_compare_above_the_dense_limit_exits_2(self, capsys):
        self._expect_exit2(
            ["compare", "--tasks", "20001", "--topology", "hypercube",
             "--size", "8", "--mappers", "critical"],
            capsys,
            "(limit 20000)",
        )

    def test_map_from_instance_file(self, capsys, tmp_path):
        from repro.io import save_instance
        from repro.topology import ring
        from repro.workloads import layered_random_dag

        path = tmp_path / "instance.json"
        save_instance(path, layered_random_dag(num_tasks=20, rng=0), ring(4))
        assert main(["map", "--input", str(path), "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "ring-4" in out
        assert "lower bound:" in out


class TestSweepAndList:
    """The `sweep` and `list` subcommands (the scenario-grid front end)."""

    SPEC = {
        "grid": {
            "workload": {"name": "fft", "params": {"points_log2": 2}},
            "topology": ["hypercube:2", "mesh2d:2x2"],
            "mapper": ["critical", {"name": "random", "params": {"samples": 3}}],
        },
        "seed": 5,
    }

    def _write_spec(self, tmp_path, spec=None):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec or self.SPEC))
        return path

    @pytest.mark.parametrize(
        "axis, expect",
        [
            ("mappers", "critical"),
            ("clusterers", "dsc"),
            ("workloads", "layered_random"),
            ("topologies", "torus2d"),
            ("metrics", "sim_makespan"),
        ],
    )
    def test_list_axes(self, capsys, axis, expect):
        assert main(["list", axis]) == 0
        names = capsys.readouterr().out.split()
        assert expect in names
        assert len(names) >= 4

    def test_list_rejects_unknown_axis(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["list", "gadgets"])

    def test_sweep_streams_and_aggregates(self, capsys, tmp_path):
        spec = self._write_spec(tmp_path)
        out = tmp_path / "results.jsonl"
        assert main(["sweep", str(spec), "--workers", "2", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "4 scenarios, 4 runs" in printed
        assert "mean total time" in printed  # the aggregate table
        from repro.io import read_jsonl

        assert len(read_jsonl(out)) == 4

    def test_sweep_resumes(self, capsys, tmp_path):
        spec = self._write_spec(tmp_path)
        out = tmp_path / "results.jsonl"
        assert main(["sweep", str(spec), "--out", str(out), "--quiet"]) == 0
        first = out.read_bytes()
        capsys.readouterr()
        assert main(["sweep", str(spec), "--out", str(out), "--quiet"]) == 0
        assert "4 reused" in capsys.readouterr().out
        assert out.read_bytes() == first

    def test_sweep_missing_spec_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "/no/such/spec.json"])
        assert excinfo.value.code == 2
        assert "cannot read spec file" in capsys.readouterr().err

    def test_sweep_invalid_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", str(bad)])
        assert excinfo.value.code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_sweep_bad_axis_exits_2(self, capsys, tmp_path):
        spec = self._write_spec(
            tmp_path,
            {"grid": {"workload": "warp_field", "topology": "hypercube:2"}},
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", str(spec)])
        assert excinfo.value.code == 2
        assert "'workload'" in capsys.readouterr().err

    def test_sweep_unknown_param_exits_2(self, capsys, tmp_path):
        spec = self._write_spec(
            tmp_path,
            {
                "grid": {
                    "workload": {"name": "fft", "params": {"points_log2": 2}},
                    "topology": "hypercube:2",
                    "mapper": {"name": "annealing", "params": {"coolng": 0.9}},
                }
            },
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", str(spec)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one line, no traceback
        assert "'mapper_params'" in err and "'coolng'" in err and "cooling" in err

    def test_paper_table_spec_runs(self, capsys, tmp_path):
        """Table 1 through the CLI, at one replica instead of the spec's ten."""
        import json
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        table = json.loads((root / "specs" / "table1_hypercube.json").read_text())
        spec = self._write_spec(tmp_path, dict(table, replicas=1))
        assert main(["sweep", str(spec), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "24 scenarios, 24 runs" in out
        assert "topology=hypercube:5" in out
        assert "random[samples=1]" in out

    def test_sweep_bad_workers_exits_2(self, capsys, tmp_path):
        spec = self._write_spec(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", str(spec), "--workers", "0"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestVersion:
    def test_version_flag_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("mimdmap ")
        assert out.split()[1][0].isdigit()

    def test_package_version_matches_source_fallback(self):
        from repro.cli import package_version

        version = package_version()
        assert version and version[0].isdigit()


class TestListJson:
    def test_json_listing_matches_plain(self, capsys):
        import json as json_mod

        assert main(["list", "mappers"]) == 0
        plain = capsys.readouterr().out.split()
        assert main(["list", "mappers", "--json"]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["kind"] == "mappers"
        assert payload["names"] == plain
        assert payload["count"] == len(plain)

    def test_json_listing_shares_http_serialization(self, capsys):
        import json as json_mod

        from repro.api import registry_listing

        assert main(["list", "topologies", "--json"]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload == registry_listing("topologies")


class TestServeValidation:
    def test_bad_workers_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["serve", "--workers", "0"])
        assert exc_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_bad_cache_size_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["serve", "--cache-size", "0"])
        assert exc_info.value.code == 2
        assert "--cache-size" in capsys.readouterr().err

    def test_bad_port_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["serve", "--port", "70000"])
        assert exc_info.value.code == 2
        assert "--port" in capsys.readouterr().err


class TestMapMetricsFlags:
    """`map --metrics / --sim-gantt / --trace-out` (the metrics front end)."""

    ARGS = ["map", "--tasks", "16", "--topology", "hypercube", "--size", "4",
            "--seed", "3"]

    def test_metrics_lines_in_report(self, capsys):
        assert main(self.ARGS + ["--metrics", "hop_bytes,sim_makespan"]) == 0
        out = capsys.readouterr().out
        assert "hop_bytes" in out
        assert "sim_makespan" in out

    def test_unknown_metric_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--metrics", "hop_byte"])
        assert excinfo.value.code == 2
        assert "did you mean 'hop_bytes'" in capsys.readouterr().err

    def test_empty_metric_list_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--metrics", " , "])
        assert excinfo.value.code == 2
        assert "at least one metric" in capsys.readouterr().err

    def test_sim_gantt_and_trace_out(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(self.ARGS + ["--sim-gantt", "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace records" in out
        assert "total time" in out  # the simulator chart footer
        from repro.sim import read_trace_jsonl

        loaded = read_trace_jsonl(trace)
        assert loaded.config == "serialized+contention"
        assert loaded.makespan > 0

    def test_unwritable_trace_path_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--trace-out", str(tmp_path / "no" / "dir.jsonl")])
        assert excinfo.value.code == 2
        assert "cannot write trace file" in capsys.readouterr().err

    def test_sweep_spec_with_metrics_records_them(self, capsys, tmp_path):
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "grid": {
                        "workload": {"name": "fft", "params": {"points_log2": 2}},
                        "topology": "hypercube:2",
                        "mapper": ["critical", "random"],
                    },
                    "seed": 5,
                    "metrics": ["hop_bytes", "max_congestion"],
                }
            )
        )
        out = tmp_path / "results.jsonl"
        assert main(["sweep", str(spec), "--out", str(out), "--quiet"]) == 0
        printed = capsys.readouterr().out
        assert "hop_bytes" in printed  # metric columns in the aggregate table
        from repro.io import read_jsonl

        records = read_jsonl(out)
        assert all("metrics" in r["outcome"] for r in records)
