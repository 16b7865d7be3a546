"""Tests for repro.lint: rules, engine, baseline, CLI, and repo cleanliness.

The fixture files under ``tests/fixtures/lint/`` carry their own
expectations: every offending line ends with ``# expect: rule_name``.
The fixture suite asserts the engine reports *exactly* that multiset of
``(path, line, rule)`` — no misses, no extras — so both false negatives
and false positives fail loudly.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    BaselineError,
    Finding,
    apply_baseline,
    available_rules,
    check_source,
    iter_python_files,
    load_baseline,
    parse_suppressions,
    rule_catalog,
    run_lint,
    save_baseline,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).resolve().parents[1]

_EXPECT_RE = re.compile(r"#\s*expect:\s*([a-z0-9_,\s]+)")


def expected_fixture_findings() -> set[tuple[str, int, str]]:
    """Parse ``# expect: rule`` annotations out of every fixture file."""
    expected: set[tuple[str, int, str]] = set()
    for path in sorted(FIXTURES.rglob("*.py")):
        rel = path.relative_to(FIXTURES).as_posix()
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            match = _EXPECT_RE.search(line)
            if match:
                for rule in match.group(1).split(","):
                    expected.add((rel, lineno, rule.strip()))
    return expected


class TestFixtures:
    def test_every_rule_has_a_fixture_expectation(self):
        covered = {rule for _, _, rule in expected_fixture_findings()}
        assert covered == set(available_rules())

    def test_fixtures_report_exactly_the_expected_findings(self):
        result = run_lint([str(FIXTURES)], rel_root=str(FIXTURES))
        got = {(f.path, f.line, f.rule) for f in result.findings}
        assert got == expected_fixture_findings()
        # The multiset view too: no doubled reports on one line.
        assert len(result.findings) == len(got)

    def test_parallel_run_is_bit_identical(self):
        serial = run_lint([str(FIXTURES)], rel_root=str(FIXTURES))
        parallel = run_lint([str(FIXTURES)], rel_root=str(FIXTURES), max_workers=3)
        assert serial == parallel

    def test_rule_subset_restricts_findings(self):
        result = run_lint(
            [str(FIXTURES)],
            rule_names=["det_wall_clock"],
            rel_root=str(FIXTURES),
        )
        assert {f.rule for f in result.findings} == {"det_wall_clock"}

    def test_clean_and_suppressed_fixtures_have_no_findings(self):
        result = run_lint([str(FIXTURES)], rel_root=str(FIXTURES))
        silent = {"clean.py", "suppressed.py", "repro/utils.py"}
        assert not [f for f in result.findings if f.path in silent]


class TestRuleEdgeCases:
    def check(self, source: str, path: str = "pkg/module.py") -> list[Finding]:
        return check_source(source, path)

    def test_default_rng_and_seedsequence_are_allowed(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert self.check(src) == []

    def test_numpy_alias_is_resolved(self):
        src = "import numpy as xyz\nv = xyz.random.rand(3)\n"
        assert [f.rule for f in self.check(src)] == ["det_unseeded_random"]

    def test_local_variable_named_random_is_not_flagged(self):
        src = "def f(random):\n    return random.choice\n"
        assert self.check(src) == []

    def test_shadowed_hash_builtin_is_not_flagged(self):
        src = "from mylib import hash\nkey = hash('x')\n"
        assert self.check(src) == []

    def test_atexit_register_is_not_a_registry_call(self):
        src = "import atexit\natexit.register(print)\n"
        assert self.check(src) == []

    def test_register_with_dynamic_name_inside_function_is_skipped(self):
        src = (
            "def register_thing(reg, name):\n"
            "    return reg.register(name)\n"
        )
        assert self.check(src) == []

    def test_clock_allowlist_matches_path_suffix(self):
        src = "import time\nt = time.perf_counter()\n"
        assert self.check(src, path="src/repro/utils.py") == []
        assert [f.rule for f in self.check(src, path="src/repro/sim/engine.py")] == [
            "det_wall_clock"
        ]

    def test_frozen_dataclass_rule_only_fires_under_api(self):
        src = "from dataclasses import dataclass\n@dataclass\nclass Thing:\n    x: int = 0\n"
        assert self.check(src, path="src/repro/core/thing.py") == []
        assert [f.rule for f in self.check(src, path="src/repro/api/thing.py")] == [
            "inv_frozen_dataclass"
        ]

    def test_syntax_error_becomes_a_parse_error_finding(self):
        findings = self.check("def broken(:\n")
        assert [f.rule for f in findings] == ["parse_error"]
        assert findings[0].severity == "error"

    def test_unknown_rule_name_raises_with_suggestion(self):
        with pytest.raises(Exception, match="det_wall_clock"):
            run_lint([str(FIXTURES)], rule_names=["det_wall_clok"])

    def test_suppression_scope_is_same_line_or_line_above(self):
        allowed = parse_suppressions(
            "# repro: allow[det_wall_clock]\n"
            "x = 1  # repro: allow[det_builtin_hash, inv_bare_except]\n"
        )
        assert allowed == {
            1: {"det_wall_clock"},
            2: {"det_builtin_hash", "inv_bare_except"},
        }
        # Two lines of distance is out of scope: the finding stays.
        src = (
            "import time\n"
            "# repro: allow[det_wall_clock]\n"
            "\n"
            "t = time.time()\n"
        )
        assert [f.rule for f in self.check(src)] == ["det_wall_clock"]

    def test_suppression_marker_inside_string_is_ignored(self):
        src = (
            "import time\n"
            "note = 'repro: allow[det_wall_clock]'\n"
            "t = time.time()\n"
        )
        assert [f.rule for f in self.check(src)] == ["det_wall_clock"]

    def test_iter_python_files_rejects_missing_paths(self):
        with pytest.raises(FileNotFoundError):
            iter_python_files(["/no/such/dir-anywhere"])

    def test_rule_catalog_is_complete_and_coded(self):
        catalog = rule_catalog()
        assert [r["name"] for r in catalog] == available_rules()
        codes = [r["code"] for r in catalog]
        assert len(set(codes)) == len(codes)
        assert all(re.fullmatch(r"(DET|INV)\d{3}", c) for c in codes)
        assert all(r["summary"] for r in catalog)


def _finding(path="a.py", line=3, rule="det_wall_clock", snippet="t = time.time()"):
    return Finding(
        path=path,
        line=line,
        col=4,
        rule=rule,
        severity="error",
        message="msg",
        snippet=snippet,
    )


class TestBaseline:
    def test_roundtrip_and_line_drift_tolerance(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        save_baseline(str(baseline), [_finding(line=3)])
        entries = load_baseline(str(baseline))
        # Same path/rule/snippet on a different line still matches.
        diff = apply_baseline([_finding(line=41)], entries)
        assert diff.new == ()
        assert diff.matched == 1
        assert diff.stale == ()

    def test_new_findings_and_stale_entries_are_split_out(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        save_baseline(
            str(baseline),
            [_finding(snippet="old_line()"), _finding(rule="det_builtin_hash")],
        )
        entries = load_baseline(str(baseline))
        current = [_finding(rule="det_builtin_hash"), _finding(rule="inv_bare_except")]
        diff = apply_baseline(current, entries)
        assert [f.rule for f in diff.new] == ["inv_bare_except"]
        assert diff.matched == 1
        assert [e["snippet"] for e in diff.stale] == ["old_line()"]

    def test_identical_lines_match_by_count(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        save_baseline(str(baseline), [_finding(line=3)])
        entries = load_baseline(str(baseline))
        diff = apply_baseline([_finding(line=3), _finding(line=9)], entries)
        assert diff.matched == 1
        assert len(diff.new) == 1

    def test_malformed_baseline_raises_baseline_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(BaselineError, match="not valid JSON"):
            load_baseline(str(bad))
        bad.write_text('{"findings": [{"path": 3}]}')
        with pytest.raises(BaselineError, match="entry 0"):
            load_baseline(str(bad))


VIOLATION = "import time\n\ndef f():\n    return time.time()\n"
CLEAN = "def f():\n    return 1\n"


class TestCli:
    def run_lint_cli(self, *argv):
        try:
            code = main(["lint", *argv])
        except SystemExit as exc:
            return int(exc.code or 0)
        return code

    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        monkeypatch.chdir(tmp_path)
        assert self.run_lint_cli(".") == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_violation_exits_one_with_greppable_line(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "bad.py").write_text(VIOLATION)
        monkeypatch.chdir(tmp_path)
        assert self.run_lint_cli(".") == 1
        out = capsys.readouterr().out
        assert "bad.py:4:" in out
        assert "DET002[det_wall_clock]" in out

    def test_json_report_shape(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "bad.py").write_text(VIOLATION)
        monkeypatch.chdir(tmp_path)
        assert self.run_lint_cli(".", "--json") == 1
        report = json.loads(capsys.readouterr().out)
        assert report["files_checked"] == 1
        assert report["baselined"] == 0
        assert [f["rule"] for f in report["new"]] == ["det_wall_clock"]
        assert report["findings"] == report["new"]

    def test_update_baseline_then_rerun_is_clean(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "bad.py").write_text(VIOLATION)
        monkeypatch.chdir(tmp_path)
        assert self.run_lint_cli(".", "--update-baseline") == 0
        assert (tmp_path / "lint-baseline.json").is_file()
        capsys.readouterr()
        # The default baseline path is picked up without --baseline.
        assert self.run_lint_cli(".") == 0
        assert "1 baselined" in capsys.readouterr().out
        # A *new* violation still fails.
        (tmp_path / "worse.py").write_text("key = hash('x')\n")
        assert self.run_lint_cli(".") == 1

    def test_stale_baseline_entries_are_reported_not_fatal(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "bad.py").write_text(VIOLATION)
        monkeypatch.chdir(tmp_path)
        assert self.run_lint_cli(".", "--update-baseline") == 0
        (tmp_path / "bad.py").write_text(CLEAN)
        capsys.readouterr()
        assert self.run_lint_cli(".") == 0
        assert "stale" in capsys.readouterr().out

    def test_no_baseline_flag_surfaces_grandfathered_findings(
        self, tmp_path, monkeypatch
    ):
        (tmp_path / "bad.py").write_text(VIOLATION)
        monkeypatch.chdir(tmp_path)
        assert self.run_lint_cli(".", "--update-baseline") == 0
        assert self.run_lint_cli(".", "--no-baseline") == 1

    def test_rules_subset_and_unknown_rule(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "bad.py").write_text(VIOLATION)
        monkeypatch.chdir(tmp_path)
        assert self.run_lint_cli(".", "--rules", "det_builtin_hash") == 0
        assert self.run_lint_cli(".", "--rules", "det_wall_clok") == 2
        assert "did you mean" in capsys.readouterr().err

    def test_usage_errors_exit_two(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ok.py").write_text(CLEAN)
        assert self.run_lint_cli(".", "--workers", "0") == 2
        assert self.run_lint_cli("missing_dir") == 2
        assert self.run_lint_cli(".", "--update-baseline", "--no-baseline") == 2

    def test_list_rules_prints_catalog(self, capsys):
        assert self.run_lint_cli("--list-rules") == 0
        out = capsys.readouterr().out
        for rule in available_rules():
            assert rule in out


@pytest.mark.skipif(
    not (REPO_ROOT / "src" / "repro").is_dir()
    or not (REPO_ROOT / "lint-baseline.json").is_file(),
    reason="needs the source checkout with its checked-in baseline",
)
class TestRepoIsClean:
    """The acceptance gate: src/repro is clean modulo the checked-in baseline."""

    def test_src_repro_is_clean_modulo_baseline(self):
        result = run_lint(
            [str(REPO_ROOT / "src" / "repro")], rel_root=str(REPO_ROOT)
        )
        entries = load_baseline(str(REPO_ROOT / "lint-baseline.json"))
        diff = apply_baseline(result.findings, entries)
        assert diff.new == (), "\n".join(
            f"{f.path}:{f.line} {f.rule}: {f.message}" for f in diff.new
        )
        # The baseline stays honest: no stale entries, and every entry
        # still matches a real grandfathered finding.
        assert diff.stale == ()
        assert diff.matched == len(entries) > 0

    def test_suppressions_in_repo_are_justified(self):
        """Every repro: allow comment carries a justification or docstring.

        The two in-tree suppressions (Assignment.__hash__, the service's
        best-effort cache put) are the worked examples in the README —
        keep them present and commented.
        """
        hash_src = (REPO_ROOT / "src/repro/core/assignment.py").read_text()
        assert "repro: allow[det_builtin_hash]" in hash_src
        assert "In-process-only" in hash_src
        service_src = (REPO_ROOT / "src/repro/service/service.py").read_text()
        assert service_src.count("repro: allow[inv_bare_except]") == 2

    def test_service_layer_never_calls_builtin_hash(self):
        """Fingerprints and store keys come from SHA-256, never hash()."""
        result = run_lint(
            [str(REPO_ROOT / "src" / "repro" / "service")],
            rule_names=["det_builtin_hash"],
            rel_root=str(REPO_ROOT),
        )
        assert result.findings == ()

    def test_rules_registry_rejects_duplicates(self):
        from repro.lint import DuplicateRuleError, register_rule

        with pytest.raises(DuplicateRuleError):
            register_rule("det_wall_clock")(type("Dup", (), {}))
