"""Tests for the documentation gate (``python -m repro.tools.check_docs``)."""

from pathlib import Path

from repro.tools.check_docs import (
    _check_citations,
    _check_commands,
    _check_references,
    check_docs,
)

ROOT = Path(__file__).resolve().parent.parent


def test_repository_docs_are_clean():
    assert check_docs(ROOT) == []


def test_missing_citation_in_source_is_reported(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "guide.md").write_text("# Guide\n")
    (tmp_path / "README.md").write_text("# Readme\n")
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        '"""See README.md and docs/guide.md.\n'
        "\n"
        "Every docs/**/*.md page is linked (a pattern, not a citation), and\n"
        "https://example.org/DESIGN.md is someone else's file.\n"
        '"""\n'
        "# The choices are in DESIGN.md Sec. 2 and docs/gone.md.\n"
    )
    problems: list[str] = []
    _check_citations(tmp_path, problems)
    assert problems == [
        "src/pkg/mod.py:6: cites missing DESIGN.md",
        "src/pkg/mod.py:6: cites missing docs/gone.md",
    ]


def test_stale_commands_and_spec_paths_are_reported(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "specs").mkdir()
    (tmp_path / "specs" / "table1_hypercube.json").write_text("{}\n")
    (tmp_path / "README.md").write_text(
        "Run `mimdmap table1`, or `mimdmap sweep specs/table1_hypercube.json`.\n"
        "`mimdmap --version` and `python -m repro <subcommand>` are fine.\n"
    )
    (tmp_path / "docs" / "guide.md").write_text(
        "```bash\n"
        "python -m repro sensitivity --seed 5\n"
        "mimdmap sweep specs/gone.json   # the mimdmap script runs it\n"
        "```\n"
    )
    skill = tmp_path / ".claude" / "skills" / "verify"
    skill.mkdir(parents=True)
    (skill / "SKILL.md").write_text("PYTHONPATH=src python -m repro ablations\n")
    problems: list[str] = []
    _check_commands(tmp_path, problems)
    assert problems == [
        "README.md:1: unknown CLI command 'table1'",
        "docs/guide.md:2: unknown CLI command 'sensitivity'",
        "docs/guide.md:3: cites missing specs/gone.json",
        ".claude/skills/verify/SKILL.md:1: unknown CLI command 'ablations'",
    ]


def _role(kind: str, target: str) -> str:
    # Assembled at run time, so this file itself cites no dangling name.
    return f":{kind}:`{target}`"


def test_dangling_cross_references_are_reported(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "Use `repro.core.DeltaEvaluator`, not `repro.core.Gone`.\n"
    )
    (tmp_path / "docs" / "guide.md").write_text(
        "`repro.solve(...)` works; `repro.nope(...)` does not.\n"
    )
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        f'"""See {_role("class", "~repro.core.CardinalityDelta")} and\n'
        f'{_role("meth", "swap <repro.core.DeltaEvaluator.swap>")};\n'
        f'{_role("func", "total_time")} is relative and not checked.\n"""\n'
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        f'"""Pins {_role("attr", "repro.core.IdealSchedule.i_end")}, a '
        f'dataclass field,\nand {_role("mod", "repro.core.gone")}."""\n'
    )
    (tmp_path / "benchmarks" / "e2e").mkdir(parents=True)
    (tmp_path / "benchmarks" / "bench_mod.py").write_text(
        f'"""Times {_role("func", "repro.core.total_time")}."""\n'
    )
    (tmp_path / "benchmarks" / "e2e" / "run.py").write_text(
        f'"""Not scanned: {_role("func", "repro.core.nope")}."""\n'
    )
    problems: list[str] = []
    _check_references(tmp_path, problems)
    assert problems == [
        "src/pkg/mod.py:1: dangling reference repro.core.CardinalityDelta",
        "tests/test_mod.py:2: dangling reference repro.core.gone",
        "README.md:1: dangling reference repro.core.Gone",
        "docs/guide.md:1: dangling reference repro.nope",
    ]
