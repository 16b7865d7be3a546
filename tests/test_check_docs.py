"""Tests for the documentation gate (``python -m repro.tools.check_docs``)."""

from pathlib import Path

from repro.tools.check_docs import _check_citations, check_docs

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
