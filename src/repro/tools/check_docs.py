"""Documentation gate: links, registry coverage, citations, commands, names.

Five checks, all against the working tree (run from the repo root, as
the CI ``docs`` job does):

1. every intra-repo markdown link in ``README.md`` and ``docs/**/*.md``
   resolves — the target file exists, and a ``#fragment`` matches a
   heading anchor of the target (GitHub's slug rules);
2. every registered mapper, metric, and lint-rule name is mentioned
   somewhere under ``docs/`` — reference pages cannot silently rot as
   the registries grow;
3. every ``*.md`` path cited in ``src/**/*.py`` (a docstring's "see
   docs/performance.md") exists, relative to the repo root;
4. every ``mimdmap <cmd>`` / ``python -m repro <cmd>`` in ``README.md``,
   ``docs/**/*.md`` and ``.claude/skills/verify/SKILL.md`` names a
   subcommand the CLI defines, and every ``specs/*.json`` path they
   cite exists — a removed command or spec cannot linger in the docs;
5. every ``repro.…`` name imports and resolves, where it is named by a
   Sphinx role (``:class:``, ``:func:``, ``:meth:``, ``:mod:``,
   ``:attr:``, ``:data:``, ``:exc:``) in ``src/``, ``tests/`` or
   ``benchmarks/*.py``, or backticked in ``README.md``, ``docs/**/*.md``
   or ``.claude/skills/verify/SKILL.md`` — a deleted or renamed name
   cannot linger as a dangling cross-reference.

Exit codes follow ``mimdmap lint``: 0 clean, 1 findings, 2 usage error.
No dependencies beyond the package itself.
"""

from __future__ import annotations

import argparse
import importlib
import re
import sys
from pathlib import Path

__all__ = ["check_docs", "main"]

# Inline markdown links: [text](target).  Good enough for this tree —
# no reference-style links are used, and code spans never contain the
# ``](`` sequence.
_LINK_RE = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_FENCE_RE = re.compile(r"^(```|~~~)")
# A markdown path cited in source text: ``README.md``, ``docs/serving.md``.
# Glob patterns (``docs/**/*.md``) and URL tails are not citations.
_CITED_MD_RE = re.compile(r"(?<![\w./*:-])((?:[\w.-]+/)*[\w-]+\.md)(?![\w/])")
# A CLI invocation in prose or a shell block: ``mimdmap sweep``,
# ``python -m repro map``.  Flags (``mimdmap --version``) and
# placeholders (``python -m repro <subcommand>``) do not match, and
# shell comments (`` # generates the mimdmap script``) are prose.
_COMMAND_RE = re.compile(r"(?:\bmimdmap|python -m repro)[ \t]+([a-z][a-z0-9_-]*)")
_SHELL_COMMENT_RE = re.compile(r"\s#\s.*$")
_SPEC_PATH_RE = re.compile(r"(?<![\w/])(specs/[\w./-]+\.json)")
_DOTTED = r"repro(?:\.[A-Za-z_]\w*)+"
# A Sphinx cross-reference to a package name:
# :class:`~repro.core.DeltaEvaluator`,
# :meth:`swap <repro.core.DeltaEvaluator.swap>`.  Relative targets
# (:func:`total_time`) are not checked.
_ROLE_RE = re.compile(
    rf":(?:class|func|meth|mod|attr|data|exc):`(?:[^`<]*<)?[~!]?({_DOTTED})>?`"
)
# A code span holding just a package name, or a call of one:
# `repro.core.DeltaEvaluator`, `repro.solve(...)`.
_DOC_NAME_RE = re.compile(rf"`({_DOTTED})(?:\((?:\.\.\.)?\))?`")


def _slugify(heading: str) -> str:
    """GitHub's anchor slug: lowercase, strip punctuation, spaces to dashes."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = "".join(c for c in text if c.isalnum() or c in " -")
    return text.replace(" ", "-")


def _anchors(path: Path) -> set[str]:
    """All heading anchors of one markdown file (with -N dedup suffixes)."""
    seen: dict[str, int] = {}
    anchors: set[str] = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING_RE.match(line)
        if match is None:
            continue
        slug = _slugify(match.group(2))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        anchors.add(slug if count == 0 else f"{slug}-{count}")
    return anchors


def _markdown_files(root: Path) -> list[Path]:
    files = [root / "README.md"]
    files += sorted((root / "docs").rglob("*.md"))
    return [f for f in files if f.is_file()]


def _iter_links(path: Path) -> list[str]:
    links: list[str] = []
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        links += _LINK_RE.findall(line)
    return links


def _check_links(root: Path, problems: list[str]) -> None:
    anchor_cache: dict[Path, set[str]] = {}
    for source in _markdown_files(root):
        rel_source = source.relative_to(root)
        for target in _iter_links(source):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            resolved = (
                source if not path_part else (source.parent / path_part).resolve()
            )
            if not resolved.is_file():
                problems.append(f"{rel_source}: broken link -> {target}")
                continue
            if not fragment:
                continue
            if resolved.suffix != ".md":
                problems.append(
                    f"{rel_source}: fragment on non-markdown target -> {target}"
                )
                continue
            anchors = anchor_cache.get(resolved)
            if anchors is None:
                anchors = anchor_cache[resolved] = _anchors(resolved)
            if fragment not in anchors:
                problems.append(f"{rel_source}: missing anchor -> {target}")


def _check_names(root: Path, problems: list[str]) -> None:
    from ..api import MAPPERS, METRICS
    from ..lint import available_rules

    corpus = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted((root / "docs").rglob("*.md"))
    )
    required = [
        ("mapper", name) for name in MAPPERS.available()
    ] + [
        ("metric", name) for name in METRICS.available()
    ] + [
        ("lint rule", name) for name in available_rules()
    ]
    for kind, name in required:
        if re.search(rf"(?<![A-Za-z0-9_]){re.escape(name)}(?![A-Za-z0-9_])", corpus):
            continue
        problems.append(f"docs/: registered {kind} {name!r} is never mentioned")


def _check_citations(root: Path, problems: list[str]) -> None:
    for source in sorted((root / "src").rglob("*.py")):
        text = source.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for cited in _CITED_MD_RE.findall(line):
                if not (root / cited).is_file():
                    rel_source = source.relative_to(root)
                    problems.append(f"{rel_source}:{lineno}: cites missing {cited}")


def _check_commands(root: Path, problems: list[str]) -> None:
    from ..cli import build_parser

    parser = build_parser()
    commands = {
        name
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
        for name in action.choices
    }
    sources = _markdown_files(root)
    skill = root / ".claude/skills/verify/SKILL.md"
    if skill.is_file():
        sources.append(skill)
    for source in sources:
        rel_source = source.relative_to(root)
        text = source.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for command in _COMMAND_RE.findall(_SHELL_COMMENT_RE.sub("", line)):
                if command not in commands:
                    problems.append(
                        f"{rel_source}:{lineno}: unknown CLI command {command!r}"
                    )
            for spec in _SPEC_PATH_RE.findall(line):
                if not (root / spec).is_file():
                    problems.append(f"{rel_source}:{lineno}: cites missing {spec}")


def _resolves(name: str) -> bool:
    """Whether dotted ``name`` imports: its longest importable module
    prefix, then attributes."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for index in range(split, len(parts)):
            attr = parts[index]
            if hasattr(obj, attr):
                obj = getattr(obj, attr)
                continue
            # A dataclass field or other annotated class attribute has no
            # class-level value, so it can only end the name.
            return (
                index == len(parts) - 1
                and isinstance(obj, type)
                and any(attr in vars(c).get("__annotations__", {}) for c in obj.__mro__)
            )
        return True
    return False


def _check_references(root: Path, problems: list[str]) -> None:
    sources = sorted((root / "src").rglob("*.py"))
    sources += sorted((root / "tests").rglob("*.py"))
    sources += sorted((root / "benchmarks").glob("*.py"))
    docs = _markdown_files(root)
    skill = root / ".claude/skills/verify/SKILL.md"
    if skill.is_file():
        docs.append(skill)
    seen: dict[str, bool] = {}
    for pattern, files in ((_ROLE_RE, sources), (_DOC_NAME_RE, docs)):
        for source in files:
            text = source.read_text(encoding="utf-8")
            for lineno, line in enumerate(text.splitlines(), 1):
                for name in pattern.findall(line):
                    if name not in seen:
                        seen[name] = _resolves(name)
                    if not seen[name]:
                        rel_source = source.relative_to(root)
                        problems.append(
                            f"{rel_source}:{lineno}: dangling reference {name}"
                        )


def check_docs(root: Path) -> list[str]:
    """All documentation problems under ``root`` (empty when clean)."""
    problems: list[str] = []
    if not (root / "README.md").is_file() or not (root / "docs").is_dir():
        raise FileNotFoundError(
            f"{root} does not look like the repo root (need README.md and docs/)"
        )
    _check_links(root, problems)
    _check_names(root, problems)
    _check_citations(root, problems)
    _check_commands(root, problems)
    _check_references(root, problems)
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=".",
        help="repo root holding README.md and docs/ (default: cwd)",
    )
    args = parser.parse_args(argv)
    try:
        problems = check_docs(Path(args.root).resolve())
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} documentation problem(s)")
        return 1
    print(
        "docs clean: links resolve, registry names covered, citations exist, "
        "commands and specs are current, cross-references resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
