"""Documentation gate: link resolution, registry coverage, source citations.

Three checks, all against the working tree (run from the repo root, as
the CI ``docs`` job does):

1. every intra-repo markdown link in ``README.md`` and ``docs/**/*.md``
   resolves — the target file exists, and a ``#fragment`` matches a
   heading anchor of the target (GitHub's slug rules);
2. every registered mapper, metric, and lint-rule name is mentioned
   somewhere under ``docs/`` — reference pages cannot silently rot as
   the registries grow;
3. every ``*.md`` path cited in ``src/**/*.py`` (a docstring's "see
   docs/performance.md") exists, relative to the repo root.

Exit codes follow ``mimdmap lint``: 0 clean, 1 findings, 2 usage error.
No dependencies beyond the package itself.
"""

from __future__ import annotations

import argparse
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
    print("docs clean: links resolve, registry names covered, citations exist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
