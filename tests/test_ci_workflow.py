"""The CI workflow runs every benchmark script and regenerates every
committed paper artifact: a ``benchmarks/bench_*.py`` that no job invokes,
or a ``benchmarks/results/paper/*.txt`` that no job diffs, asserts nothing
and rots unnoticed."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _workflow_commands() -> str:
    """The CI workflow without its comment lines."""
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    return "\n".join(
        line for line in workflow.splitlines() if not line.lstrip().startswith("#")
    )


def test_every_benchmark_script_is_invoked_from_ci():
    commands = _workflow_commands()
    invoked = set(re.findall(r"benchmarks/bench_\w+\.py", commands))
    scripts = {
        path.relative_to(ROOT).as_posix()
        for path in (ROOT / "benchmarks").glob("bench_*.py")
    }
    assert scripts
    assert sorted(scripts - invoked) == []


def test_every_paper_artifact_is_regenerated_in_ci():
    """Each committed paper artifact is a spec's table (the ``paper-tables``
    job loops over ``specs/*.json``) or a file the workflow names."""
    commands = _workflow_commands()
    artifacts = sorted((ROOT / "benchmarks" / "results" / "paper").glob("*.txt"))
    assert artifacts
    orphans = [
        path.name
        for path in artifacts
        if not (ROOT / "specs" / f"{path.stem}.json").exists()
        and path.relative_to(ROOT).as_posix() not in commands
    ]
    assert orphans == []
