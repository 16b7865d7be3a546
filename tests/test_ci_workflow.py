"""The CI workflow runs every benchmark script: a ``benchmarks/bench_*.py``
that no job invokes asserts nothing and rots unnoticed."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_benchmark_script_is_invoked_from_ci():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    commands = "\n".join(
        line for line in workflow.splitlines() if not line.lstrip().startswith("#")
    )
    invoked = set(re.findall(r"benchmarks/bench_\w+\.py", commands))
    scripts = {
        path.relative_to(ROOT).as_posix()
        for path in (ROOT / "benchmarks").glob("bench_*.py")
    }
    assert scripts
    assert sorted(scripts - invoked) == []
