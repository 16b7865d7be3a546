#!/usr/bin/env python
"""The paper's baseline-comparison study (ablation A5) as a sweep spec.

``examples/compare_mappers.py`` builds its instances with a hand-written
loop; this example runs the checked-in spec ``specs/a5_baselines.json``
— one machine per topology family (paper Sec. 5), every registered
mapper, three replicas: 90 runs — and lets
:func:`repro.api.run_scenarios` run it on a process pool, stream JSONL,
and aggregate the paper-style comparison tables.  The same spec runs
from the command line as ``mimdmap sweep specs/a5_baselines.json``.

Run:  python examples/sweep_paper_grid.py [results.jsonl]

Re-running with the same JSONL path resumes: finished runs are reused,
only missing ones execute.
"""

import sys
from pathlib import Path

from repro.api import format_sweep, load_spec, run_scenarios

SPEC = Path(__file__).resolve().parent.parent / "specs" / "a5_baselines.json"


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else None
    scenarios = load_spec(SPEC)
    total = sum(s.replicas for s in scenarios)
    print(f"{len(scenarios)} scenarios, {total} runs, streaming to {out or '<memory>'}")

    result = run_scenarios(scenarios, out=out, max_workers=2)
    print(f"executed {result.executed}, reused {result.reused}\n")
    print(format_sweep(result.records))


if __name__ == "__main__":
    main()
