"""The paper's fixed-instance experiments: the worked example and the
Sec. 2.2 counterexamples.

The grid-shaped studies (Tables 1-3, ablations A1-A5, the sensitivity
and clustering studies) are sweep specs under ``specs/``, run by
``mimdmap sweep`` (see docs/architecture.md, "Paper experiments").
"""

from .counterexamples import (
    CounterexampleReport,
    format_counterexample,
    run_bokhari_counterexample,
    run_lee_counterexample,
)
from .worked_example import (
    WorkedExampleReport,
    format_worked_example,
    run_worked_example,
)

__all__ = [
    "CounterexampleReport",
    "WorkedExampleReport",
    "format_counterexample",
    "format_worked_example",
    "run_bokhari_counterexample",
    "run_lee_counterexample",
    "run_worked_example",
]
