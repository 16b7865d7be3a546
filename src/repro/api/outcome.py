"""The mapper-agnostic result type shared by every registered mapper.

Each of the repo's mappers historically returned its own dataclass
(:class:`~repro.core.mapper.MappingResult`, ``AnnealResult``,
``BokhariResult``, ...) with bespoke fields.  :class:`MapOutcome` is the
common denominator the :mod:`repro.api` facade normalizes them to, so
experiments, the CLI, and the batch engine can treat all mappers
uniformly.  Mapper-specific detail (mean random time, cardinality,
generation count, ...) survives in :attr:`MapOutcome.extras`.

:meth:`MapOutcome.to_dict` is the one plain-dict form of an outcome: the
service store's record, a job's ``outcome`` and, without ``wall_time``,
a sweep record's ``outcome``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.assignment import Assignment
from ..utils import MappingError

__all__ = ["MapOutcome"]


@dataclass(frozen=True)
class MapOutcome:
    """Uniform outcome of one mapper on one (clustered graph, system) instance.

    Parameters
    ----------
    mapper:
        Registry name of the mapper that produced this outcome.
    assignment:
        The best assignment found.
    total_time:
        Makespan of ``assignment`` under the paper's execution model.
    lower_bound:
        The ideal-graph lower bound of the instance (Theorem 2).
    evaluations:
        Objective evaluations (or refinement trials, for the
        critical-edge strategy) spent by the search.
    reached_lower_bound:
        True when the search terminated by hitting the bound (Theorem 3),
        which certifies optimality.
    wall_time:
        Wall-clock seconds spent inside the mapper.
    extras:
        Mapper-specific scalars (e.g. ``mean_total_time`` for the random
        baseline, ``cardinality`` for Bokhari).  Treat as read-only.
    metrics:
        Requested metric values (see :mod:`repro.metrics`): registry-
        driven scores of the final assignment, keyed by metric output
        name.  Empty unless a caller asked for metrics (the sweep's
        ``metrics=[...]`` axis, the CLI's ``--metrics``).  Treat as
        read-only.
    portfolio:
        Racing diagnostics when the ``portfolio`` mapper produced this
        outcome: the objective, the kill ratio, the winning arm, and a
        per-arm audit trail (status, deterministic kill ordinal,
        checkpoint count).  Empty for every other mapper.  Contains only
        values that are a pure function of the arm configuration and
        seeds, so records stay byte-identical across worker counts.
        Treat as read-only.
    """

    mapper: str
    assignment: Assignment
    total_time: int
    lower_bound: int
    evaluations: int
    reached_lower_bound: bool
    wall_time: float
    extras: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    portfolio: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.lower_bound <= 0:
            raise MappingError(f"lower bound must be positive, got {self.lower_bound}")
        if self.total_time < self.lower_bound:
            raise MappingError(
                f"mapper {self.mapper!r} reports total time {self.total_time} "
                f"below the lower bound {self.lower_bound} — the bound proof "
                "or the mapper is broken"
            )

    @property
    def is_provably_optimal(self) -> bool:
        """Alias of :attr:`reached_lower_bound` (Theorem 3 fired)."""
        return self.reached_lower_bound

    def percent_of_lower_bound(self) -> float:
        """The paper's reporting metric: ``100 * total_time / lower_bound``."""
        return 100.0 * self.total_time / self.lower_bound

    def to_dict(self) -> dict[str, Any]:
        """Lossless plain-dict form, including the assignment and ``wall_time``.

        ``metrics`` and ``portfolio`` appear only when non-empty, so
        outcomes without them keep their historical records.
        """
        data: dict[str, Any] = {
            "mapper": self.mapper,
            "assignment": self.assignment.assi.tolist(),
            "total_time": int(self.total_time),
            "lower_bound": int(self.lower_bound),
            "evaluations": int(self.evaluations),
            "reached_lower_bound": bool(self.reached_lower_bound),
            "wall_time": float(self.wall_time),
            "extras": {k: float(v) for k, v in sorted(self.extras.items())},
        }
        if self.metrics:
            data["metrics"] = {k: float(v) for k, v in sorted(self.metrics.items())}
        if self.portfolio:
            data["portfolio"] = self.portfolio
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MapOutcome":
        """Inverse of :meth:`to_dict`; malformed data raises :class:`MappingError`."""
        if not isinstance(data, dict):
            raise MappingError(f"a stored outcome must be a dict, got {data!r}")
        try:
            return cls(
                mapper=data["mapper"],
                assignment=Assignment(data["assignment"]),
                total_time=int(data["total_time"]),
                lower_bound=int(data["lower_bound"]),
                evaluations=int(data["evaluations"]),
                reached_lower_bound=bool(data["reached_lower_bound"]),
                wall_time=float(data["wall_time"]),
                extras={k: float(v) for k, v in data.get("extras", {}).items()},
                metrics={k: float(v) for k, v in data.get("metrics", {}).items()},
                portfolio=dict(data.get("portfolio") or {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MappingError(f"malformed stored outcome: {exc}") from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MapOutcome(mapper={self.mapper!r}, total_time={self.total_time}, "
            f"lower_bound={self.lower_bound}, optimal={self.reached_lower_bound})"
        )
