"""The metric registry: the fifth axis of a mapping experiment.

A *metric* scores a mapped instance — the ``(ClusteredGraph,
SystemGraph, Assignment)`` triple — and returns one or more named
floats.  Metrics come in two families:

* **analytic** (``metric.analytic is True``) — closed-form numpy
  formulas over the task edges and the routing tables
  (:mod:`repro.metrics.analytic`).  Cheap, and usable as refinement
  objectives when they also name the incremental swap evaluator a
  refinement runs on: ``evaluator(traffic, system, assignment)``, as
  every built-in one does (an analytic metric without it is refused as
  an objective);
* **simulator-backed** (``analytic is False``) — obtained by running the
  discrete-event engine (:mod:`repro.metrics.simulated`).  Expensive but
  sensitive to contention, serialization, and backpressure effects the
  analytic model cannot see.

Like the mapper/clusterer/workload/topology axes, metrics are
addressable by name with per-axis error types and near-miss suggestions,
and parameterizable with keyword params (``{"name": "sim_makespan",
"params": {"link_setup": 1}}``).  :func:`evaluate_metrics` runs a list
of metric specs over one mapped instance, sharing simulation results
between metrics that request the same configuration.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from ..api.registry import (
    DuplicateComponentError,
    Registry,
    UnknownComponentError,
    choice_label,
    parse_choice,
)
from ..core.assignment import Assignment
from ..core.clustered import ClusteredGraph
from ..topology.base import SystemGraph
from ..utils import MappingError

__all__ = [
    "METRICS",
    "DuplicateMetricError",
    "Metric",
    "UnknownMetricError",
    "available_metrics",
    "build_metrics",
    "evaluate_metrics",
    "get_metric",
    "metric_label",
    "normalize_metric_specs",
    "register_metric",
]


class DuplicateMetricError(DuplicateComponentError):
    """A metric name was registered twice."""


class UnknownMetricError(UnknownComponentError):
    """A metric name is not in the registry."""


@runtime_checkable
class Metric(Protocol):
    """What the sweep engine and CLI require of a metric.

    ``name`` identifies the metric in reports and record keys;
    ``analytic`` distinguishes closed-form metrics from simulator-backed
    ones (a refinement objective must be analytic and also name its
    ``evaluator``, see :func:`repro.core.multilevel.analytic_metric`);
    ``compute`` scores one mapped instance and returns named float
    values (usually ``{name: value}``, but a metric may emit several
    related keys).
    Metrics must be deterministic and side-effect free.
    """

    name: str
    analytic: bool

    def compute(
        self,
        clustered: ClusteredGraph,
        system: SystemGraph,
        assignment: Assignment,
    ) -> dict[str, float]: ...


#: The metric axis: names -> metric factories (see repro.metrics.analytic
#: and repro.metrics.simulated for the built-in registrations).
METRICS = Registry(
    "metric",
    duplicate_error=DuplicateMetricError,
    unknown_error=UnknownMetricError,
)


def register_metric(name: str) -> Callable[[type], type]:
    """Class decorator registering a metric factory under ``name``."""
    return METRICS.register(name)


def available_metrics() -> list[str]:
    """Sorted names of every registered metric."""
    return METRICS.available()


def get_metric(name: str, **params: object) -> Metric:
    """Instantiate the metric registered under ``name`` with ``params``."""
    return METRICS.get(name, **params)


#: Canonical display form of a metric spec, ``name`` or ``name[k=v,...]``
#: (the one choice label; scenario keys and fingerprints embed it).
metric_label = choice_label


def normalize_metric_specs(
    specs: Sequence[Any],
) -> list[tuple[str, dict[str, Any]]]:
    """Normalize metric specs to ``(name, params)`` pairs.

    Accepts every choice spelling :func:`~repro.api.registry.parse_choice`
    reads: a bare name string, a ``{"name": ..., "params": {...}}``
    mapping, or a ``(name, params)`` pair.  Names are validated against
    the registry (unknown names raise :class:`UnknownMetricError` with
    near-miss suggestions); duplicate specs raise :class:`MappingError`.
    """
    out: list[tuple[str, dict[str, Any]]] = []
    seen: set[str] = set()
    for spec in specs:
        name, params = parse_choice(spec, "metric spec")
        if name not in METRICS:
            raise UnknownMetricError(
                f"unknown metric {name!r}; {METRICS.suggest(name)}"
            )
        label = choice_label(name, params)
        if label in seen:
            raise MappingError(f"duplicate metric spec {label!r}")
        seen.add(label)
        out.append((name, params))
    return out


def build_metrics(
    specs: Sequence[Any],
) -> list[Metric]:
    """Instantiate every metric in ``specs`` (normalizing first).

    Bad constructor params surface as :class:`MappingError` naming the
    metric, rather than a bare ``TypeError`` from deep inside a factory.
    """
    metrics: list[Metric] = []
    for name, params in normalize_metric_specs(specs):
        try:
            metrics.append(METRICS.get(name, **params))
        except MappingError:
            raise
        except (TypeError, ValueError) as exc:
            raise MappingError(f"metric {name!r}: bad params {params!r}: {exc}") from exc
    return metrics


def evaluate_metrics(
    clustered: ClusteredGraph,
    system: SystemGraph,
    assignment: Assignment,
    specs: Sequence[Any],
) -> dict[str, float]:
    """Score one mapped instance with every metric in ``specs``.

    Returns the merged ``{key: value}`` dict over all metrics.  Metrics
    exposing ``compute_memo`` receive a shared memo dict, so several
    simulator-backed metrics requesting the same :class:`SimConfig` run
    one simulation between them.  Two metrics may emit the same key only
    if they agree on its value (e.g. ``comm_volume`` reported both
    standalone and as part of a combined metric); a conflict raises
    :class:`MappingError` rather than silently keeping one.
    """
    values: dict[str, float] = {}
    memo: dict[Any, Any] = {}
    for metric in build_metrics(specs):
        compute_memo = getattr(metric, "compute_memo", None)
        if compute_memo is not None:
            result = compute_memo(clustered, system, assignment, memo)
        else:
            result = metric.compute(clustered, system, assignment)
        for key, value in result.items():
            value = float(value)
            if key in values and values[key] != value:
                raise MappingError(
                    f"metric {metric.name!r} reports {key}={value} but "
                    f"another metric already reported {key}={values[key]}"
                )
            values[key] = value
    return values
