"""Declarative scenario specs: one named point of the experiment grid.

A :class:`Scenario` pins all four axes of a mapping experiment —
workload x clustering x topology x mapper — by registry name, plus
per-axis parameters, a base seed, and a replica count::

    s = Scenario(workload="fft", workload_params={"points_log2": 4},
                 clustering="dsc", topology="hypercube:3", mapper="tabu")

Scenarios are frozen, validate every axis against its registry at
construction (errors name the bad axis), and round-trip losslessly
through plain dicts and JSON files.  :meth:`Scenario.grid` expands a
cross product of axis choices into concrete scenarios, which is how
sweep specs describe whole paper tables in a few lines; see
:mod:`repro.api.sweep` for the engine that runs them.
"""

from __future__ import annotations

import functools
import inspect
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..utils import MappingError
from .components import (
    CLUSTERERS,
    WORKLOADS,
    parse_topology_spec,
)
from .registry import MAPPERS, RegistryError, choice_label, choice_spec, parse_choice

__all__ = ["Scenario", "ScenarioError", "expand_spec", "load_spec"]

#: Axis name -> the registry its selections are validated against
#: (topology validates through the spec grammar instead).
_AXIS_REGISTRIES = {
    "workload": WORKLOADS,
    "clustering": CLUSTERERS,
    "mapper": MAPPERS,
}

#: Params axis -> (the axis it parameterizes, the factory keywords the
#: engine passes itself and a spec therefore may not set).
_PARAM_AXES = {
    "workload_params": ("workload", frozenset({"rng"})),
    "clustering_params": ("clustering", frozenset({"num_clusters"})),
    "mapper_params": ("mapper", frozenset()),
}


class ScenarioError(MappingError):
    """An invalid scenario: the message always names the offending axis."""


@dataclass(frozen=True)
class Scenario:
    """One concrete experiment: four axis selections + params + seeding.

    Parameters
    ----------
    workload, clustering, mapper:
        Registry names (see ``mimdmap list workloads`` etc.).
    topology:
        A ``family:args`` spec, e.g. ``"hypercube:3"`` or
        ``"torus2d:4x4"`` (see
        :func:`repro.api.components.build_topology`).
    workload_params, clustering_params, mapper_params:
        Keyword parameters for the respective factories.  The clusterer's
        ``num_clusters`` is implied by the topology's node count.
    seed:
        Base seed; every replica derives independent per-stage streams
        from it (see :func:`repro.api.sweep.derive_run_seeds`).
    replicas:
        How many independently seeded repetitions the sweep runs.
    name:
        Optional label; :meth:`key` is the canonical identity either way.
    metrics:
        Metric specs (registry names, ``{"name", "params"}`` mappings, or
        ``(name, params)`` pairs) evaluated on every run's final
        assignment and recorded alongside the outcome (see
        :mod:`repro.metrics`).  Empty = no extra metrics (the historical
        behavior, and the historical :meth:`key`).

    Validation happens at construction and always names the bad axis:

    >>> from repro.api import Scenario
    >>> s = Scenario(workload="fft", workload_params={"points_log2": 3},
    ...              topology="hypercube:2", mapper="tabu", seed=7)
    >>> s.clustering            # axes not given fall back to defaults
    'random'
    >>> Scenario(workload="not_a_workload", topology="hypercube:2")
    ... # doctest: +IGNORE_EXCEPTION_DETAIL
    Traceback (most recent call last):
        ...
    repro.api.scenario.ScenarioError: scenario axis 'workload': ...
    """

    workload: str
    topology: str
    clustering: str = "random"
    mapper: str = "critical"
    workload_params: Mapping[str, Any] = field(default_factory=dict)
    clustering_params: Mapping[str, Any] = field(default_factory=dict)
    mapper_params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    replicas: int = 1
    name: str = ""
    metrics: Any = ()

    def __post_init__(self) -> None:
        for axis, registry in _AXIS_REGISTRIES.items():
            value = getattr(self, axis)
            if not isinstance(value, str) or value not in registry:
                raise ScenarioError(
                    f"scenario axis {axis!r}: unknown {registry.kind} {value!r}; "
                    f"{registry.suggest(value)}"
                )
        try:
            parse_topology_spec(self.topology)
        except RegistryError as exc:
            raise ScenarioError(f"scenario axis 'topology': {exc}") from None
        for axis, (owner, engine_keys) in _PARAM_AXES.items():
            params = getattr(self, axis)
            if not isinstance(params, Mapping) or not all(
                isinstance(k, str) for k in params
            ):
                raise ScenarioError(
                    f"scenario axis {axis!r}: expected a mapping with string "
                    f"keys, got {params!r}"
                )
            name = getattr(self, owner)
            registry = _AXIS_REGISTRIES[owner]
            accepted = _keyword_names(registry.factory(name))
            for key in params:
                if key in engine_keys:
                    raise ScenarioError(
                        f"scenario axis {axis!r}: {key!r} is supplied by the "
                        "engine and cannot be set in a scenario"
                    )
                if accepted is not None and key not in accepted:
                    raise ScenarioError(
                        f"scenario axis {axis!r}: unknown parameter {key!r} for "
                        f"{registry.kind} {name!r}; accepted: "
                        f"{', '.join(sorted(accepted - engine_keys)) or '(none)'}"
                    )
            object.__setattr__(self, axis, dict(params))
        if self.mapper == "portfolio" and (
            self.mapper_params.get("arms", "auto") == "auto"
        ):
            # A scenario run must be a pure function of its spec (sweep
            # resume, service fingerprints); arms="auto" consults the
            # service's mutable solve history, so it is rejected here.
            raise ScenarioError(
                "scenario axis 'mapper_params': portfolio scenarios need an "
                "explicit 'arms' list; arms='auto' depends on recorded "
                "history and cannot be part of a reproducible spec"
            )
        if (
            not isinstance(self.replicas, int)
            or isinstance(self.replicas, bool)
            or self.replicas < 1
        ):
            raise ScenarioError(
                f"scenario axis 'replicas': must be an int >= 1, got "
                f"{self.replicas!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ScenarioError(
                f"scenario axis 'seed': must be an int, got {self.seed!r}"
            )
        if isinstance(self.metrics, str):
            raise ScenarioError(
                "scenario axis 'metrics': expected a list of metric specs, "
                f"got the bare string {self.metrics!r}; wrap it in a list"
            )
        if self.metrics:
            # Deferred import: repro.metrics pulls in the simulator stack,
            # which plain (metric-less) scenarios never need.
            from ..metrics import build_metrics, normalize_metric_specs

            try:
                normalized = tuple(normalize_metric_specs(self.metrics))
                build_metrics(normalized)  # eager param validation
            except MappingError as exc:
                raise ScenarioError(f"scenario axis 'metrics': {exc}") from None
            object.__setattr__(self, "metrics", normalized)
        else:
            object.__setattr__(self, "metrics", ())

    # -- identity -------------------------------------------------------

    def key(self) -> str:
        """Canonical identity string (stable across processes and runs).

        The ``metrics=`` segment appears only when metrics were
        requested, so metric-less scenarios keep their historical keys
        (resume checkpoints and service fingerprints stay valid).
        """
        return "/".join(self._key_parts(with_mapper=True))

    def label(self) -> str:
        """Human-facing name: the explicit ``name`` or a derived one."""
        if self.name:
            return self.name
        return f"{self.workload}|{self.clustering}|{self.topology}|{self.mapper}"

    def group_key(self) -> str:
        """Identity of the scenario *group*: :meth:`key` minus the mapper.

        Scenarios sharing a group are the rows of one comparison table:
        same workload, clustering, topology, metrics and seed, different
        mappers.  Each mapper still draws its *own* instance, because
        :func:`~repro.api.sweep.derive_run_seeds` mixes the whole key,
        mapper included, into the run's seeds; a group's rows compare
        means over replicas, not one shared instance.
        """
        return "/".join(self._key_parts(with_mapper=False))

    def _key_parts(self, *, with_mapper: bool) -> list[str]:
        parts = [
            f"workload={choice_label(self.workload, self.workload_params)}",
            f"clustering={choice_label(self.clustering, self.clustering_params)}",
            f"topology={self.topology}",
        ]
        if with_mapper:
            parts.append(f"mapper={choice_label(self.mapper, self.mapper_params)}")
        if self.metrics:
            parts.append(
                "metrics=" + ",".join(choice_label(n, p) for n, p in self.metrics)
            )
        parts.append(f"seed={self.seed}")
        return parts

    # -- dict / JSON round trip ----------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form; ``from_dict`` restores an equal scenario."""
        out: dict[str, Any] = {
            "workload": self.workload,
            "topology": self.topology,
            "clustering": self.clustering,
            "mapper": self.mapper,
            "seed": self.seed,
            "replicas": self.replicas,
        }
        for axis in ("workload_params", "clustering_params", "mapper_params"):
            params = getattr(self, axis)
            if params:
                out[axis] = dict(params)
        if self.name:
            out["name"] = self.name
        if self.metrics:
            out["metrics"] = [choice_spec(name, params) for name, params in self.metrics]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict`; unknown keys raise :class:`ScenarioError`."""
        if not isinstance(data, Mapping):
            raise ScenarioError(f"a scenario must be a mapping, got {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ScenarioError(
                f"unknown scenario field(s) {', '.join(map(repr, unknown))}; "
                f"expected a subset of {sorted(known)}"
            )
        missing = [axis for axis in ("workload", "topology") if axis not in data]
        if missing:
            raise ScenarioError(
                f"scenario axis {missing[0]!r}: required but missing"
            )
        return cls(**dict(data))

    def to_json(self, path: str | Path) -> None:
        """Write the scenario to ``path`` as pretty-printed JSON."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "Scenario":
        """Read one scenario back from :meth:`to_json` output."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    # -- grid expansion -------------------------------------------------

    @classmethod
    def grid(
        cls,
        workload: object,
        topology: object,
        clustering: object = "random",
        mapper: object = "critical",
        *,
        seed: int = 0,
        replicas: int = 1,
        name: str = "",
        metrics: object = (),
    ) -> list["Scenario"]:
        """Cross-product expansion: one scenario per axis combination.

        Each axis accepts a single choice or a list of choices; a choice
        is a registry name, a ``{"name": ..., "params": {...}}`` mapping
        (the JSON-spec form), or a ``(name, params)`` pair — a tuple, or
        a 2-list inside a list of choices (see
        :func:`~repro.api.registry.parse_choice`).  Expansion
        order is workload-major, then clustering, topology, mapper —
        deterministic, so sweep resume files stay aligned.  ``metrics``
        (like ``seed``/``replicas``) applies to every produced scenario.
        """
        scenarios = []
        for w_name, w_params in _axis_choices("workload", workload):
            for c_name, c_params in _axis_choices("clustering", clustering):
                for t_name, t_params in _axis_choices("topology", topology):
                    if t_params:
                        raise ScenarioError(
                            "scenario axis 'topology': parameters belong in "
                            f"the spec string (got params {t_params!r} for "
                            f"{t_name!r}); write e.g. 'torus2d:4x4'"
                        )
                    for m_name, m_params in _axis_choices("mapper", mapper):
                        scenarios.append(
                            cls(
                                workload=w_name,
                                topology=t_name,
                                clustering=c_name,
                                mapper=m_name,
                                workload_params=w_params,
                                clustering_params=c_params,
                                mapper_params=m_params,
                                seed=seed,
                                replicas=replicas,
                                name=name,
                                metrics=metrics,
                            )
                        )
        return scenarios


def expand_spec(spec: Mapping[str, Any]) -> list[Scenario]:
    """Expand a sweep-spec dict into concrete scenarios.

    Two spec shapes are accepted (and may be combined):

    * ``{"grid": {"workload": [...], "topology": [...], ...},
      "seed": 7, "replicas": 2, "metrics": ["hop_bytes", ...]}`` — cross
      product via :meth:`Scenario.grid` (``metrics`` applies to every
      grid-produced scenario);
    * ``{"scenarios": [{...}, {...}]}`` — explicit scenario dicts (which
      carry their own ``"metrics"`` key if wanted).
    """
    if not isinstance(spec, Mapping):
        raise ScenarioError(f"a sweep spec must be a mapping, got {spec!r}")
    unknown = sorted(
        set(spec) - {"grid", "scenarios", "seed", "replicas", "name", "metrics"}
    )
    if unknown:
        raise ScenarioError(
            f"unknown sweep-spec key(s) {', '.join(map(repr, unknown))}; "
            "expected 'grid', 'scenarios', 'seed', 'replicas', 'name', 'metrics'"
        )
    scenarios: list[Scenario] = []
    if "grid" in spec:
        grid = spec["grid"]
        if not isinstance(grid, Mapping):
            raise ScenarioError(f"'grid' must be a mapping of axes, got {grid!r}")
        bad = sorted(set(grid) - {"workload", "clustering", "topology", "mapper"})
        if bad:
            raise ScenarioError(
                f"unknown grid axis(es) {', '.join(map(repr, bad))}; expected "
                "'workload', 'clustering', 'topology', 'mapper'"
            )
        for axis in ("workload", "topology"):
            if axis not in grid:
                raise ScenarioError(f"scenario axis {axis!r}: required but missing")
        seed = spec.get("seed", 0)
        replicas = spec.get("replicas", 1)
        name = spec.get("name", "")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ScenarioError(
                f"scenario axis 'seed': must be an int, got {seed!r}"
            )
        if not isinstance(replicas, int) or isinstance(replicas, bool):
            raise ScenarioError(
                f"scenario axis 'replicas': must be an int >= 1, got {replicas!r}"
            )
        if not isinstance(name, str):
            raise ScenarioError(
                f"scenario axis 'name': must be a string, got {name!r}"
            )
        scenarios.extend(
            Scenario.grid(
                workload=grid["workload"],
                topology=grid["topology"],
                clustering=grid.get("clustering", "random"),
                mapper=grid.get("mapper", "critical"),
                seed=seed,
                replicas=replicas,
                name=name,
                metrics=spec.get("metrics", ()),
            )
        )
    for entry in spec.get("scenarios", ()):
        scenarios.append(Scenario.from_dict(entry))
    if not scenarios:
        raise ScenarioError(
            "sweep spec produced no scenarios; give a 'grid' and/or a "
            "non-empty 'scenarios' list"
        )
    return scenarios


def load_spec(path: str | Path) -> list[Scenario]:
    """Read a sweep-spec JSON file and expand it (see :func:`expand_spec`)."""
    return expand_spec(json.loads(Path(path).read_text()))


@functools.cache
def _keyword_names(factory: Any) -> frozenset[str] | None:
    """The keyword names ``factory`` accepts; ``None`` if it takes ``**kwargs``.

    Cached per factory: scenarios are parsed on every service request,
    and ``inspect.signature`` costs several times a whole parse.
    """
    names: set[str] = set()
    for param in inspect.signature(factory).parameters.values():
        if param.kind is param.VAR_KEYWORD:
            return None
        if param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY):
            names.add(param.name)
    return frozenset(names)


def _axis_choices(
    axis: str, choices: object
) -> list[tuple[str, dict[str, Any]]]:
    """Normalize one grid axis to ``[(name, params), ...]``."""
    if isinstance(choices, (str, Mapping, tuple)):
        choices = [choices]
    elif not isinstance(choices, Iterable):
        raise ScenarioError(
            f"scenario axis {axis!r}: expected a choice or list of choices, "
            f"got {choices!r}"
        )
    out = [
        parse_choice(choice, f"scenario axis {axis!r}", ScenarioError)
        for choice in choices
    ]
    if not out:
        raise ScenarioError(f"scenario axis {axis!r}: needs at least one choice")
    return out
