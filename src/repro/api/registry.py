"""Generic named-component registries, and the mapper registry built on one.

Every axis of a mapping experiment — mappers, clusterers, workloads,
topologies — is addressable by name through a :class:`Registry`::

    mapper = get_mapper("tabu", iterations=60)
    outcome = mapper.map(clustered, system, rng=7)

All four registries share the same machinery and therefore the same
name-validation rule and the same duplicate/unknown error messages; only
the component *kind* differs.  The mapper registry lives here (the
:class:`Mapper` protocol is its contract); the clusterer, workload, and
topology registries live in :mod:`repro.api.components`.

Registration happens via the :meth:`Registry.register` decorator (see
:mod:`repro.api.adapters` for the built-in mapper registrations).  The
registries are what let the experiment runner, the CLI, the batch engine,
and the scenario sweep accept component *names* instead of hard-coding
imports.

Wherever a component is chosen — a scenario axis, a metric spec, a
portfolio arm, a ``compare`` entry — the choice is spelled one way and
read by :func:`parse_choice`: a name, a ``{"name": ..., "params": {...}}``
mapping, or a ``(name, params)`` pair.  :func:`choice_label` renders a
parsed choice as ``name`` or ``name[k=v,...]``, the form scenario keys,
sweep tables and fingerprints are built from, and :func:`choice_spec`
writes one back in its JSON spelling.
"""

from __future__ import annotations

import difflib
from collections.abc import Mapping
from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

from ..core.clustered import ClusteredGraph
from ..topology.base import SystemGraph
from ..utils import MappingError
from .outcome import MapOutcome

__all__ = [
    "Mapper",
    "Registry",
    "RegistryError",
    "DuplicateComponentError",
    "UnknownComponentError",
    "DuplicateMapperError",
    "UnknownMapperError",
    "MAPPERS",
    "available_mappers",
    "choice_label",
    "choice_spec",
    "get_mapper",
    "parse_choice",
    "register_mapper",
]


@runtime_checkable
class Mapper(Protocol):
    """What the facade and batch engine require of a mapper.

    ``name`` identifies the mapper in reports; ``map`` runs it on one
    instance.  Mappers must be deterministic given ``rng`` (an int seed
    or a :class:`numpy.random.Generator`) and must be picklable so the
    batch engine can ship them to worker processes.
    """

    name: str

    def map(
        self,
        clustered: ClusteredGraph,
        system: SystemGraph,
        rng: int | np.random.Generator | None = None,
    ) -> MapOutcome: ...


class RegistryError(MappingError):
    """Base class of every registry failure."""


class DuplicateComponentError(RegistryError):
    """A component name was registered twice in the same registry."""


class UnknownComponentError(RegistryError):
    """A component name is not in the registry it was looked up in."""


class DuplicateMapperError(DuplicateComponentError):
    """A mapper name was registered twice."""


class UnknownMapperError(UnknownComponentError):
    """A mapper name is not in the registry."""


class Registry:
    """A ``name -> factory`` table for one axis of the experiment grid.

    Parameters
    ----------
    kind:
        Singular component kind used in messages, e.g. ``"mapper"``.
    duplicate_error, unknown_error:
        Exception classes raised on double registration / failed lookup
        (must subclass the generic registry errors, so callers can catch
        either the specific or the generic type).

    Names must be lowercase identifiers (``[a-z0-9_]+``, starting
    non-empty); the rule and its message are identical across all
    registries.
    """

    def __init__(
        self,
        kind: str,
        *,
        duplicate_error: type[DuplicateComponentError] = DuplicateComponentError,
        unknown_error: type[UnknownComponentError] = UnknownComponentError,
    ) -> None:
        self.kind = kind
        self._duplicate_error = duplicate_error
        self._unknown_error = unknown_error
        self._factories: dict[str, Callable[..., Any]] = {}

    def validate_name(self, name: str) -> None:
        """Reject anything but a lowercase identifier, uniformly."""
        if not name or not name.islower() or not name.replace("_", "").isalnum():
            raise RegistryError(
                f"{self.kind} names must be lowercase identifiers, got {name!r}"
            )

    def register(
        self, name: str
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator registering a factory under ``name``.

        Class factories gain a ``name`` attribute (the :class:`Mapper`
        protocol requires one); plain functions are stored as-is.
        """
        self.validate_name(name)

        def decorate(factory: Callable[..., Any]) -> Callable[..., Any]:
            if name in self._factories:
                raise self._duplicate_error(
                    f"{self.kind} {name!r} is already registered "
                    f"(by {self._factories[name].__qualname__})"
                )
            if isinstance(factory, type):
                factory.name = name  # type: ignore[attr-defined]
            self._factories[name] = factory
            return factory

        return decorate

    def get(self, name: str, **params: object) -> Any:
        """Instantiate the component registered under ``name`` with ``params``."""
        return self.factory(name)(**params)

    def factory(self, name: str) -> Callable[..., Any]:
        """The raw registered factory (no instantiation).

        Unknown names raise with near-miss suggestions (``did you mean
        'multilevel'?``) when the name resembles a registered one, and
        only fall back to the full listing when nothing is close.
        """
        try:
            return self._factories[name]
        except KeyError:
            raise self._unknown_error(
                f"unknown {self.kind} {name!r}; {self.suggest(name)}"
            ) from None

    def suggest(self, name: str) -> str:
        """A ``did you mean ...?`` hint for ``name``, or the full listing."""
        matches = difflib.get_close_matches(str(name), self.available(), n=3)
        if matches:
            return "did you mean " + " or ".join(repr(m) for m in matches) + "?"
        return f"available: {', '.join(self.available())}"

    def available(self) -> list[str]:
        """Sorted names of every registered component."""
        return sorted(self._factories)

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry(kind={self.kind!r}, names={self.available()})"


#: The mapper axis: names -> mapper factories (see repro.api.adapters).
MAPPERS = Registry(
    "mapper",
    duplicate_error=DuplicateMapperError,
    unknown_error=UnknownMapperError,
)


def register_mapper(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Class decorator registering a mapper factory under ``name``.

    The decorated class gains a ``name`` attribute; instantiating it with
    keyword parameters must yield a :class:`Mapper`.
    """
    return MAPPERS.register(name)


def available_mappers() -> list[str]:
    """Sorted names of every registered mapper."""
    return MAPPERS.available()


def get_mapper(name: str, **params: object) -> Mapper:
    """Instantiate the mapper registered under ``name`` with ``params``."""
    return MAPPERS.get(name, **params)


def parse_choice(
    choice: object, what: str, error: type[MappingError] = MappingError
) -> tuple[str, dict[str, Any]]:
    """Read one component choice as ``(name, params)``.

    A choice is a name, a ``{"name": ..., "params": {...}}`` mapping (the
    JSON-spec form), or a ``(name, params)`` tuple or 2-list, with a
    string name and params that are a mapping or ``None``.  Anything else
    raises ``error``, its message starting with ``what`` (the field being
    read, e.g. ``"portfolio arm"``).  Whether the name is registered is
    the caller's check.
    """
    if isinstance(choice, str):
        return choice, {}
    if isinstance(choice, Mapping):
        if "name" not in choice or set(choice) - {"name", "params"}:
            raise error(
                f"{what}: a mapping needs a 'name' and optional 'params', "
                f"got {dict(choice)!r}"
            )
        name, params = choice["name"], choice.get("params")
    elif isinstance(choice, (tuple, list)) and len(choice) == 2:
        name, params = choice
    else:
        raise error(
            f"{what}: expected a name, a (name, params) pair or a "
            f"{{'name': ..., 'params': {{...}}}} mapping, got {choice!r}"
        )
    if not isinstance(name, str):
        raise error(f"{what}: the name must be a string, got {name!r}")
    if params is not None and not isinstance(params, Mapping):
        raise error(
            f"{what}: the params of {name!r} must be a mapping or null, "
            f"got {params!r}"
        )
    return name, dict(params or {})


def choice_label(name: str, params: Mapping[str, Any] | None = None) -> str:
    """Canonical display form of a choice: ``name`` or ``name[k=v,...]``.

    Params are sorted by key, so the label — and the scenario keys, group
    keys and fingerprints built from it — does not depend on their order.
    """
    if not params:
        return name
    inner = ",".join(f"{k}={params[k]!r}" for k in sorted(params))
    return f"{name}[{inner}]"


def choice_spec(
    name: str, params: Mapping[str, Any] | None = None
) -> str | dict[str, Any]:
    """JSON spelling of a choice, which :func:`parse_choice` reads back:
    the bare ``name`` without params, else ``{"name": ..., "params": {...}}``.
    """
    return name if not params else {"name": name, "params": dict(params)}
