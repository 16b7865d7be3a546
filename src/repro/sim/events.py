"""Event types and the event queue for the MIMD simulator.

A tiny, dependency-free discrete-event core: events are ordered by
``(time, sequence)`` so simultaneous events fire in insertion order,
which makes runs fully deterministic.
"""

from __future__ import annotations

import heapq
from enum import Enum, auto
from itertools import count
from typing import NamedTuple

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind(Enum):
    """What happened (see :mod:`repro.sim.engine` for the semantics)."""

    TASK_READY = auto()      # all inputs of a task have arrived
    TASK_FINISH = auto()     # a task completed execution
    HOP_ARRIVE = auto()      # a message finished traversing one link


class Event(NamedTuple):
    """One scheduled occurrence.

    Ordered as a tuple, so by ``(time, seq)``: ``seq`` is unique, and
    ``kind`` and the untyped ``payload`` are never compared.
    """

    time: int
    seq: int
    kind: EventKind
    payload: object = None


class EventQueue:
    """A deterministic min-heap of :class:`Event`."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = count()

    def push(self, time: int, kind: EventKind, payload: object = None) -> None:
        if time < 0:
            raise ValueError("event time must be non-negative")
        heapq.heappush(self._heap, Event(time, next(self._seq), kind, payload))

    def pop(self) -> Event:
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
