"""Link bookkeeping for the simulator's contention model.

Messages follow the routes of
:meth:`repro.topology.base.SystemGraph.shortest_path`; this module only
tracks what happens on the links they cross:

* a directed-link table for the contention model (each physical link is
  two directed channels, full duplex, one message at a time each);
* finite per-link FIFO bookkeeping for the backpressure model: with
  ``fifo_depth = D`` at most ``D`` messages may hold a slot on a
  directed link (queued or transmitting) at any time, and a message
  arriving at a full link *stalls at the sending node* until the oldest
  slot-holder finishes.  Stalled messages wait in the node's (infinite)
  buffer rather than holding upstream links, so backpressure never
  propagates and the store-and-forward deadlock of credit-based
  wormhole models cannot occur — every stall ends when a transmission
  ends, and started transmissions always finish.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from ..topology.base import SystemGraph

__all__ = ["LinkGrant", "MimdMachine"]


class LinkGrant(NamedTuple):
    """Outcome of one directed-link acquisition.

    ``enqueue`` is when the message obtained a FIFO slot (equals the
    request time unless the link's FIFO was full), ``start``/``end``
    bound the transmission itself, and ``stall = enqueue - request``
    is the backpressure wait spent in the sender's node buffer.
    """

    enqueue: int
    start: int
    end: int
    stall: int


class MimdMachine:
    """Link bookkeeping for one system graph.

    ``fifo_depth=None`` (the default) models unbounded link queues —
    the historical behavior; an integer ``D >= 1`` bounds each directed
    link to ``D`` in-flight messages with backpressure stalls.  Queue
    and stall statistics are meaningful only under the engine's
    contention mode, where grants serialize transmissions.

    Per-link state sits in flat lists indexed by the directed link
    ``a * ns + b``: the cumulative busy time, and the ascending finish
    times of every transmission granted so far, read from a head index
    that skips those already finished.
    """

    def __init__(self, system: SystemGraph, fifo_depth: int | None = None) -> None:
        if fifo_depth is not None and fifo_depth < 1:
            raise ValueError(f"fifo_depth must be >= 1, got {fifo_depth}")
        self.system = system
        self.fifo_depth = fifo_depth
        self.reset_links()

    @property
    def num_nodes(self) -> int:
        return self.system.num_nodes

    def reset_links(self) -> None:
        """Forget all link occupancy (start of a simulation run)."""
        links = self.system.num_nodes ** 2
        self._busy = [0] * links
        self._finish: list[list[int] | None] = [None] * links
        self._head = [0] * links
        self._stall_total = 0
        self._peak_queue = 0

    def grant(self, link: int, request_time: int, duration: int) -> tuple[int, int]:
        """:meth:`acquire` on directed link ``link = a * ns + b``; returns
        ``(enqueue, start)`` — the engine's per-hop call.  ``duration``
        must be at least 1, as every engine hop is; :meth:`acquire`
        checks it, this call does not."""
        finish = self._finish[link]
        if finish is None:
            finish = self._finish[link] = []
        head = bisect_right(finish, request_time, self._head[link])
        self._head[link] = head
        # Every duration is at least 1, so ``finish`` ascends, and the
        # holders from ``head`` on, like this message, finish after the
        # request.
        holding = len(finish) - head
        enqueue = request_time
        depth = self.fifo_depth
        if depth is not None and holding >= depth:
            enqueue = finish[-depth]
            self._stall_total += enqueue - request_time
        start = finish[-1] if holding else request_time
        finish.append(start + duration)
        occupancy = holding + 1
        if enqueue > request_time:
            # A stalled message enters the queue once some slot-holders
            # have finished: count only those still holding a slot.
            occupancy = len(finish) - bisect_right(finish, enqueue, head)
        if occupancy > self._peak_queue:
            self._peak_queue = occupancy
        self._busy[link] += duration
        return enqueue, start

    def acquire(
        self, a: int, b: int, request_time: int, duration: int
    ) -> LinkGrant:
        """Reserve directed link ``a -> b``; returns the full grant.

        The transfer occupies the link during ``[start, start +
        duration)``, ``duration >= 1``.  With a finite FIFO the message
        first waits for a slot: it enters the queue when the occupancy
        drops below ``fifo_depth`` (finish times are monotone, so the
        wait is the ``depth``-th most recent slot-holder's finish) and
        the stall is charged to the sender.  Stalls only ever *delay*
        the start, so every relaxation remains monotone versus the
        analytic model.
        """
        if duration < 1:
            raise ValueError(f"duration must be >= 1, got {duration}")
        link = a * self.system.num_nodes + b
        enqueue, start = self.grant(link, request_time, duration)
        return LinkGrant(enqueue, start, start + duration, enqueue - request_time)

    def acquire_link(self, a: int, b: int, request_time: int, duration: int) -> int:
        """Reserve directed link ``a -> b``; returns the transfer *start* time.

        Thin historical wrapper over :meth:`acquire`.
        """
        return self.acquire(a, b, request_time, duration).start

    def max_link_utilization(self, makespan: int) -> float:
        """Peak directed-link utilization (busy / makespan) of the last run."""
        if makespan <= 0:
            return 0.0
        return max(self._busy) / makespan

    def fifo_stall_time(self) -> int:
        """Total backpressure stall time across all links (0 without FIFOs)."""
        return self._stall_total

    def max_queue_depth(self) -> int:
        """Peak slot occupancy across all links (<= ``fifo_depth`` when set)."""
        return self._peak_queue
