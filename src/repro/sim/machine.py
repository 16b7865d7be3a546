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

from collections import deque
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
    """

    def __init__(self, system: SystemGraph, fifo_depth: int | None = None) -> None:
        if fifo_depth is not None and fifo_depth < 1:
            raise ValueError(f"fifo_depth must be >= 1, got {fifo_depth}")
        self.system = system
        self.fifo_depth = fifo_depth
        # busy-until time per directed link; populated lazily.
        self._link_free: dict[tuple[int, int], int] = {}
        self._link_busy_total: dict[tuple[int, int], int] = {}
        # FIFO state: finish times of slot-holding messages (ascending),
        # cumulative stall per link, and the peak observed occupancy.
        self._link_active: dict[tuple[int, int], deque[int]] = {}
        self._link_stall_total: dict[tuple[int, int], int] = {}
        self._link_peak_queue: dict[tuple[int, int], int] = {}

    @property
    def num_nodes(self) -> int:
        return self.system.num_nodes

    def reset_links(self) -> None:
        """Forget all link occupancy (start of a simulation run)."""
        self._link_free.clear()
        self._link_busy_total.clear()
        self._link_active.clear()
        self._link_stall_total.clear()
        self._link_peak_queue.clear()

    def acquire(
        self, a: int, b: int, request_time: int, duration: int
    ) -> LinkGrant:
        """Reserve directed link ``a -> b``; returns the full grant.

        The transfer occupies the link during ``[start, start +
        duration)``.  With a finite FIFO the message first waits for a
        slot: it enters the queue when the occupancy drops below
        ``fifo_depth`` (finish times are monotone, so the wait is the
        ``depth``-th most recent slot-holder's finish) and the stall is
        charged to the sender.  Stalls only ever *delay* the start, so
        every relaxation remains monotone versus the analytic model.
        """
        link = (a, b)
        active = self._link_active.get(link)
        if active is None:
            active = deque()
            self._link_active[link] = active
        while active and active[0] <= request_time:
            active.popleft()
        enqueue = request_time
        if self.fifo_depth is not None and len(active) >= self.fifo_depth:
            enqueue = active[len(active) - self.fifo_depth]
        stall = enqueue - request_time
        start = max(enqueue, self._link_free.get(link, 0))
        end = start + duration
        active.append(end)
        occupancy = sum(1 for finish in active if finish > enqueue)
        if occupancy > self._link_peak_queue.get(link, 0):
            self._link_peak_queue[link] = occupancy
        self._link_free[link] = end
        self._link_busy_total[link] = self._link_busy_total.get(link, 0) + duration
        if stall:
            self._link_stall_total[link] = (
                self._link_stall_total.get(link, 0) + stall
            )
        return LinkGrant(enqueue=enqueue, start=start, end=end, stall=stall)

    def acquire_link(self, a: int, b: int, request_time: int, duration: int) -> int:
        """Reserve directed link ``a -> b``; returns the transfer *start* time.

        Thin historical wrapper over :meth:`acquire`.
        """
        return self.acquire(a, b, request_time, duration).start

    def link_busy_time(self) -> dict[tuple[int, int], int]:
        """Total busy time per directed link over the last run."""
        return dict(self._link_busy_total)

    def max_link_utilization(self, makespan: int) -> float:
        """Peak directed-link utilization (busy / makespan) of the last run."""
        if makespan <= 0 or not self._link_busy_total:
            return 0.0
        return max(self._link_busy_total.values()) / makespan

    def link_stall_time(self) -> dict[tuple[int, int], int]:
        """Backpressure stall time charged per directed link."""
        return dict(self._link_stall_total)

    def fifo_stall_time(self) -> int:
        """Total backpressure stall time across all links (0 without FIFOs)."""
        return sum(self._link_stall_total.values())

    def peak_queue_depth(self) -> dict[tuple[int, int], int]:
        """Peak simultaneous slot occupancy observed per directed link."""
        return dict(self._link_peak_queue)

    def max_queue_depth(self) -> int:
        """Peak slot occupancy across all links (<= ``fifo_depth`` when set)."""
        return max(self._link_peak_queue.values(), default=0)
