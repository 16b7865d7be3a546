"""Execution traces produced by the simulator.

Plain records — one per task execution, one per link traversal, one per
backpressure stall — that downstream tooling (Gantt rendering,
utilization stats, debugging) can consume without touching engine
internals.

Traces also round-trip through canonical JSONL (:mod:`repro.io.jsonl`):
:func:`write_trace_jsonl` serializes a :class:`~repro.sim.engine.SimResult`
as a header record plus one record per trace row, and
:func:`read_trace_jsonl` loads it back as a :class:`LoadedSimTrace` —
duck-type compatible with :func:`repro.analysis.gantt.render_sim_gantt`,
so an exported simulated schedule renders identically to a live one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..utils import GraphError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from .engine import SimResult

__all__ = [
    "LoadedSimTrace",
    "SimTrace",
    "StallRecord",
    "TaskRecord",
    "TransferRecord",
    "read_trace_jsonl",
    "trace_records",
    "write_trace_jsonl",
]


@dataclass(frozen=True)
class TaskRecord:
    """One task execution interval on one processor."""

    task: int
    processor: int
    start: int
    end: int


@dataclass(frozen=True)
class TransferRecord:
    """One message occupying one directed link for one hop."""

    src_task: int
    dst_task: int
    link: tuple[int, int]
    start: int
    end: int


@dataclass(frozen=True)
class StallRecord:
    """One backpressure wait at a full link FIFO.

    The message for ``src_task -> dst_task`` wanted ``link`` at ``start``
    but only obtained a FIFO slot at ``end``; the difference is the stall
    charged to the sending node.
    """

    src_task: int
    dst_task: int
    link: tuple[int, int]
    start: int
    end: int


class SimTrace:
    """Everything that happened during a run, in completion order.

    The engine hands over its rows as plain tuples of the record fields,
    and each record list is built from its rows on first read, so a run
    scored only by its makespan allocates no record.  ``SimTrace()``
    starts empty, for callers that append records themselves.
    """

    def __init__(
        self,
        task_rows: Sequence[tuple[Any, ...]] = (),
        transfer_rows: Sequence[tuple[Any, ...]] = (),
        stall_rows: Sequence[tuple[Any, ...]] = (),
    ) -> None:
        self._rows = (task_rows, transfer_rows, stall_rows)

    @cached_property
    def tasks(self) -> list[TaskRecord]:
        return [TaskRecord(*row) for row in self._rows[0]]

    @cached_property
    def transfers(self) -> list[TransferRecord]:
        return [TransferRecord(*row) for row in self._rows[1]]

    @cached_property
    def stalls(self) -> list[StallRecord]:
        return [StallRecord(*row) for row in self._rows[2]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimTrace):
            return NotImplemented
        return (self.tasks, self.transfers, self.stalls) == (
            other.tasks,
            other.transfers,
            other.stalls,
        )

    def tasks_by_processor(self) -> dict[int, list[TaskRecord]]:
        """Task records grouped by processor, ordered by start time."""
        out: dict[int, list[TaskRecord]] = {}
        for rec in self.tasks:
            out.setdefault(rec.processor, []).append(rec)
        for records in out.values():
            records.sort(key=lambda r: (r.start, r.task))
        return out

    def busiest_link(self) -> tuple[tuple[int, int], int] | None:
        """The directed link with the most cumulative transfer time."""
        if not self.transfers:
            return None
        totals = self.link_busy_time()
        link = max(totals, key=lambda k: (totals[k], k))
        return link, totals[link]

    def link_busy_time(self) -> dict[tuple[int, int], int]:
        """Cumulative transfer time per directed link."""
        totals: dict[tuple[int, int], int] = {}
        for rec in self.transfers:
            totals[rec.link] = totals.get(rec.link, 0) + (rec.end - rec.start)
        return totals

    def total_transfer_time(self) -> int:
        """Sum of all per-hop transfer durations (hop-weighted volume)."""
        return sum(rec.end - rec.start for rec in self.transfers)

    def total_stall_time(self) -> int:
        """Sum of all backpressure stall durations."""
        return sum(rec.end - rec.start for rec in self.stalls)


# ----------------------------------------------------------------------
# JSONL export / import


@dataclass(frozen=True)
class LoadedSimTrace:
    """A simulation result reloaded from its JSONL trace.

    Carries the summary fields of the originating
    :class:`~repro.sim.engine.SimResult` (the config only as its
    ``describe()`` string) plus the full trace; exposes ``.trace`` and
    ``.makespan``, the two attributes the Gantt renderer consumes, so a
    loaded trace renders exactly like the live result it was dumped from.
    """

    config: str
    makespan: int
    max_link_utilization: float
    fifo_stall_time: int
    max_queue_depth: int
    trace: SimTrace


def trace_records(result: "SimResult") -> list[dict[str, Any]]:
    """The canonical JSONL records of ``result``: header, then trace rows.

    The header carries the result's summary fields.  Its
    ``max_queue_depth`` counts a virtual queue that no message waits in
    when the run had no link contention (98 on the golden 300-task
    ``hypercube:3`` pin under ``SimConfig()``), and its
    ``fifo_stall_time`` is 0 unless the links had FIFOs; see
    :class:`~repro.sim.engine.SimResult`.  Rows are emitted in trace
    order (completion order), one object per task/transfer/stall record,
    each tagged with a ``"record"`` kind.
    """
    records: list[dict[str, Any]] = [
        {
            "record": "header",
            "config": result.config.describe(),
            "makespan": int(result.makespan),
            "max_link_utilization": float(result.max_link_utilization),
            "fifo_stall_time": int(result.fifo_stall_time),
            "max_queue_depth": int(result.max_queue_depth),
        }
    ]
    for task in result.trace.tasks:
        records.append(
            {
                "record": "task",
                "task": task.task,
                "processor": task.processor,
                "start": task.start,
                "end": task.end,
            }
        )
    for xfer in result.trace.transfers:
        records.append(
            {
                "record": "transfer",
                "src_task": xfer.src_task,
                "dst_task": xfer.dst_task,
                "link": list(xfer.link),
                "start": xfer.start,
                "end": xfer.end,
            }
        )
    for stall in result.trace.stalls:
        records.append(
            {
                "record": "stall",
                "src_task": stall.src_task,
                "dst_task": stall.dst_task,
                "link": list(stall.link),
                "start": stall.start,
                "end": stall.end,
            }
        )
    return records


def write_trace_jsonl(result: "SimResult", path: str | Path) -> int:
    """Dump ``result`` to ``path`` as canonical JSONL, in one write (no
    reader tails a trace); returns the record count."""
    from ..io.jsonl import dumps_record

    records = trace_records(result)
    Path(path).write_text("".join(dumps_record(r) + "\n" for r in records))
    return len(records)


def read_trace_jsonl(path: str | Path) -> LoadedSimTrace:
    """Load a trace dumped by :func:`write_trace_jsonl`.

    Raises :class:`GraphError` on files that are not a trace stream
    (missing/duplicate header, unknown record kind, missing fields).
    """
    from ..io.jsonl import read_jsonl

    try:
        records = read_jsonl(path)
    except OSError as exc:
        raise GraphError(f"cannot read trace file {path}: {exc}") from None
    if not records or records[0].get("record") != "header":
        raise GraphError(f"{path}: not a simulation trace (missing header record)")
    header = records[0]
    trace = SimTrace()
    try:
        for record in records[1:]:
            kind = record.get("record")
            if kind == "task":
                trace.tasks.append(
                    TaskRecord(
                        task=int(record["task"]),
                        processor=int(record["processor"]),
                        start=int(record["start"]),
                        end=int(record["end"]),
                    )
                )
            elif kind == "transfer":
                a, b = record["link"]
                trace.transfers.append(
                    TransferRecord(
                        src_task=int(record["src_task"]),
                        dst_task=int(record["dst_task"]),
                        link=(int(a), int(b)),
                        start=int(record["start"]),
                        end=int(record["end"]),
                    )
                )
            elif kind == "stall":
                a, b = record["link"]
                trace.stalls.append(
                    StallRecord(
                        src_task=int(record["src_task"]),
                        dst_task=int(record["dst_task"]),
                        link=(int(a), int(b)),
                        start=int(record["start"]),
                        end=int(record["end"]),
                    )
                )
            elif kind == "header":
                raise GraphError(f"{path}: duplicate header record")
            else:
                raise GraphError(f"{path}: unknown trace record kind {kind!r}")
        return LoadedSimTrace(
            config=str(header["config"]),
            makespan=int(header["makespan"]),
            max_link_utilization=float(header["max_link_utilization"]),
            fifo_stall_time=int(header.get("fifo_stall_time", 0)),
            max_queue_depth=int(header.get("max_queue_depth", 0)),
            trace=trace,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"{path}: malformed trace record: {exc}") from exc
