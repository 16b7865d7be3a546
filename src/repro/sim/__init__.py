"""Discrete-event MIMD simulator: the paper's model plus fidelity knobs."""

from .engine import SimConfig, SimResult, simulate
from .events import Event, EventKind, EventQueue
from .machine import LinkGrant, MimdMachine
from .trace import (
    LoadedSimTrace,
    SimTrace,
    StallRecord,
    TaskRecord,
    TransferRecord,
    read_trace_jsonl,
    trace_records,
    write_trace_jsonl,
)

__all__ = [
    "Event",
    "EventKind",
    "EventQueue",
    "LinkGrant",
    "LoadedSimTrace",
    "MimdMachine",
    "SimConfig",
    "SimResult",
    "SimTrace",
    "StallRecord",
    "TaskRecord",
    "TransferRecord",
    "read_trace_jsonl",
    "simulate",
    "trace_records",
    "write_trace_jsonl",
]
