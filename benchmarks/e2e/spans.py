"""Span recorder for the end-to-end benchmark's ``--trace`` runs.

The recorder wraps library callables from the outside -- module-level
functions and class attributes -- so the program under test is never
edited.  Each call of a wrapped callable becomes a span ``(name, start,
end, parent)`` kept in memory per process; nothing is written until the
process ends.

* Functions are patched *everywhere they are bound*: every ``repro.*``
  module and every benchmark module whose globals hold the same function
  object gets the wrapper, so ``from x import f`` copies and aliases
  (``_refine_with_metric = refine_metric``) are traced too.  :meth:`Recorder.uninstall` puts every
  original back.
* Class attributes are patched on the class that defines them, so
  instances and subclasses pick the wrapper up at call time.
* Forked children inherit the wrappers.  ``os.register_at_fork`` clears
  the inherited buffer in every child, and ``multiprocessing`` children
  (pool workers) register a :class:`multiprocessing.util.Finalize` at
  exit priority 0 that writes their spans, because such children leave
  through ``os._exit`` and never run ``atexit``.
* Servers started through ``launch.py`` write their spans from an
  ``atexit`` handler (their SIGTERM path drains and returns normally).

:func:`load_spans` merges the per-process files back, and
:func:`summarize` turns spans into counts, inclusive seconds, self
seconds (span minus its children) and per-call durations.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util as mp_util
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# The recorder whose wrappers are live in this process; the fork hooks
# below consult it (they cannot be unregistered, so they must be inert
# once the recorder is uninstalled).
_active: Recorder | None = None
_fork_hook_registered = False


def _scanned_modules():
    """The library's modules and the benchmark's own."""
    for name, module in list(sys.modules.items()):
        if module is None:
            continue
        path = getattr(module, "__file__", None) or ""
        if name.startswith("repro") or Path(path).resolve().parent == BENCH_DIR:
            yield module


def _after_fork_in_child() -> None:
    if _active is not None:
        _active.reset_after_fork()


def _finalize_in_mp_child(recorder: Recorder) -> None:
    if recorder is _active:
        mp_util.Finalize(None, recorder.flush, exitpriority=0)


class Recorder:
    """Wraps callables and records one span per call.

    ``out_dir`` receives ``spans-<role>-<pid>.json`` from :meth:`flush`;
    ``role`` names the process kind (``bench``, ``shard``, ``gateway``).
    """

    def __init__(self, out_dir: str | Path | None, role: str) -> None:
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.role = role
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}  # id(wrapper) -> function

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func):
        """A wrapper around ``func`` recording span ``name`` per call."""
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = recorder.spans[index]
                span[1], span[2] = start, end

        return traced

    # -- patching -------------------------------------------------------

    def patch_function(self, func, name: str) -> None:
        """Replace every module binding of ``func``."""
        wrapper = self.wrap(name, func)
        self._originals[id(wrapper)] = func
        for module in _scanned_modules():
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patches.append((module, attr, func))
                    setattr(module, attr, wrapper)

    def patch_attribute(self, owner: type, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself)."""
        if attr not in vars(owner):
            raise AttributeError(f"{owner.__qualname__} does not define {attr!r}")
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self) -> None:
        """Make this the process's active recorder (fork hooks included)."""
        global _active, _fork_hook_registered
        if _active is not None and _active is not self:
            raise RuntimeError("another span recorder is already installed")
        _active = self
        if not _fork_hook_registered:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _fork_hook_registered = True
        mp_util.register_after_fork(self, _finalize_in_mp_child)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first.

        Modules imported while the wrappers were live may have copied a
        wrapper with ``from x import f``; those bindings are found by
        identity and restored too.
        """
        global _active
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for module in _scanned_modules():
            for attr, value in list(vars(module).items()):
                original = self._originals.get(id(value))
                if original is not None and getattr(value, "__wrapped__", None) is original:
                    setattr(module, attr, original)
        if _active is self:
            _active = None

    # -- process lifecycle ----------------------------------------------

    def reset_after_fork(self) -> None:
        """In a forked child: drop the parent's spans and call stack."""
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def flush(self) -> Path | None:
        """Write this process's spans to ``out_dir``."""
        if self.out_dir is None:
            return None
        path = self.out_dir / f"spans-{self.role}-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"role": self.role, "spans": self.spans}))
        os.replace(tmp, path)
        return path


# -- merging and summarizing --------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index in the same process's list, -1 for a root
    process: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SpanSet:
    """Spans of every traced process, indexed per process."""

    by_process: dict[str, list[Span]] = field(default_factory=dict)

    def add_process(self, key: str, raw: list[list]) -> None:
        # Unfinished spans (end == 0: a call still running at exit) stay
        # in the list so parent indices remain valid; summaries skip them.
        self.by_process[key] = [
            Span(name, start, end, parent, key) for name, start, end, parent in raw
        ]

    def all(self) -> list[Span]:
        return [span for spans in self.by_process.values() for span in spans]

    def parent_of(self, span: Span) -> Span | None:
        if span.parent < 0:
            return None
        spans = self.by_process[span.process]
        return spans[span.parent] if span.parent < len(spans) else None

    def children(self) -> dict[int, list[Span]]:
        """``id(span) -> direct children`` across all processes."""
        out: dict[int, list[Span]] = {}
        for span in self.all():
            parent = self.parent_of(span)
            if parent is not None:
                out.setdefault(id(parent), []).append(span)
        return out


#: Process key of the spans recorded in the calling process itself.
LOCAL = "local"


def from_recorder(recorder: Recorder, key: str = LOCAL) -> SpanSet:
    """The in-process spans of ``recorder``."""
    spans = SpanSet()
    spans.add_process(key, recorder.spans)
    return spans


def load_spans(directory: str | Path, into: SpanSet | None = None) -> SpanSet:
    """Merge every ``spans-*.json`` file under ``directory``."""
    spans = into if into is not None else SpanSet()
    for path in sorted(Path(directory).glob("spans-*.json")):
        data = json.loads(path.read_text())
        spans.add_process(f"{data['role']}:{path.stem}", data["spans"])
    return spans


@dataclass
class LayerStats:
    """Per-span-name totals."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    durations: list[float] = field(default_factory=list)


def summarize(spans: SpanSet, keep=lambda span: True) -> dict[str, LayerStats]:
    """Counts, inclusive and self seconds, and per-call durations by name.

    ``keep`` filters spans (e.g. to the measured windows); self time is
    computed from all children, kept or not, so filtering never inflates
    a parent's self time.
    """
    children = spans.children()
    stats: dict[str, LayerStats] = {}
    for span in spans.all():
        if span.end <= 0.0 or not keep(span):
            continue
        entry = stats.setdefault(span.name, LayerStats())
        duration = span.duration
        entry.calls += 1
        entry.seconds += duration
        entry.self_seconds += duration - sum(
            child.duration for child in children.get(id(span), ()) if child.end > 0.0
        )
        entry.durations.append(duration)
    return stats
