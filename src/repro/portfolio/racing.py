"""Race K mappers on one instance; kill dominated arms deterministically.

The controller fans the arms onto a process pool, follows each arm's
anytime checkpoint stream (:class:`~repro.core.anytime.FileReporter`),
and stop-signals arms that a deterministic *fold* declares dominated.
Two rules decide kills, both keyed to **checkpoint ordinals** — never to
wall-clock — so the verdict is a pure function of the per-arm value
streams and is bit-identical at any worker count or scheduling order:

* **finish dominance** (every ordinal): an arm still running at ordinal
  ``b`` dies if some arm that already *finished its whole stream before
  b* ended with a strictly better objective — the racer can never beat
  a finished rival it is already behind.
* **ratio kill** (ordinals 1, 2, 4, 8, ... — successive-halving budget
  doubling): an arm dies when its best-so-far exceeds ``kill_ratio``
  times the best rival value at the same ordinal.

The minimum-valued arm at an ordinal is never killed, so the race always
keeps a survivor; never-killed arms are never stop-signaled, so the
winner's outcome is bit-identical to running that arm alone.  Arms that
emit no checkpoints (constructive mappers like ``critical``) simply
block the fold until they finish — deterministic, at the cost of no
early kills against them until their final value exists.

The physical stop signal is an optimization only: an arm the fold kills
after it already finished is still *recorded* as killed, which is what
keeps the diagnostics byte-stable across timings.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import shutil
import tempfile
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.anytime import FileReporter, use_reporter
from ..core.assignment import Assignment
from ..core.clustered import ClusteredGraph
from ..core.evaluate import total_time
from ..topology.base import SystemGraph
from ..utils import MappingError, as_rng

__all__ = [
    "OBJECTIVES",
    "ArmSpec",
    "ObjectiveScorer",
    "RaceFold",
    "RaceResult",
    "arm_seeds",
    "race",
]

#: Racing objectives: what "better" means across arms.
OBJECTIVES = ("total_time", "comm_volume")


@dataclass(frozen=True)
class ArmSpec:
    """One competitor: a built mapper plus the config that names it."""

    name: str
    params: dict[str, Any]
    mapper: Any  # a built Mapper (picklable, ships to the pool)


@dataclass(frozen=True)
class RaceResult:
    """The deterministic outcome of one race."""

    winner: int
    outcome: Any  # the winner's MapOutcome, bit-identical to a solo run
    arms: list[dict[str, Any]]  # JSON-ready per-arm diagnostics


class ObjectiveScorer:
    """Score assignments/outcomes under one racing objective.

    ``comm_volume`` is the registered ``comm_volume`` metric, which
    equals both ``Schedule.communication_volume()`` and the multilevel
    refinement's :class:`~repro.core.incremental.CommVolumeDelta`
    aggregate — so checkpoint values labeled ``comm_volume`` and
    re-scored assignments live on the same scale.
    """

    def __init__(
        self, clustered: ClusteredGraph, system: SystemGraph, objective: str
    ) -> None:
        if objective not in OBJECTIVES:
            raise MappingError(
                f"unknown racing objective {objective!r}; "
                f"available: {', '.join(OBJECTIVES)}"
            )
        self.objective = objective
        self._clustered = clustered
        self._system = system
        if objective == "comm_volume":
            from ..metrics import METRICS  # deferred: repro.metrics imports repro.api

            self._volume = METRICS.get("comm_volume")

    def score_assignment(self, assignment: Assignment) -> float:
        if self.objective == "comm_volume":
            volume = self._volume.compute(self._clustered, self._system, assignment)
            return volume["comm_volume"]
        return float(total_time(self._clustered, self._system, assignment))

    def score_outcome(self, outcome: Any) -> float:
        if self.objective == "total_time":
            return float(outcome.total_time)
        return self.score_assignment(outcome.assignment)


class RaceFold:
    """Kill decisions as a pure fold over per-arm checkpoint streams.

    Feed checkpoints with :meth:`add_checkpoint` (in per-arm stream
    order), mark ended streams with :meth:`set_final` (successful, with
    the final objective value) or :meth:`set_failed`, and call
    :meth:`advance` whenever new data arrived.  ``advance`` processes
    frontier ordinals as they become *evaluable* — every active arm
    either has a value at the ordinal or is known to have ended before
    it — so the sequence of kills depends only on the streams, not on
    arrival timing.
    """

    def __init__(self, num_arms: int, kill_ratio: float) -> None:
        if num_arms < 2:
            raise MappingError(f"a race needs >= 2 arms, got {num_arms}")
        if kill_ratio < 1.0:
            raise MappingError(f"kill_ratio must be >= 1.0, got {kill_ratio}")
        self.kill_ratio = float(kill_ratio)
        self.values: list[list[float]] = [[] for _ in range(num_arms)]
        self.final: list[float | None] = [None] * num_arms
        self.ended = [False] * num_arms  # stream complete (success or failure)
        self.active = set(range(num_arms))
        self.killed_at: dict[int, int] = {}
        self.killed_value: dict[int, float] = {}
        self.frontier = 1

    def add_checkpoint(self, arm: int, value: float) -> None:
        self.values[arm].append(float(value))

    def set_final(self, arm: int, value: float) -> None:
        self.final[arm] = float(value)
        self.ended[arm] = True

    def set_failed(self, arm: int) -> None:
        self.ended[arm] = True  # final stays None: no value, no dominance

    def _evaluable(self, b: int) -> bool:
        return all(
            len(self.values[arm]) >= b or self.ended[arm] for arm in self.active
        )

    def advance(self) -> list[int]:
        """Process every evaluable frontier ordinal; return new kills."""
        newly: list[int] = []
        while len(self.active) > 1 and self._evaluable(self.frontier):
            b = self.frontier
            # Failed arms whose stream ended before b leave the race
            # silently: they contribute their checkpoints while alive
            # but have no final value to dominate with.
            for arm in sorted(self.active):
                if (
                    len(self.values[arm]) < b
                    and self.ended[arm]
                    and self.final[arm] is None
                ):
                    self.active.discard(arm)
            if len(self.active) <= 1:
                break
            alive = sorted(self.active)
            vals = {
                a: (
                    self.values[a][b - 1]
                    if len(self.values[a]) >= b
                    else self.final[a]
                )
                for a in alive
            }
            # Arms whose streams all ended before b can never be killed
            # (nothing new will ever arrive): the fold is done.
            killable = [a for a in alive if len(self.values[a]) >= b]
            if not killable:
                break
            kills: set[int] = set()
            finished_short = [a for a in alive if len(self.values[a]) < b]
            if finished_short:
                best_final = min(vals[a] for a in finished_short)
                for a in killable:
                    if best_final < vals[a]:
                        kills.add(a)
            if b & (b - 1) == 0:  # ratio kills at ordinals 1, 2, 4, 8, ...
                for a in killable:
                    rival = min(vals[o] for o in alive if o != a)
                    if vals[a] > self.kill_ratio * rival:
                        kills.add(a)
            # The best arm at this ordinal always survives (ties keep
            # the lowest index), so the race cannot kill everyone.
            kills.discard(min(alive, key=lambda a: (vals[a], a)))
            for a in sorted(kills):
                self.active.discard(a)
                self.killed_at[a] = b
                self.killed_value[a] = vals[a]
                newly.append(a)
            self.frontier += 1
        return newly


#: Instances shared with forked arm workers (copy-on-write) and cached
#: by pickle-loading workers; keyed by the race tmpdir, which is unique
#: per race.  Loaders keep at most one entry so long-lived pool workers
#: never accumulate instances across races.
_INSTANCES: dict[str, tuple[ClusteredGraph, SystemGraph]] = {}


@dataclass(frozen=True)
class _ArmTask:
    """Everything one pool worker needs to run an arm (all picklable).

    The instance itself is deliberately *not* a field: a 5k-task
    clustered graph pickles to hundreds of MB, and ``executor.submit``
    would serialize it once per arm.  Arms resolve it instead via
    ``instance_key`` — found in :data:`_INSTANCES` when the worker was
    forked from the racing process (copy-on-write, zero serialization),
    loaded once from ``instance_path`` otherwise.
    """

    index: int
    mapper: Any
    instance_key: str
    instance_path: str
    seed: int
    checkpoint_path: str
    stop_path: str
    label: str


def _run_arm(task: _ArmTask):
    """Pool-side arm entry point: install the reporter, run the mapper.

    The reporter is installed process-wide (:func:`use_reporter`) rather
    than passed through ``map()`` because the mapper protocol's
    signature is fixed; the adapters read it back and thread it into
    their underlying algorithms.
    """
    instance = _INSTANCES.get(task.instance_key)
    if instance is None:
        with open(task.instance_path, "rb") as fh:
            instance = pickle.load(fh)
        # Single-slot cache: the sibling arm on this worker skips the
        # load, but a later race's instance evicts this one.
        _INSTANCES.clear()
        _INSTANCES[task.instance_key] = instance
    clustered, system = instance
    reporter = FileReporter(task.checkpoint_path, task.stop_path, task.label)
    with use_reporter(reporter):
        return task.mapper.map(clustered, system, rng=task.seed)


def arm_seeds(rng, count: int) -> list[int]:
    """Independent per-arm seeds from one root, stable across runs.

    An integer root is used as-is (the cacheable path: same seed in,
    same race out); a generator or ``None`` draws one root first.
    """
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        root = int(rng)
    else:
        root = int(as_rng(rng).integers(0, 2**63))
    return [
        int(
            np.random.SeedSequence([root % 2**64, index]).generate_state(
                1, dtype=np.uint64
            )[0]
        )
        for index in range(count)
    ]


def _read_checkpoints(
    path: str, offset: int
) -> tuple[int, list[dict[str, Any]]]:
    """New *complete* checkpoint lines since ``offset``.

    The writer appends whole lines; a torn tail (a line still being
    written) is left for the next poll by advancing the offset only
    past newline-terminated data.
    """
    if not os.path.exists(path):
        return offset, []
    with open(path, "rb") as fh:
        fh.seek(offset)
        data = fh.read()
    end = data.rfind(b"\n")
    if end < 0:
        return offset, []
    complete = data[: end + 1]
    entries = [
        json.loads(line) for line in complete.decode("utf-8").splitlines() if line
    ]
    return offset + len(complete), entries


def race(
    clustered: ClusteredGraph,
    system: SystemGraph,
    arms: list[ArmSpec],
    *,
    rng=None,
    objective: str = "total_time",
    kill_ratio: float = 1.5,
    poll_interval: float = 0.01,
    executor=None,
) -> RaceResult:
    """Run every arm on ``(clustered, system)``; return the winner.

    Pool selection: by default the arms run on a private fork-context
    pool whose workers inherit the instance copy-on-write — shipping a
    5k-task clustered graph costs nothing instead of one multi-hundred-MB
    pickle per arm.  That holds wherever the race runs: in the main
    process, or inside a warm :class:`~repro.service.MappingService`
    worker (the forked arms inherit that worker's loaded modules, so
    they start warm too).  Where ``fork`` is unavailable, or when an
    explicit ``executor`` is passed, the instance is pickled *once* to a
    file in the race tmpdir and each arm loads it.  The call always
    joins every arm before returning — no orphaned workers, even on
    error.
    """
    scorer = ObjectiveScorer(clustered, system, objective)
    fold = RaceFold(len(arms), kill_ratio)
    seeds = arm_seeds(rng, len(arms))
    tmpdir = tempfile.mkdtemp(prefix="mimdmap-race-")
    instance_path = os.path.join(tmpdir, "instance.pkl")
    own_pool: ProcessPoolExecutor | None = None
    stashed = False
    # More arms than cores would just time-share: queued arms start as
    # slots free (waves).  The verdict is a pure fold over the streams,
    # so wave scheduling cannot change it — only the wall time.
    workers = max(1, min(len(arms), os.cpu_count() or 1))
    if executor is None and "fork" in multiprocessing.get_all_start_methods():
        # Stash before the pool exists: workers fork lazily on first
        # submit and inherit the entry without any serialization.
        _INSTANCES[tmpdir] = (clustered, system)
        stashed = True
        own_pool = executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
        )
    else:
        with open(instance_path, "wb") as fh:
            pickle.dump((clustered, system), fh, protocol=pickle.HIGHEST_PROTOCOL)
        if executor is None:
            if multiprocessing.parent_process() is None:
                # Deferred import: portfolio -> service -> api.adapters
                # -> portfolio.
                from ..service.service import default_service

                executor = default_service().executor()
            else:
                own_pool = executor = ProcessPoolExecutor(max_workers=workers)

    tasks = [
        _ArmTask(
            index=i,
            mapper=arm.mapper,
            instance_key=tmpdir,
            instance_path=instance_path,
            seed=seeds[i],
            checkpoint_path=os.path.join(tmpdir, f"arm-{i}.jsonl"),
            stop_path=os.path.join(tmpdir, f"arm-{i}.stop"),
            label=getattr(arm.mapper, "anytime_label", "total_time"),
        )
        for i, arm in enumerate(arms)
    ]
    outcomes: list[Any] = [None] * len(arms)
    errors: list[BaseException | None] = [None] * len(arms)
    futures: dict[int, Future] = {}
    try:
        for task in tasks:
            futures[task.index] = executor.submit(_run_arm, task)
        offsets = [0] * len(arms)
        pending = set(range(len(arms)))
        while pending:
            # Observe completions *before* reading files: a finished
            # arm's stream is complete on disk by the time its future
            # resolves, so the read below sees the whole stream.
            finished_now = [i for i in sorted(pending) if futures[i].done()]
            for i in finished_now:
                pending.discard(i)
                try:
                    outcomes[i] = futures[i].result()
                # An arm crash is an arm loss, not a race loss.
                # repro: allow[inv_bare_except] - recorded and folded as "failed"
                except Exception as exc:
                    errors[i] = exc
            for i in range(len(arms)):
                offsets[i], entries = _read_checkpoints(
                    tasks[i].checkpoint_path, offsets[i]
                )
                for entry in entries:
                    if i in fold.killed_at:
                        break  # values past the kill ordinal are dead weight
                    value = (
                        float(entry["value"])
                        if entry.get("label") == objective
                        else scorer.score_assignment(
                            Assignment(entry["assignment"])
                        )
                    )
                    fold.add_checkpoint(i, value)
            for i in finished_now:
                if errors[i] is not None:
                    fold.set_failed(i)
                else:
                    fold.set_final(i, scorer.score_outcome(outcomes[i]))
            for i in fold.advance():
                if i in pending:
                    # Physical stop is best-effort; the verdict stands
                    # either way.
                    with open(tasks[i].stop_path, "w", encoding="utf-8"):
                        pass
            if pending:
                time.sleep(poll_interval)
    finally:
        for task in tasks:
            # Unblock every arm that is still running before joining.
            try:
                with open(task.stop_path, "w", encoding="utf-8"):
                    pass
            except OSError:  # pragma: no cover - tmpdir vanished
                pass
        for future in futures.values():
            if not future.done():
                try:
                    future.result()
                # repro: allow[inv_bare_except] - join-only; stopped arm's outcome unused
                except Exception:
                    pass
        if own_pool is not None:
            own_pool.shutdown(wait=True)
        if stashed:
            _INSTANCES.pop(tmpdir, None)
        shutil.rmtree(tmpdir, ignore_errors=True)

    candidates = [
        i
        for i in range(len(arms))
        if i not in fold.killed_at and errors[i] is None and outcomes[i] is not None
    ]
    if not candidates:
        details = "; ".join(
            f"{arms[i].name}: {errors[i]}" for i in range(len(arms)) if errors[i]
        )
        raise MappingError(
            "every portfolio arm was killed or failed"
            + (f" ({details})" if details else "")
        )
    winner = min(candidates, key=lambda i: (fold.final[i], i))

    reports: list[dict[str, Any]] = []
    for i, arm in enumerate(arms):
        entry: dict[str, Any] = {"arm": i, "mapper": arm.name, "params": arm.params}
        if i in fold.killed_at:
            entry["status"] = "killed"
            entry["kill_iteration"] = fold.killed_at[i]
            entry["objective"] = fold.killed_value[i]
        elif errors[i] is not None:
            entry["status"] = "failed"
        else:
            entry["status"] = "won" if i == winner else "finished"
            entry["objective"] = fold.final[i]
            entry["checkpoints"] = len(fold.values[i])
        reports.append(entry)
    return RaceResult(winner=winner, outcome=outcomes[winner], arms=reports)
