"""The long-lived :class:`MappingService`: pool + cache + jobs in one place.

Where :func:`repro.api.solve` is a one-shot call, a ``MappingService``
is the resident object a resource manager (or the ``mimdmap serve``
HTTP front-end) keeps around between requests:

* **persistent worker pool** — one ``ProcessPoolExecutor`` created
  lazily and reused for every batch and async job, so pool startup is
  paid once per process instead of once per call;
* **content-addressed cache** — results are keyed by the fingerprint of
  (task graph, clustering, system, mapper, params, seed); a repeated
  solve returns the stored :class:`MapOutcome` bit-identically with *no*
  worker execution, optionally durably (:class:`ResultStore` JSONL that
  survives restarts);
* **async jobs** — :meth:`submit` / :meth:`submit_scenario` return a
  :class:`Job` with an id, a status, and a blocking ``result()``;
  identical in-flight submissions are deduplicated onto the same job.

The :mod:`repro.api` facade functions are thin clients of the module's
*default service* (:func:`default_service`), which is how plain
``solve_many``/``compare``/``run_scenarios`` calls amortize pool startup
across calls without any API change.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..core.clustered import ClusteredGraph, Clustering
from ..core.taskgraph import TaskGraph
from ..topology.base import SystemGraph
from ..utils import MappingError
from .cache import OutcomeCache
from .fingerprint import instance_fingerprint, scenario_fingerprint
from .store import ResultStore

__all__ = [
    "Job",
    "MappingService",
    "ServiceSaturatedError",
    "WrongShardError",
    "default_service",
    "set_default_service",
    "shutdown_default_service",
]


class ServiceSaturatedError(MappingError):
    """The admission queue is full; retry after ``retry_after`` seconds.

    Raised instead of queueing without bound when a service configured
    with ``queue_limit`` already has that many unfinished jobs.  The
    HTTP front-end maps this to ``429`` with a ``Retry-After`` header —
    backpressure the gateway and clients can act on.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class WrongShardError(MappingError):
    """This service does not own the submitted fingerprint's keyspace.

    Raised by a service configured with a ``keyspace`` slice when a
    submission's fingerprint falls outside it — the signature of a
    request that bypassed (or disagreed with) the gateway's routing.
    The HTTP front-end maps this to ``421 Misdirected Request``.
    """


@dataclass(frozen=True)
class _SolveTask:
    """One cache-missed solve, shipped whole to a worker (all picklable)."""

    clustered: ClusteredGraph
    system: SystemGraph
    mapper: Any  # a built Mapper (the protocol requires picklability)
    seed: int | None


@dataclass(frozen=True)
class _ScenarioTask:
    """One sweep run by spec; the instance is built worker-side."""

    scenario: Any  # repro.api.scenario.Scenario
    replica: int


def _execute_solve(task: _SolveTask):
    """Module-level so it pickles by name; the single worker entry point
    for instance jobs (tests instrument it to prove cache hits skip it)."""
    return task.mapper.map(task.clustered, task.system, rng=task.seed)


def _instance_meta(
    clustered: ClusteredGraph, system: SystemGraph, mapper: str, params
) -> dict[str, Any]:
    """The recommender's context for one instance solve: family keys plus
    the mapper configuration that produced the result."""
    from ..portfolio.recommend import family_of

    return {
        "workload": family_of(clustered.graph.name),
        "topology": family_of(system.name),
        "mapper": mapper,
        "params": dict(params),
    }


def _execute_scenario(task: _ScenarioTask):
    """Worker entry point for scenario jobs.

    Delegates to the sweep engine's single run definition, so async jobs
    and synchronous sweeps can never diverge for the same fingerprint.
    """
    from ..api.sweep import run_scenario_once

    return run_scenario_once(task.scenario, task.replica)


class Job:
    """Handle to one asynchronous service computation.

    ``status`` is one of ``pending`` (queued), ``running``, ``done``, or
    ``failed``; ``cached`` marks a job answered from the cache without
    any execution.  ``result()`` blocks until completion and re-raises
    the worker's exception for failed jobs.
    """

    def __init__(self, job_id: str, fingerprint: str | None, cached: bool = False):
        self.id = job_id
        self.fingerprint = fingerprint
        self.cached = cached
        # Family/mapper context stored alongside the result for the
        # recommender (see MappingService.recommend); never keyed on.
        self.meta: dict[str, Any] | None = None
        self._future: Future = Future()
        # The pool-side future, when this job is executing remotely; lets
        # ``status`` distinguish queued from actually-running work.
        self._backing: Future | None = None

    @classmethod
    def completed(cls, job_id: str, fingerprint: str | None, outcome, cached: bool):
        job = cls(job_id, fingerprint, cached=cached)
        job._future.set_result(outcome)
        return job

    @property
    def status(self) -> str:
        if self._future.done():
            return "failed" if self._future.exception() is not None else "done"
        if self._backing is not None and self._backing.running():
            return "running"
        return "pending"

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: float | None = None):
        """The job's :class:`MapOutcome` (blocks; raises on failure)."""
        return self._future.result(timeout)

    @property
    def error(self) -> str | None:
        """The failure message for ``failed`` jobs, else ``None``."""
        if self._future.done() and self._future.exception() is not None:
            return str(self._future.exception())
        return None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view (the HTTP front-end's ``GET /jobs/<id>`` body)."""
        status = self.status  # read once: it may advance mid-serialization
        payload: dict[str, Any] = {
            "id": self.id,
            "fingerprint": self.fingerprint,
            "status": status,
            "cached": self.cached,
        }
        if status == "done":
            payload["outcome"] = self._future.result().to_dict()
        elif status == "failed":
            payload["error"] = self.error
        return payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Job(id={self.id!r}, status={self.status!r}, cached={self.cached})"


class MappingService:
    """A persistent mapping server: solve, batch, and submit with caching.

    Parameters
    ----------
    max_workers:
        Size of the persistent process pool (``None`` = one per CPU).
        The pool is created lazily on the first parallel/async call —
        a service used only for cached or inline work never forks.
    store_path:
        Optional JSONL path for the durable result store.  An existing
        file is recovered at construction, so identical solves from a
        previous service life are answered without recompute.
    store_backend:
        Persistence backend for ``store_path``: ``"jsonl"``,
        ``"sqlite"``, or ``"auto"`` (pick by suffix; see
        :mod:`repro.service.backends`).
    store_sync:
        Store durability policy: ``"always"`` (fsync every completed
        job before acknowledging it; the default) or ``"never"``.
    cache_size:
        In-memory LRU capacity (evictions fall back to the store).
    queue_limit:
        Admission bound: the maximum number of unfinished async jobs
        (queued + running) this service accepts.  Beyond it, new
        non-cached submissions raise :class:`ServiceSaturatedError`
        instead of queueing without bound; cache hits and dedup onto
        already-in-flight work are always admitted (they add no load).
        ``None`` (the default) means unbounded; ``0`` refuses all new
        work while still serving cached results — drain mode.
    retry_after:
        The back-off hint (seconds) carried by
        :class:`ServiceSaturatedError` and the HTTP ``Retry-After``
        header.
    keyspace:
        Optional keyspace slice this service owns (an object with
        ``contains(fingerprint)`` and ``to_dict()``, i.e. a
        :class:`~repro.service.shard.KeyspaceSlice`).  Submissions
        whose fingerprint falls outside it raise
        :class:`WrongShardError` — shards of a fleet refuse misrouted
        traffic rather than double-serving the keyspace.
    job_history:
        How many *finished* jobs stay addressable by id (oldest finished
        jobs are forgotten beyond this; in-flight jobs are never
        evicted).  Keeps a long-lived server's memory bounded — results
        themselves live on in the cache/store regardless.

    Only computations whose inputs are fully content-addressable are
    cached: the mapper must be given *by registry name* (so its params
    are known) and ``rng`` must be an integer seed.  Instantiated mapper
    objects and generator/``None`` rngs execute normally, every time.

    One sharp edge of pool persistence: workers snapshot the process
    state (including the component registries) when the pool starts, so
    components registered *after* the first parallel call are unknown to
    spec-shipping work (scenario jobs, sweeps) until
    :meth:`restart_pool` — batch items are immune, they ship built
    mappers.  Register custom components up front, or restart the pool
    after registering.
    """

    def __init__(
        self,
        *,
        max_workers: int | None = None,
        store_path: str | Path | None = None,
        store_backend: str = "auto",
        store_sync: str = "always",
        cache_size: int = 1024,
        queue_limit: int | None = None,
        retry_after: float = 1.0,
        keyspace=None,
        job_history: int = 1024,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise MappingError(f"max_workers must be >= 1, got {max_workers}")
        if job_history < 1:
            raise MappingError(f"job_history must be >= 1, got {job_history}")
        if queue_limit is not None and queue_limit < 0:
            raise MappingError(f"queue_limit must be >= 0, got {queue_limit}")
        if retry_after <= 0:
            raise MappingError(f"retry_after must be > 0, got {retry_after}")
        self._max_workers = max_workers
        self._store = (
            ResultStore(store_path, backend=store_backend, sync=store_sync)
            if store_path is not None
            else None
        )
        self.queue_limit = queue_limit
        self.retry_after = retry_after
        self.keyspace = keyspace
        self.cache = OutcomeCache(cache_size, store=self._store)
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}  # insertion-ordered: oldest first
        self._job_history = job_history
        self._inflight: dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._closed = False
        self._executed = 0  # computations the service ran to completion
        self._active = 0  # async jobs scheduled but not yet resolved

    # -- pool ----------------------------------------------------------

    @property
    def workers(self) -> int:
        return self._max_workers or os.cpu_count() or 1

    @property
    def executed(self) -> int:
        """How many computations this service ran to completion (cache
        hits and failed runs excluded; inline ``max_workers=1`` batches
        never reach the service, so they are not counted here)."""
        with self._lock:
            return self._executed

    def _count_execution(self) -> None:
        with self._lock:
            self._executed += 1

    @property
    def pool_started(self) -> bool:
        return self._pool is not None

    def executor(self) -> ProcessPoolExecutor:
        """The persistent pool, created on first use."""
        with self._lock:
            if self._closed:
                raise MappingError("MappingService is closed")
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool

    def restart_pool(self) -> None:
        """Retire the persistent pool; the next parallel call starts a
        fresh one that sees the *current* registry contents.

        Needed after registering custom mappers/workloads/clusterers/
        topologies once the pool is already warm: existing workers hold
        the registries as they were at pool startup, so spec-shipping
        work (scenario jobs, sweeps) cannot resolve later registrations
        until the workers are replaced.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def run_on_pool(
        self,
        items: Sequence,
        solve: Callable,
        max_workers: int | None = None,
    ) -> Iterator[tuple[object, Any]]:
        """Yield ``(item, solve(item))`` in completion order, on the pool.

        At most ``max_workers`` items are in flight at once (windowed
        submission), so a caller's concurrency cap is honored even
        though the underlying pool is shared and sized once.
        """
        pool = self.executor()
        limit = max(1, min(max_workers or self.workers, len(items)))
        pending: dict[Future, object] = {}
        queue = iter(items)
        try:
            for item in itertools.islice(queue, limit):
                pending[pool.submit(solve, item)] = item
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    item = pending.pop(future)
                    result = future.result()
                    self._count_execution()
                    yield item, result
                for item in itertools.islice(queue, len(done)):
                    pending[pool.submit(solve, item)] = item
        finally:
            for future in pending:
                future.cancel()

    # -- synchronous solve ---------------------------------------------

    def solve(
        self,
        graph: TaskGraph,
        clustering: Clustering,
        system: SystemGraph,
        mapper="critical",
        rng: int | np.random.Generator | None = None,
        **params: object,
    ):
        """Cache-aware equivalent of :func:`repro.api.solve`."""
        return self.solve_instance(
            ClusteredGraph(graph, clustering), system, mapper=mapper, rng=rng, **params
        )

    def solve_instance(
        self,
        clustered: ClusteredGraph,
        system: SystemGraph,
        mapper="critical",
        rng: int | np.random.Generator | None = None,
        **params: object,
    ):
        """Solve one instance; identical repeats come from the cache.

        Cache hits return the stored outcome (bit-identical, including
        ``wall_time``) without touching the pool or the mapper.
        """
        with self._lock:
            if self._closed:
                raise MappingError("MappingService is closed")
        built, fingerprint = self._prepare(clustered, system, mapper, rng, params)
        if fingerprint is not None:
            cached = self.cache.get(fingerprint)
            if cached is not None:
                return cached
        outcome = _execute_solve(_SolveTask(clustered, system, built, _as_seed(rng)))
        self._count_execution()
        if fingerprint is not None:
            self.cache.put(
                fingerprint,
                outcome,
                _instance_meta(clustered, system, str(mapper), params),
            )
        return outcome

    # -- async jobs -----------------------------------------------------

    def submit(
        self,
        graph: TaskGraph,
        clustering: Clustering,
        system: SystemGraph,
        mapper="critical",
        rng: int | np.random.Generator | None = None,
        **params: object,
    ) -> Job:
        """Queue one solve on the pool; returns immediately with a :class:`Job`."""
        clustered = ClusteredGraph(graph, clustering)
        built, fingerprint = self._prepare(clustered, system, mapper, rng, params)
        task = _SolveTask(clustered, system, built, _as_seed(rng))
        meta = (
            _instance_meta(clustered, system, str(mapper), params)
            if fingerprint is not None
            else None
        )
        return self._submit_task(fingerprint, _execute_solve, task, meta=meta)

    def submit_scenario(self, scenario, replica: int = 0) -> Job:
        """Queue one sweep run (see :mod:`repro.api.sweep`) as an async job.

        Scenario runs are pure functions of ``(scenario, replica)``, so
        they are always cacheable.
        """
        if replica < 0 or replica >= scenario.replicas:
            raise MappingError(
                f"replica {replica} out of range for a scenario with "
                f"{scenario.replicas} replica(s)"
            )
        fingerprint = scenario_fingerprint(scenario, replica)
        task = _ScenarioTask(scenario, replica)
        meta = {
            "workload": scenario.workload,
            "topology": scenario.topology.split(":")[0],
            "mapper": scenario.mapper,
            "params": dict(scenario.mapper_params),
        }
        return self._submit_task(fingerprint, _execute_scenario, task, meta=meta)

    def _submit_task(
        self,
        fingerprint: str | None,
        execute: Callable,
        task,
        meta: dict[str, Any] | None = None,
    ) -> Job:
        with self._lock:
            if self._closed:
                raise MappingError("MappingService is closed")
        if fingerprint is not None:
            if self.keyspace is not None and not self.keyspace.contains(fingerprint):
                raise WrongShardError(
                    f"fingerprint {fingerprint[:12]}... is outside this "
                    f"shard's keyspace slice {self.keyspace.describe()}"
                )
            cached = self.cache.get(fingerprint)
            if cached is not None:
                job = Job.completed(self._next_id(), fingerprint, cached, cached=True)
                self._register(job)
                return job
            # Atomic check-and-insert: concurrent identical submissions
            # (two HTTP threads POSTing the same body) must converge on
            # one job, so the inflight lookup, the cache re-check, the
            # admission check, and the registration happen under one
            # lock hold.  The cache's own lock is a leaf lock, so
            # nesting it here is safe.
            with self._lock:
                inflight = self._inflight.get(fingerprint)
                if inflight is not None:
                    return inflight
                finished = self.cache.get(fingerprint)
                if finished is not None:
                    job = Job.completed(
                        self._next_id(), fingerprint, finished, cached=True
                    )
                    self._register_locked(job)
                    return job
                self._admit_locked()
                job = Job(self._next_id(), fingerprint)
                job.meta = meta
                self._register_locked(job)
                self._inflight[fingerprint] = job
        else:
            with self._lock:
                self._admit_locked()
                job = Job(self._next_id(), fingerprint)
                job.meta = meta
                self._register_locked(job)
        try:
            job._backing = self.executor().submit(execute, task)
        # repro: allow[inv_bare_except] - cleanup only; re-raised unchanged below
        except BaseException as exc:
            # Registration already happened; the job must resolve and the
            # fingerprint must be reclaimed, or every future identical
            # submission would dedupe onto a zombie that never finishes.
            job._future.set_exception(
                MappingError(f"job {job.id} could not be scheduled: {exc}")
            )
            with self._lock:
                self._active -= 1
                if fingerprint is not None:
                    self._inflight.pop(fingerprint, None)
            raise
        job._backing.add_done_callback(lambda f: self._finish(job, f))
        return job

    def _admit_locked(self) -> None:
        """Admission control: count one more active job or refuse (429)."""
        if self.queue_limit is not None and self._active >= self.queue_limit:
            raise ServiceSaturatedError(
                f"admission queue full ({self._active} active job(s), "
                f"limit {self.queue_limit}); retry after "
                f"{self.retry_after:g}s",
                self.retry_after,
            )
        self._active += 1

    def _finish(self, job: Job, future: Future) -> None:
        try:
            if future.cancelled():
                # Pool shutdown cancelled the queued work; a Job must
                # still resolve or clients block in result() forever.
                job._future.set_exception(
                    MappingError(f"job {job.id} cancelled (service shut down)")
                )
            elif future.exception() is not None:
                job._future.set_exception(future.exception())
            else:
                self._count_execution()
                # Resolve the job first: a cache/store hiccup (e.g. a
                # full disk) must never leave result() blocking.
                job._future.set_result(future.result())
                if job.fingerprint is not None:
                    try:
                        self.cache.put(job.fingerprint, future.result(), job.meta)
                    # Best-effort cache fill: the job already resolved, and a
                    # persistence failure (full disk, torn store) must never
                    # turn a computed result into an error.
                    # repro: allow[inv_bare_except]
                    except Exception:  # pragma: no cover - best effort
                        pass
        finally:
            with self._lock:
                self._active -= 1
                if job.fingerprint is not None:
                    self._inflight.pop(job.fingerprint, None)

    def job(self, job_id: str) -> Job | None:
        """Look an async job up by id (``None`` when unknown)."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every remembered job, oldest first (see ``job_history``)."""
        with self._lock:
            return list(self._jobs.values())

    def _next_id(self) -> str:
        return f"job-{next(self._ids)}"

    def _register(self, job: Job) -> None:
        with self._lock:
            self._register_locked(job)

    def _register_locked(self, job: Job) -> None:
        self._jobs[job.id] = job
        if len(self._jobs) <= self._job_history:
            return
        # Evict oldest *finished* jobs only: an in-flight job must stay
        # addressable until it resolves, and the entry just handed to
        # the caller must survive its own registration even when it is
        # already done (a cache-hit job on a table full of running ones).
        for job_id in [
            j.id for j in self._jobs.values() if j.done() and j.id != job.id
        ][: len(self._jobs) - self._job_history]:
            del self._jobs[job_id]

    # -- plumbing -------------------------------------------------------

    def _prepare(self, clustered, system, mapper, rng, params):
        """Resolve the mapper and (when content-addressable) fingerprint."""
        from ..api.registry import get_mapper

        if isinstance(mapper, str):
            built = get_mapper(mapper, **params)
            if not getattr(built, "cacheable", True):
                # e.g. portfolio(arms="auto"): the arm list comes from
                # recorded history, so the same inputs can legitimately
                # produce different outcomes as the store grows.
                return built, None
            if not isinstance(rng, int) or isinstance(rng, bool):
                # None draws fresh entropy and a Generator carries hidden
                # state — neither names a pure computation, so no caching.
                return built, None
            return built, instance_fingerprint(
                clustered, system, mapper, params, int(rng)
            )
        if params:
            raise TypeError(
                "mapper parameters can only be given with a mapper *name*; "
                f"got an instantiated mapper and params {sorted(params)}"
            )
        return mapper, None

    def active_jobs(self) -> int:
        """Async jobs scheduled but not yet resolved (queued + running)."""
        with self._lock:
            return self._active

    def drain(self, timeout: float | None = None) -> int:
        """Block until every in-flight async job resolves (or timeout).

        Returns the number of jobs still unfinished — 0 means a clean
        drain.  The graceful-shutdown sequence is: stop accepting new
        work (close the HTTP server, or set ``queue_limit = 0``),
        ``drain()``, then :meth:`close` to flush the store.
        """
        deadline = (
            None
            if timeout is None
            else time.monotonic() + timeout  # repro: allow[det_wall_clock]
        )
        while True:
            active = self.active_jobs()
            if active == 0:
                return 0
            if deadline is not None:
                if time.monotonic() >= deadline:  # repro: allow[det_wall_clock]
                    return active
            time.sleep(0.02)

    def recommend(self, workload: str, topology: str) -> dict[str, Any] | None:
        """The learned default for a ``(workload, topology)`` family key.

        Mines the durable store's records (every completed job that
        carried family meta) and returns the recommendation payload of
        :func:`repro.portfolio.recommend.mine_records` — or ``None``
        when the service has no store or the store holds no evidence
        for the key (the HTTP layer's 404).
        """
        if self._store is None:
            return None
        from ..portfolio.recommend import mine_records

        return mine_records(self._store.iter_records(), workload, topology)

    def stats(self) -> dict[str, Any]:
        """One JSON-ready snapshot (the HTTP ``GET /health`` body).

        Besides the pool/cache/job counters this carries everything the
        gateway (and an operator) needs for routing and alerting
        decisions: the admission queue's depth, running count, and
        limit; the durable store's backend, path, and record count; and
        the shard's keyspace slice when it serves one.
        """
        with self._lock:
            jobs = list(self._jobs.values())
            active = self._active
        by_status: dict[str, int] = {}
        for job in jobs:
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "workers": self.workers,
            "pool_started": self.pool_started,
            "executed": self.executed,
            "jobs": {"total": len(jobs), **by_status},
            "queue": {
                "depth": by_status.get("pending", 0),
                "running": by_status.get("running", 0),
                "active": active,
                "limit": self.queue_limit,
                "retry_after": self.retry_after,
            },
            "keyspace": (
                self.keyspace.to_dict() if self.keyspace is not None else None
            ),
            "cache": self.cache.stats(),
            "store": (
                {
                    "path": str(self._store.path),
                    "backend": self._store.backend_name,
                    "records": len(self._store),
                }
                if self._store is not None
                else None
            ),
        }

    def close(self) -> None:
        """Shut the pool and store down; further submissions raise."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "MappingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MappingService(workers={self.workers}, "
            f"pool_started={self.pool_started}, jobs={len(self._jobs)})"
        )


def _as_seed(rng) -> int | np.random.Generator | None:
    """Normalize the cacheable case (plain int) without touching the rest."""
    if isinstance(rng, int) and not isinstance(rng, bool):
        return int(rng)
    return rng


# -- the default service -----------------------------------------------

_default: MappingService | None = None
_default_lock = threading.Lock()


def default_service() -> MappingService:
    """The process-wide service the :mod:`repro.api` facade delegates to.

    Created lazily with default settings (CPU-count pool, memory-only
    cache); replace it with :func:`set_default_service` to add a durable
    store or bound the workers.
    """
    global _default
    with _default_lock:
        if _default is None:
            _default = MappingService()
        return _default


def set_default_service(service: MappingService | None) -> MappingService | None:
    """Swap the process-wide default service; returns the previous one.

    The previous service is *not* closed (the caller may still hold
    jobs on it); pass ``None`` to reset to lazy re-creation.
    """
    global _default
    with _default_lock:
        previous, _default = _default, service
    return previous


@atexit.register
def shutdown_default_service() -> None:
    """Close the default service (idempotent; registered atexit)."""
    global _default
    with _default_lock:
        service, _default = _default, None
    if service is not None:
        service.close()
