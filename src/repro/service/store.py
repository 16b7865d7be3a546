"""Durable result store: fingerprint -> MapOutcome, over a pluggable backend.

The store is the persistence layer under the service cache.  Every
completed computation appends one canonical record
``{"fingerprint": ..., "outcome": {...}}`` through a
:class:`~repro.service.backends.StoreBackend` — append-only JSONL by
default, SQLite (WAL) for stores that need concurrent multi-process
writers — so a killed service leaves a recoverable store and the next
start re-serves every finished result without recomputation.

Durability is explicit: the default ``sync="always"`` policy fsyncs
(or ``synchronous=FULL``-commits) every append before ``put`` returns,
so a job acknowledged as done survives a crash of the whole machine;
``sync="never"`` trades that for lower write latency (see
:mod:`repro.service.backends`).

Outcomes round-trip *losslessly* through :meth:`MapOutcome.to_dict` /
:meth:`MapOutcome.from_dict` (bound here as :func:`outcome_to_dict` /
:func:`outcome_from_dict`), which preserve every field including the
assignment vector, ``wall_time``, and ``extras``; that is what lets a
warm-cache hit return the stored outcome bit-identically.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any

from ..api.outcome import MapOutcome
from .backends import StoreBackend, open_backend

__all__ = ["ResultStore", "outcome_from_dict", "outcome_to_dict"]


#: The store's record form of an outcome (kept as names of this module,
#: which scripts import them from).
outcome_to_dict = MapOutcome.to_dict
outcome_from_dict = MapOutcome.from_dict


class ResultStore:
    """Fingerprint -> outcome store that survives restarts.

    Parameters
    ----------
    path:
        Backing file; created on first write (JSONL) or at open
        (SQLite).  An existing store — even one torn by a crash — is
        recovered at construction and its results are served without
        recomputation.  ``None`` keeps the store purely in memory.
    backend:
        ``"jsonl"``, ``"sqlite"``, an already-open
        :class:`~repro.service.backends.StoreBackend`, or ``"auto"``
        (the default: pick by path suffix — ``.db``/``.sqlite``/
        ``.sqlite3`` mean SQLite, anything else JSONL).
    sync:
        Durability policy, ``"always"`` (fsync every append; the
        default) or ``"never"`` (flush only).

    The store is thread-safe: the HTTP front-end's worker threads and
    pool completion callbacks may read and write concurrently.  The
    JSONL backend additionally enforces a single *writer process* via a
    ``<path>.lock`` file; use the SQLite backend when several processes
    must append to one store.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        backend: str | StoreBackend = "auto",
        sync: str = "always",
    ) -> None:
        self._backend: StoreBackend | None = None
        if path is not None:
            if isinstance(backend, str):
                self._backend = open_backend(path, backend=backend, sync=sync)
            else:
                self._backend = backend
        self._records: dict[str, dict[str, Any]] = (
            self._backend.load() if self._backend is not None else {}
        )
        self._metas: dict[str, dict[str, Any]] = (
            self._backend.metas() if self._backend is not None else {}
        )
        self._lock = threading.Lock()
        self._closed = False
        self.recovered = len(self._records)

    @property
    def path(self) -> Path | None:
        return self._backend.path if self._backend is not None else None

    @property
    def backend_name(self) -> str | None:
        """The persistence backend in use (``None`` for memory-only)."""
        return self._backend.name if self._backend is not None else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, fingerprint: object) -> bool:
        with self._lock:
            return fingerprint in self._records

    def get(self, fingerprint: str) -> MapOutcome | None:
        """The stored outcome under ``fingerprint``, or ``None``."""
        with self._lock:
            data = self._records.get(fingerprint)
        return MapOutcome.from_dict(data) if data is not None else None

    def put(
        self,
        fingerprint: str,
        outcome: MapOutcome,
        meta: dict[str, Any] | None = None,
    ) -> bool:
        """Store ``outcome``; returns False (and writes nothing) on a dup.

        First write wins: a fingerprint names one pure computation, so a
        duplicate can only be the same result recomputed.  A closed
        store refuses the write (returns False) rather than silently
        reopening its file.  ``meta`` rides along with the record —
        family/mapper context the recommender mines
        (:mod:`repro.portfolio.recommend`); it never affects lookups.
        """
        data = outcome.to_dict()
        with self._lock:
            if self._closed or fingerprint in self._records:
                return False
            self._records[fingerprint] = data
            if meta:
                self._metas[fingerprint] = dict(meta)
            if self._backend is not None:
                self._backend.append(fingerprint, data, meta)
        return True

    def iter_records(
        self,
    ) -> list[tuple[str, dict[str, Any], dict[str, Any] | None]]:
        """Snapshot of ``(fingerprint, outcome dict, meta or None)`` rows.

        The recommender's mining input — taken under the lock, so a
        concurrent ``put`` never tears the view.
        """
        with self._lock:
            return [
                (fp, data, self._metas.get(fp))
                for fp, data in self._records.items()
            ]

    def close(self) -> None:
        """Flush and close the backend; later ``put`` calls are refused."""
        with self._lock:
            self._closed = True
            if self._backend is not None:
                self._backend.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = str(self.path) if self._backend is not None else "memory"
        return f"ResultStore({where!r}, results={len(self)})"
