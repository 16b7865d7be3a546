"""Stdlib-only HTTP front-end for a :class:`MappingService`.

A small JSON API over :mod:`http.server` (threaded, so a long solve
never blocks polling):

* ``POST /jobs`` — submit a scenario run.  Body: either a scenario dict
  (see :class:`repro.api.scenario.Scenario`) or
  ``{"scenario": {...}, "replica": N}``.  Responds ``202`` with
  ``{"id", "status", "cached", "fingerprint"}`` — ``200`` with
  ``"cached": true`` when the content-addressed cache already holds the
  result, in which case nothing executes.
* ``GET /jobs/<id>`` — job status; includes the full outcome once done.
* ``GET /jobs`` — summaries of every job.
* ``GET /registries/<kind>`` — the same listing as
  ``mimdmap list <kind> --json`` (one shared serialization).
* ``GET /health`` — service stats (pool, cache hit rates, job counts).
* ``GET /stats`` — the same :meth:`MappingService.stats` snapshot under
  its canonical name (``/health`` remains the liveness alias).
* ``GET /recommend?workload=<family>&topology=<family>`` — the learned
  default mined from this shard's store
  (:meth:`MappingService.recommend`); ``404`` when no history matches.

Run it with ``mimdmap serve`` (see :mod:`repro.cli`) or embed it::

    from repro.service import MappingService, make_server
    with MappingService() as service:
        server = make_server(service, port=0)  # 0 = ephemeral port
        print(server.server_address)
        server.serve_forever()

Errors are JSON too: ``{"error": ...}`` with 400/404/405 status.

The shard speaks HTTP/1.1, so a client such as the fleet gateway can
keep a connection open across requests.  A response sent before the
request body was read (an unknown ``POST`` path; an empty, oversized or
unparseable body) closes the connection, so that the unread bytes are
never taken for the next request.  Once ``server_close()`` has run, a
kept-alive connection gets no answer at all: the handler hangs up, and
the client retries on a new connection, which reaches whatever listens
on the port by then (a restarted shard, or nothing).
"""

from __future__ import annotations

import json
import math
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from ..utils import MappingError
from .service import MappingService, ServiceSaturatedError, WrongShardError

__all__ = ["ServiceHTTPServer", "make_server", "parse_job_body", "retry_after_header"]

_MAX_BODY = 16 * 1024 * 1024


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`MappingService`."""

    daemon_threads = True
    #: Set by :meth:`server_close`; a kept-alive handler thread outlives
    #: it (``socketserver`` closes only the listening socket) and must
    #: then answer nothing.
    closed = False

    def __init__(self, address, service: MappingService, *, quiet: bool = True):
        self.service = service
        self.quiet = quiet
        super().__init__(address, _Handler)

    def server_close(self) -> None:
        self.closed = True
        super().server_close()


class JsonHandler(BaseHTTPRequestHandler):
    """JSON plumbing shared by the shard front-end and the gateway.

    Responses are sorted-key JSON with an exact ``Content-Length``;
    request bodies are bounded at 16 MiB; the server's ``quiet`` flag
    silences the per-request log line.
    """

    def _send(
        self,
        status: int,
        payload: dict[str, Any],
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str, *, close: bool = False) -> None:
        """An error payload; ``close`` ends a kept-alive connection with
        it (``Connection: close``), as a response must when it leaves
        the request body unread."""
        headers = {"Connection": "close"} if close else None
        self._send(status, {"error": message}, headers=headers)

    def _read_json(self) -> tuple[bytes, Any]:
        """The raw request body and its parsed JSON (``ValueError`` on an
        empty, oversized or malformed body)."""
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValueError("request body is empty; send a JSON object")
        if length > _MAX_BODY:
            raise ValueError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length)
        return raw, json.loads(raw.decode("utf-8"))

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)


class _Handler(JsonHandler):
    server: ServiceHTTPServer

    protocol_version = "HTTP/1.1"
    # The headers and the body go out in two writes; with Nagle's
    # algorithm on, a kept-alive connection holds the body back until
    # the client's delayed ACK, about 40 ms later.
    disable_nagle_algorithm = True

    def parse_request(self) -> bool:
        if self.server.closed:  # close without an answer
            self.close_connection = True
            return False
        return super().parse_request()

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path.rstrip("/")
        parts = [p for p in path.split("/") if p]
        service = self.server.service
        if parts == ["health"] or parts == ["stats"] or not parts:
            self._send(200, service.stats())
        elif parts == ["recommend"]:
            query = parse_qs(urlsplit(self.path).query)
            workload = (query.get("workload") or [""])[0]
            topology = (query.get("topology") or [""])[0]
            if not workload or not topology:
                self._error(
                    400, "recommend needs 'workload' and 'topology' query params"
                )
                return
            payload = service.recommend(workload, topology)
            if payload is None:
                self._error(
                    404,
                    f"no recorded history for workload={workload!r} "
                    f"topology={topology!r}",
                )
            else:
                self._send(200, payload)
        elif parts == ["jobs"]:
            self._send(
                200,
                {
                    "jobs": [
                        {"id": j.id, "status": j.status, "cached": j.cached}
                        for j in service.jobs()
                    ]
                },
            )
        elif len(parts) == 2 and parts[0] == "jobs":
            job = service.job(parts[1])
            if job is None:
                self._error(404, f"unknown job {parts[1]!r}")
            else:
                self._send(200, job.to_dict())
        elif len(parts) == 2 and parts[0] == "registries":
            from ..api.components import registry_listing

            try:
                self._send(200, registry_listing(parts[1]))
            except MappingError as exc:
                self._error(404, str(exc))
        else:
            self._error(404, f"no route for GET {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if urlsplit(self.path).path.rstrip("/") != "/jobs":
            self._error(404, f"no route for POST {self.path!r}", close=True)
            return
        try:
            _, body = self._read_json()
        except (ValueError, json.JSONDecodeError) as exc:
            self._error(400, f"invalid JSON body: {exc}", close=True)
            return
        try:
            job = _submit_from_body(self.server.service, body)
        except ServiceSaturatedError as exc:
            # Backpressure, not failure: the shard is saturated, the
            # client (or gateway) should back off and retry.
            self._send(
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": retry_after_header(exc.retry_after)},
            )
            return
        except WrongShardError as exc:
            self._error(421, str(exc))
            return
        except (MappingError, TypeError, ValueError) as exc:
            self._error(400, str(exc))
            return
        self._send(
            200 if job.cached else 202,
            {
                "id": job.id,
                "status": job.status,
                "cached": job.cached,
                "fingerprint": job.fingerprint,
            },
        )


def retry_after_header(seconds: float) -> str:
    """RFC-compliant ``Retry-After`` value: a whole number of seconds."""
    return str(max(1, math.ceil(seconds)))


def parse_job_body(body: Any):
    """Validate one ``POST /jobs`` body into ``(scenario, replica)``.

    Shared by the shard front-end (which then submits) and the gateway
    (which only needs the scenario's fingerprint to route) so the two
    can never disagree about what a request means.
    """
    from ..api.scenario import Scenario

    if not isinstance(body, dict):
        raise MappingError(f"a job request must be a JSON object, got {body!r}")
    replica = 0
    spec = body
    if "scenario" in body:
        extra = sorted(set(body) - {"scenario", "replica"})
        if extra:
            raise MappingError(
                f"unknown job field(s) {', '.join(map(repr, extra))}; "
                "expected 'scenario' and optional 'replica'"
            )
        spec = body["scenario"]
        replica = body.get("replica", 0)
        if not isinstance(replica, int) or isinstance(replica, bool) or replica < 0:
            raise MappingError(f"'replica' must be an int >= 0, got {replica!r}")
    return Scenario.from_dict(spec), replica


def _submit_from_body(service: MappingService, body: Any):
    """Turn one ``POST /jobs`` body into a submitted scenario job."""
    scenario, replica = parse_job_body(body)
    return service.submit_scenario(scenario, replica)


def make_server(
    service: MappingService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    quiet: bool = True,
) -> ServiceHTTPServer:
    """Bind (not start) the JSON API; ``port=0`` picks an ephemeral port.

    The caller owns the loop: ``server.serve_forever()`` to run,
    ``server.shutdown()`` from another thread to stop.  The bound port
    is ``server.server_address[1]``.
    """
    return ServiceHTTPServer((host, port), service, quiet=quiet)
