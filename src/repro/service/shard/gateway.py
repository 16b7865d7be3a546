"""Fingerprint-routing HTTP gateway over a fleet of mapping shards.

The gateway is deliberately thin: it holds **no pool, no cache, and no
store**.  Its routing state is the ordered shard address list, from which
every routing decision follows deterministically; besides that it keeps
idle HTTP/1.1 connections to its shards, reused by later requests:

* ``POST /jobs`` — validate the body exactly the way a shard would
  (:func:`repro.service.http.parse_job_body`), compute the scenario
  fingerprint, and proxy the request to the shard whose keyspace slice
  owns it.  Shard responses pass through verbatim (with the job id
  namespaced as ``s<shard>.<id>``), including 429 backpressure and its
  ``Retry-After`` header.
* ``GET /jobs/<s<shard>.<id>>`` — route by the id's shard prefix.
* ``GET /jobs``, ``GET /health``, and ``GET /stats`` — fan out to every
  shard and aggregate; unreachable shards degrade the fleet's status
  instead of failing the request.
* ``GET /recommend?workload=...&topology=...`` — fan out, then merge
  the per-shard recommendation payloads sample-weighted
  (:func:`repro.portfolio.recommend.merge_payloads`); ``404`` when no
  shard holds matching history.
* ``GET /registries/<kind>`` — answered by the first reachable shard
  (every shard serves the same registries).

A dead shard is retried ``retries`` times (with ``retry_delay`` between
attempts) before the gateway surfaces ``502`` — transient restarts are
bridged, hard failures are reported, and the rest of the keyspace keeps
serving either way.  A kept-alive connection the shard dropped while it
sat idle (a restart, a closed server) is replaced at once by a fresh
one; that retry is free.  Each shard's entry in ``GET /health`` and
``GET /stats`` carries the gateway's ``upstream`` counters for it (see
:meth:`GatewayHTTPServer.upstream`).

Run it with ``mimdmap gateway --shards host:port,host:port,...`` or
embed it via :func:`make_gateway`.
"""

from __future__ import annotations

import http.client
import json
import re
import threading
import time
from http.server import ThreadingHTTPServer
from typing import Any
from urllib.parse import urlsplit

from ...utils import MappingError
from ..fingerprint import scenario_fingerprint
from ..http import JsonHandler, parse_job_body
from .keyspace import KeyspaceSlice, shard_for_fingerprint

__all__ = ["GatewayHTTPServer", "ShardUnreachableError", "make_gateway"]

_GATEWAY_ID = re.compile(r"s(\d+)\.(.+)")

#: How a reused connection fails when the shard dropped it while idle.
_STALE = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


class ShardUnreachableError(MappingError):
    """A shard did not answer after every configured retry."""


def _check_address(address: str) -> str:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit() or not (0 < int(port) <= 65535):
        raise MappingError(
            f"invalid shard address {address!r}; expected host:port"
        )
    return address


class GatewayHTTPServer(ThreadingHTTPServer):
    """A threading HTTP gateway over an ordered list of shard addresses.

    Shard order *is* the routing table: shard ``i`` of ``n`` owns
    keyspace slice ``KeyspaceSlice.for_shard(i, n)``, so every fleet
    member (and every restart) must be given the same ``--shards`` list
    in the same order.
    """

    daemon_threads = True

    def __init__(
        self,
        address,
        shards: list[str],
        *,
        retries: int = 2,
        retry_delay: float = 0.25,
        proxy_timeout: float = 120.0,
        quiet: bool = True,
    ):
        if not shards:
            raise MappingError("a gateway needs at least one shard address")
        if retries < 0:
            raise MappingError(f"retries must be >= 0, got {retries}")
        if retry_delay < 0:
            raise MappingError(f"retry_delay must be >= 0, got {retry_delay}")
        self.shards = [_check_address(s) for s in shards]
        self.slices = [
            KeyspaceSlice.for_shard(i, len(self.shards))
            for i in range(len(self.shards))
        ]
        self.retries = retries
        self.retry_delay = retry_delay
        self.proxy_timeout = proxy_timeout
        self.quiet = quiet
        self._lock = threading.Lock()
        self._idle: list[list[http.client.HTTPConnection]] = [[] for _ in self.shards]
        self._upstream = [
            dict.fromkeys(("connections", "forwards", "retries", "unreachable"), 0)
            for _ in self.shards
        ]
        super().__init__(address, _GatewayHandler)

    def forward(
        self, index: int, method: str, path: str, data: bytes | None = None
    ) -> tuple[int, Any, dict[str, str]]:
        """Proxy one request to shard ``index``; retry on a dead shard.

        Returns ``(status, json payload, response headers)``.  Any HTTP
        status from a *live* shard is a valid answer and passes through
        (a body that is not JSON becomes an ``{"error": ...}`` payload).
        The request goes over an idle kept-alive connection when the
        shard has one.  If the shard dropped that connection meanwhile,
        a fresh one is tried at once without counting an attempt; every
        other connection-level failure counts an attempt and sleeps
        ``retry_delay``, and exhaustion raises
        :class:`ShardUnreachableError`.
        """
        headers = {} if data is None else {"Content-Type": "application/json"}
        idle, counts = self._idle[index], self._upstream[index]
        with self._lock:
            counts["forwards"] += 1
            conn = idle.pop() if idle else None
        attempt = 0
        while True:
            reused = conn is not None
            if conn is None:
                conn = http.client.HTTPConnection(
                    self.shards[index], timeout=self.proxy_timeout
                )
            try:
                if not reused:
                    conn.connect()
                    with self._lock:
                        counts["connections"] += 1
                conn.request(method, path, body=data, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                conn = None
                if reused and isinstance(exc, _STALE):
                    continue
                if attempt == self.retries:
                    with self._lock:
                        counts["unreachable"] += 1
                    raise ShardUnreachableError(
                        f"shard {index} ({self.shards[index]}) unreachable after "
                        f"{self.retries + 1} attempt(s): {exc}"
                    ) from None
                attempt += 1
                with self._lock:
                    counts["retries"] += 1
                time.sleep(self.retry_delay)
        if response.will_close:
            conn.close()
        else:
            with self._lock:
                idle.append(conn)
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = {"error": f"shard {index} returned HTTP {response.status}"}
        return response.status, payload, dict(response.headers)

    def upstream(self, index: int) -> dict[str, int]:
        """Shard ``index``'s counters: ``connections`` opened, ``forwards``
        (calls of :meth:`forward`), ``retries`` (attempts that slept
        ``retry_delay``) and ``unreachable`` (each
        :class:`ShardUnreachableError` raised)."""
        with self._lock:
            return dict(self._upstream[index])

    def server_close(self) -> None:
        super().server_close()
        with self._lock:
            for conns in self._idle:
                for conn in conns:
                    conn.close()
                conns.clear()


class _GatewayHandler(JsonHandler):
    server: GatewayHTTPServer

    # -- helpers --------------------------------------------------------

    def _gateway_id(self, index: int, job_id: str) -> str:
        return f"s{index}.{job_id}"

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path.rstrip("/")
        parts = [p for p in path.split("/") if p]
        if parts == ["health"] or not parts:
            self._health()
        elif parts == ["stats"]:
            self._stats()
        elif parts == ["recommend"]:
            self._recommend()
        elif parts == ["jobs"]:
            self._jobs_listing()
        elif len(parts) == 2 and parts[0] == "jobs":
            self._job(parts[1])
        elif len(parts) == 2 and parts[0] == "registries":
            self._registry(parts[1])
        else:
            self._error(404, f"no route for GET {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if urlsplit(self.path).path.rstrip("/") != "/jobs":
            self._error(404, f"no route for POST {self.path!r}")
            return
        try:
            raw, body = self._read_json()
        except (ValueError, json.JSONDecodeError) as exc:
            self._error(400, f"invalid JSON body: {exc}")
            return
        try:
            scenario, replica = parse_job_body(body)
        except (MappingError, TypeError, ValueError) as exc:
            self._error(400, str(exc))
            return
        fingerprint = scenario_fingerprint(scenario, replica)
        index = shard_for_fingerprint(fingerprint, len(self.server.shards))
        try:
            status, payload, headers = self.server.forward(
                index, "POST", "/jobs", data=raw
            )
        except ShardUnreachableError as exc:
            self._error(502, str(exc))
            return
        if isinstance(payload, dict) and "id" in payload:
            payload["id"] = self._gateway_id(index, payload["id"])
            payload["shard"] = index
        relay = {}
        if "Retry-After" in headers:
            relay["Retry-After"] = headers["Retry-After"]
        self._send(status, payload, headers=relay)

    def _job(self, gateway_id: str) -> None:
        match = _GATEWAY_ID.fullmatch(gateway_id)
        if match is None:
            self._error(
                404,
                f"unknown job {gateway_id!r} (gateway job ids look like "
                "'s0.job-1')",
            )
            return
        index, job_id = int(match.group(1)), match.group(2)
        if index >= len(self.server.shards):
            self._error(404, f"unknown shard {index} in job id {gateway_id!r}")
            return
        try:
            status, payload, _ = self.server.forward(
                index, "GET", f"/jobs/{job_id}"
            )
        except ShardUnreachableError as exc:
            self._error(502, str(exc))
            return
        if isinstance(payload, dict) and "id" in payload:
            payload["id"] = self._gateway_id(index, payload["id"])
            payload["shard"] = index
        self._send(status, payload)

    def _jobs_listing(self) -> None:
        jobs: list[dict[str, Any]] = []
        unreachable: list[int] = []
        for index in range(len(self.server.shards)):
            try:
                status, payload, _ = self.server.forward(index, "GET", "/jobs")
            except ShardUnreachableError:
                unreachable.append(index)
                continue
            if status == 200 and isinstance(payload, dict):
                for job in payload.get("jobs", []):
                    job = dict(job)
                    job["id"] = self._gateway_id(index, job["id"])
                    job["shard"] = index
                    jobs.append(job)
        self._send(200, {"jobs": jobs, "unreachable_shards": unreachable})

    def _registry(self, kind: str) -> None:
        for index in range(len(self.server.shards)):
            try:
                status, payload, _ = self.server.forward(
                    index, "GET", f"/registries/{kind}"
                )
            except ShardUnreachableError:
                continue
            self._send(status, payload)
            return
        self._error(502, "no shard reachable for the registry listing")

    def _fleet_snapshot(self, name: str, up: str) -> dict[str, Any]:
        """Fan ``GET /<name>`` out to every shard and aggregate.

        Each per-shard entry carries the shard's body under ``name``,
        whether it answered 200 under ``up``, and the gateway's
        ``upstream`` counters for it; the fleet body counts the shards
        that answered as ``<up>_shards`` and sums their totals.
        """
        shards: list[dict[str, Any]] = []
        answered = 0
        totals = {
            "executed": 0,
            "jobs": 0,
            "queue_depth": 0,
            "queue_active": 0,
            "store_records": 0,
        }
        for index, address in enumerate(self.server.shards):
            entry: dict[str, Any] = {
                "shard": index,
                "address": address,
                "slice": self.server.slices[index].to_dict(),
            }
            try:
                status, payload, _ = self.server.forward(index, "GET", f"/{name}")
            except ShardUnreachableError as exc:
                entry[up] = False
                entry["error"] = str(exc)
            else:
                entry[up] = status == 200
                entry[name] = payload
                if status == 200 and isinstance(payload, dict):
                    answered += 1
                    totals["executed"] += payload.get("executed", 0)
                    totals["jobs"] += payload.get("jobs", {}).get("total", 0)
                    queue = payload.get("queue", {})
                    totals["queue_depth"] += queue.get("depth", 0)
                    totals["queue_active"] += queue.get("active", 0)
                    store = payload.get("store") or {}
                    totals["store_records"] += store.get("records", 0)
            entry["upstream"] = self.server.upstream(index)
            shards.append(entry)
        return {
            "role": "gateway",
            "shard_count": len(shards),
            f"{up}_shards": answered,
            "totals": totals,
            "shards": shards,
        }

    def _stats(self) -> None:
        """``GET /stats``: the same totals as ``/health`` under the
        canonical name, without the liveness framing — per-shard entries
        carry ``stats`` and ``reachable`` instead of ``health`` and
        ``healthy``, and there is no ``status`` field."""
        self._send(200, self._fleet_snapshot("stats", "reachable"))

    def _recommend(self) -> None:
        """Merge every shard's learned default into one fleet answer."""
        from urllib.parse import parse_qs, urlencode

        from ...portfolio.recommend import merge_payloads

        query = parse_qs(urlsplit(self.path).query)
        workload = (query.get("workload") or [""])[0]
        topology = (query.get("topology") or [""])[0]
        if not workload or not topology:
            self._error(
                400, "recommend needs 'workload' and 'topology' query params"
            )
            return
        path = "/recommend?" + urlencode(
            {"workload": workload, "topology": topology}
        )
        payloads: list[dict[str, Any] | None] = []
        unreachable: list[int] = []
        for index in range(len(self.server.shards)):
            try:
                status, payload, _ = self.server.forward(index, "GET", path)
            except ShardUnreachableError:
                unreachable.append(index)
                continue
            # A shard 404 just means no history there; anything else
            # non-200 is equally no evidence from that shard.
            payloads.append(payload if status == 200 else None)
        merged = merge_payloads(payloads)
        if merged is None:
            self._error(
                404,
                f"no recorded history for workload={workload!r} "
                f"topology={topology!r} on any reachable shard",
            )
            return
        merged["shards"] = {
            "total": len(self.server.shards),
            "with_history": sum(1 for p in payloads if p),
            "unreachable": unreachable,
        }
        self._send(200, merged)

    def _health(self) -> None:
        body = self._fleet_snapshot("health", "healthy")
        healthy = body["healthy_shards"] == body["shard_count"]
        body["status"] = "ok" if healthy else "degraded"
        self._send(200, body)


def make_gateway(
    shards: list[str],
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    retries: int = 2,
    retry_delay: float = 0.25,
    proxy_timeout: float = 120.0,
    quiet: bool = True,
) -> GatewayHTTPServer:
    """Bind (not start) a gateway; ``port=0`` picks an ephemeral port.

    Same ownership contract as :func:`repro.service.make_server`: the
    caller runs ``serve_forever()`` and stops it with ``shutdown()``.
    """
    return GatewayHTTPServer(
        (host, port),
        shards,
        retries=retries,
        retry_delay=retry_delay,
        proxy_timeout=proxy_timeout,
        quiet=quiet,
    )
