"""A two-shard serving fleet behind a gateway, as real subprocesses.

Each server is ``mimdmap serve`` / ``mimdmap gateway`` started through
``launch.py`` on an ephemeral port; the bound port is read from the
``serving on http://host:port`` line the CLI prints.  :meth:`Fleet.stop`
sends SIGTERM (shards drain in-flight jobs and flush their stores) and
waits for every process, killing any that outlive the timeout.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

LAUNCHER = Path(__file__).resolve().parent / "launch.py"
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0
SHARDS = 2


def call(address: str, method: str, path: str, body: object = None) -> tuple[int, dict]:
    """One JSON request on a fresh connection; returns ``(status, payload)``."""
    host, _, port = address.rpartition(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=120)
    try:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


class Fleet:
    """``SHARDS`` shards (one pool worker each) plus a gateway."""

    def __init__(self, work: Path, tag: str, trace_dir: Path | None) -> None:
        self.work = work
        self.tag = tag
        self.trace_dir = trace_dir
        self.procs: list[subprocess.Popen] = []
        self.gateway = ""

    def _spawn(self, role: str, name: str, cli_args: list[str]) -> subprocess.Popen:
        trace = str(self.trace_dir) if self.trace_dir is not None else ""
        with open(self.work / f"{self.tag}-{name}.log", "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, str(LAUNCHER), role, trace, "--", *cli_args],
                stdout=subprocess.PIPE,
                stderr=log,
                bufsize=0,
                start_new_session=True,  # its pool workers join its process group
            )
        self.procs.append(proc)
        return proc

    def _address(self, proc: subprocess.Popen, deadline: float) -> str:
        """Read stdout until the ``serving on`` announcement."""
        line = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"{self.tag}: server did not announce its port")
            ready, _, _ = select.select([proc.stdout], [], [], remaining)
            if not ready:
                continue
            byte = proc.stdout.read(1)
            if not byte:
                raise RuntimeError(f"{self.tag}: server exited with {proc.wait()}")
            if byte != b"\n":
                line += byte
                continue
            text, line = line.decode("utf-8", "replace"), b""
            if text.startswith("serving on http://"):
                return text.removeprefix("serving on http://").strip()

    def start(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT
        shards = [
            self._spawn(
                "shard",
                f"s{index}",
                [
                    "serve",
                    "--port", "0",
                    "--workers", "1",
                    "--store", str(self.work / f"{self.tag}-s{index}.jsonl"),
                    "--shard-index", str(index),
                    "--shard-count", str(SHARDS),
                ],
            )
            for index in range(SHARDS)
        ]
        addresses = [self._address(proc, deadline) for proc in shards]
        gateway = self._spawn(
            "gateway", "gw", ["gateway", "--port", "0", "--shards", ",".join(addresses)]
        )
        self.gateway = self._address(gateway, deadline)
        status, health = call(self.gateway, "GET", "/health")
        if status != 200 or health.get("status") != "ok":
            raise RuntimeError(f"{self.tag}: fleet unhealthy: {health}")

    def stop(self) -> list[str]:
        """Terminate and reap every process; returns problems seen."""
        problems = []
        for proc in reversed(self.procs):  # gateway first, then shards
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                code = proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                code = proc.wait()
                problems.append(f"{self.tag}: pid {proc.pid} ignored SIGTERM")
            if proc.stdout is not None:
                proc.stdout.close()
            if code != 0:
                problems.append(f"{self.tag}: pid {proc.pid} exited with {code}")
        self.procs.clear()
        return problems


def kill_all(fleets: list[Fleet]) -> None:
    """Last-resort cleanup for fleets still running after an error: kill
    every server together with its pool workers."""
    for fleet in fleets:
        for proc in fleet.procs:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the server and its workers have all exited
            proc.wait()
