"""Tests for the sharded serving fleet (repro.service.shard).

Covers the keyspace math, the fingerprint-routing gateway over a live
two-shard fleet, backpressure (429 + Retry-After), keyspace enforcement
(421), dead-shard degradation (502), and the acceptance path: a killed
and restarted shard re-serves its cached fingerprints bit-identically.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api.scenario import Scenario
from repro.service import (
    KeyspaceSlice,
    MappingService,
    ServiceSaturatedError,
    WrongShardError,
    make_gateway,
    make_server,
    outcome_to_dict,
    scenario_fingerprint,
    shard_for_fingerprint,
)
from repro.service.shard.keyspace import KEYSPACE_BUCKETS, fingerprint_bucket
from repro.utils import MappingError

SRC = Path(__file__).resolve().parent.parent / "src"

BASE = {
    "workload": "fft",
    "workload_params": {"points_log2": 2},
    "topology": "hypercube:2",
    "mapper": "critical",
}


def scenario_body(seed):
    return dict(BASE, seed=seed)


def seeds_for_shard(index, count, want=3):
    """The first ``want`` seeds whose fingerprints route to ``index``."""
    found = []
    for seed in range(200):
        scenario = Scenario.from_dict(scenario_body(seed))
        fp = scenario_fingerprint(scenario, 0)
        if shard_for_fingerprint(fp, count) == index:
            found.append(seed)
            if len(found) == want:
                return found
    raise AssertionError(f"fewer than {want} seeds route to shard {index}")


def http_get(url, timeout=30.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers or {})


def http_post(url, body, timeout=60.0):
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers or {})


def wait_done(base_url, job_id, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload, _ = http_get(f"{base_url}/jobs/{job_id}")
        assert status == 200, payload
        if payload["status"] in ("done", "failed"):
            return payload
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


class Fleet:
    """A live in-process fleet: N shard servers plus one gateway."""

    def __init__(self, tmp_path, count=2):
        self.count = count
        self.tmp_path = tmp_path
        self.services = [None] * count
        self.servers = [None] * count
        self.store_paths = [tmp_path / f"shard{i}.db" for i in range(count)]
        for index in range(count):
            self.start_shard(index)
        addresses = [
            f"127.0.0.1:{server.server_address[1]}" for server in self.servers
        ]
        self.gateway = make_gateway(addresses, retries=1, retry_delay=0.05)
        threading.Thread(target=self.gateway.serve_forever, daemon=True).start()
        self.gateway_url = f"http://127.0.0.1:{self.gateway.server_address[1]}"

    def start_shard(self, index, port=0):
        service = MappingService(
            max_workers=1,
            store_path=self.store_paths[index],
            keyspace=KeyspaceSlice.for_shard(index, self.count),
        )
        server = make_server(service, port=port)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        self.services[index] = service
        self.servers[index] = server

    def shard_url(self, index):
        return f"http://127.0.0.1:{self.servers[index].server_address[1]}"

    def stop_shard(self, index):
        port = self.servers[index].server_address[1]
        self.servers[index].shutdown()
        self.servers[index].server_close()
        self.services[index].close()
        return port

    def close(self):
        self.gateway.shutdown()
        self.gateway.server_close()
        for index in range(self.count):
            if self.services[index] is not None and not self.services[index]._closed:
                self.stop_shard(index)


@pytest.fixture
def fleet(tmp_path):
    f = Fleet(tmp_path)
    yield f
    f.close()


class TestKeyspace:
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 7, 16])
    def test_slices_partition_keyspace(self, count):
        slices = [KeyspaceSlice.for_shard(i, count) for i in range(count)]
        assert slices[0].lo == 0
        assert slices[-1].hi == KEYSPACE_BUCKETS
        for left, right in zip(slices, slices[1:]):
            assert left.hi == right.lo  # contiguous, no gap, no overlap

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 7, 16])
    def test_slices_agree_with_routing(self, count):
        slices = [KeyspaceSlice.for_shard(i, count) for i in range(count)]
        probes = [0, 1, 17, 4095, 21845, 32767, 32768, 65534, 65535]
        for bucket in probes:
            fingerprint = f"{bucket:04x}" + "0" * 60
            index = shard_for_fingerprint(fingerprint, count)
            owners = [i for i, s in enumerate(slices) if s.contains(fingerprint)]
            assert owners == [index]

    def test_bucket_and_describe(self):
        assert fingerprint_bucket("ffff" + "0" * 60) == KEYSPACE_BUCKETS - 1
        half = KeyspaceSlice.for_shard(0, 2)
        assert half.describe() == "[0000, 8000)"
        as_dict = half.to_dict()
        assert as_dict == {
            "lo": 0,
            "hi": KEYSPACE_BUCKETS // 2,
            "buckets": KEYSPACE_BUCKETS,
            "hex": "[0000, 8000)",
        }

    def test_validation(self):
        with pytest.raises(MappingError, match="too short"):
            fingerprint_bucket("ab")
        with pytest.raises(MappingError, match="not a hex digest"):
            fingerprint_bucket("zzzz" + "0" * 60)
        with pytest.raises(MappingError, match="shard count"):
            shard_for_fingerprint("abcd" + "0" * 60, 0)
        with pytest.raises(MappingError, match="out of range"):
            KeyspaceSlice.for_shard(2, 2)
        with pytest.raises(MappingError, match="invalid keyspace slice"):
            KeyspaceSlice(5, 5)


class TestBackpressure:
    def test_saturated_service_refuses_with_retry_after(self, tmp_path):
        with MappingService(max_workers=1, queue_limit=0, retry_after=7.5) as svc:
            scenario = Scenario.from_dict(scenario_body(0))
            with pytest.raises(ServiceSaturatedError) as excinfo:
                svc.submit_scenario(scenario)
            assert excinfo.value.retry_after == 7.5
            assert svc.active_jobs() == 0

    def test_admission_frees_slots_as_jobs_finish(self, tmp_path):
        with MappingService(max_workers=1, queue_limit=1) as svc:
            job = svc.submit_scenario(Scenario.from_dict(scenario_body(0)))
            job.result(timeout=120)
            svc.drain(timeout=30)
            assert svc.active_jobs() == 0
            # The slot is free again; an identical re-submit is a cache
            # hit and a *new* scenario is admitted.
            again = svc.submit_scenario(Scenario.from_dict(scenario_body(0)))
            assert again.cached
            other = svc.submit_scenario(Scenario.from_dict(scenario_body(1)))
            other.result(timeout=120)
            svc.drain(timeout=30)

    def test_drain_mode_still_serves_cached(self, tmp_path):
        """queue_limit=0 refuses new work but cached fingerprints and
        in-flight results stay available — the drain/maintenance mode."""
        with MappingService(max_workers=1) as svc:
            scenario = Scenario.from_dict(scenario_body(0))
            svc.submit_scenario(scenario).result(timeout=120)
            svc.drain(timeout=30)
            svc.queue_limit = 0
            cached = svc.submit_scenario(scenario)
            assert cached.cached and cached.status == "done"
            with pytest.raises(ServiceSaturatedError):
                svc.submit_scenario(Scenario.from_dict(scenario_body(1)))

    def test_wrong_shard_refused(self, tmp_path):
        scenario = Scenario.from_dict(scenario_body(0))
        fingerprint = scenario_fingerprint(scenario, 0)
        owner = shard_for_fingerprint(fingerprint, 2)
        wrong = KeyspaceSlice.for_shard(1 - owner, 2)
        with MappingService(max_workers=1, keyspace=wrong) as svc:
            with pytest.raises(WrongShardError, match="keyspace slice"):
                svc.submit_scenario(scenario)
            assert svc.active_jobs() == 0


class TestFleet:
    def test_routing_matches_and_results_are_bit_identical(self, fleet):
        """The acceptance bar: a 2-shard fleet behind the gateway serves
        fingerprint -> outcome exactly like one unsharded service."""
        seeds = seeds_for_shard(0, 2, want=2) + seeds_for_shard(1, 2, want=2)
        outcomes = {}
        for seed in seeds:
            scenario = Scenario.from_dict(scenario_body(seed))
            fingerprint = scenario_fingerprint(scenario, 0)
            expected_shard = shard_for_fingerprint(fingerprint, 2)
            status, payload, _ = http_post(
                f"{fleet.gateway_url}/jobs", scenario_body(seed)
            )
            assert status == 202, payload
            assert payload["shard"] == expected_shard
            assert payload["id"].startswith(f"s{expected_shard}.")
            outcomes[seed] = wait_done(fleet.gateway_url, payload["id"])
        assert [fleet.services[i].executed for i in range(2)] == [2, 2]

        with MappingService(max_workers=1) as reference:
            for seed in seeds:
                job = reference.submit_scenario(Scenario.from_dict(scenario_body(seed)))
                want = outcome_to_dict(job.result(timeout=120))
                got = outcomes[seed]
                assert got["status"] == "done"
                # Deterministic fields match an unsharded service exactly;
                # wall_time is measured per execution, so it is excluded.
                for key in set(want) - {"wall_time"}:
                    assert got["outcome"][key] == want[key], key

        # Identical re-POSTs are warm-cache hits: nothing executes, and
        # the stored outcome round-trips bit-identically (wall_time too).
        for seed in seeds:
            status, payload, _ = http_post(
                f"{fleet.gateway_url}/jobs", scenario_body(seed)
            )
            assert status == 200 and payload["cached"], payload
            cached = wait_done(fleet.gateway_url, payload["id"])
            assert cached["outcome"] == outcomes[seed]["outcome"]
        assert [fleet.services[i].executed for i in range(2)] == [2, 2]

    def test_restarted_shard_re_serves_cached_fingerprints(self, fleet):
        seed = seeds_for_shard(1, 2, want=1)[0]
        status, payload, _ = http_post(f"{fleet.gateway_url}/jobs", scenario_body(seed))
        assert status == 202 and payload["shard"] == 1
        done = wait_done(fleet.gateway_url, payload["id"])
        assert done["status"] == "done"

        port = fleet.stop_shard(1)
        fleet.start_shard(1, port=port)  # same port: gateway list unchanged
        assert fleet.services[1].executed == 0  # fresh process-equivalent

        status, payload, _ = http_post(f"{fleet.gateway_url}/jobs", scenario_body(seed))
        assert status == 200, payload
        assert payload["cached"] and payload["shard"] == 1
        recovered = wait_done(fleet.gateway_url, payload["id"])
        assert recovered["outcome"] == done["outcome"]
        assert fleet.services[1].executed == 0  # served from the store

    def test_gateway_health_aggregates_shard_stats(self, fleet):
        seed = seeds_for_shard(0, 2, want=1)[0]
        _, payload, _ = http_post(f"{fleet.gateway_url}/jobs", scenario_body(seed))
        wait_done(fleet.gateway_url, payload["id"])

        status, health, _ = http_get(f"{fleet.gateway_url}/health")
        assert status == 200
        assert health["role"] == "gateway"
        assert health["status"] == "ok"
        assert health["healthy_shards"] == 2 and health["shard_count"] == 2
        assert health["totals"]["executed"] == 1
        assert health["totals"]["store_records"] == 1
        for index, entry in enumerate(health["shards"]):
            assert entry["shard"] == index and entry["healthy"]
            assert entry["slice"] == KeyspaceSlice.for_shard(index, 2).to_dict()
            shard_health = entry["health"]
            # Satellite (a): every shard reports its queue depth,
            # in-flight count, store record count, and keyspace slice.
            queue = shard_health["queue"]
            assert {"depth", "running", "active", "limit", "retry_after"} <= set(
                queue
            )
            assert shard_health["keyspace"] == entry["slice"]
            store = shard_health["store"]
            assert store["backend"] == "sqlite"
            assert store["records"] == (1 if index == 0 else 0)

    def test_gateway_job_listing_and_lookup(self, fleet):
        seeds = seeds_for_shard(0, 2, want=1) + seeds_for_shard(1, 2, want=1)
        ids = []
        for seed in seeds:
            _, payload, _ = http_post(f"{fleet.gateway_url}/jobs", scenario_body(seed))
            ids.append(payload["id"])
            wait_done(fleet.gateway_url, payload["id"])
        status, listing, _ = http_get(f"{fleet.gateway_url}/jobs")
        assert status == 200
        listed = {job["id"] for job in listing["jobs"]}
        assert set(ids) <= listed
        assert listing["unreachable_shards"] == []
        for job in listing["jobs"]:
            assert job["shard"] in (0, 1)

        status, payload, _ = http_get(f"{fleet.gateway_url}/jobs/not-a-gateway-id")
        assert status == 404 and "s0.job-1" in payload["error"]
        status, payload, _ = http_get(f"{fleet.gateway_url}/jobs/s7.job-1")
        assert status == 404 and "unknown shard" in payload["error"]

    def test_gateway_registry_proxy(self, fleet):
        status, payload, _ = http_get(f"{fleet.gateway_url}/registries/mappers")
        assert status == 200
        assert payload["kind"] == "mappers"
        assert "critical" in payload["names"]

    def test_saturated_shard_429_passes_through_gateway(self, fleet):
        seed = seeds_for_shard(0, 2, want=1)[0]
        fleet.services[0].queue_limit = 0
        status, payload, headers = http_post(
            f"{fleet.gateway_url}/jobs", scenario_body(seed)
        )
        assert status == 429, payload
        assert payload["retry_after"] == fleet.services[0].retry_after
        assert int(headers["Retry-After"]) >= 1
        fleet.services[0].queue_limit = None

    def test_out_of_slice_post_to_shard_is_421(self, fleet):
        seed = seeds_for_shard(1, 2, want=1)[0]  # owned by shard 1 ...
        status, payload, _ = http_post(
            f"{fleet.shard_url(0)}/jobs", scenario_body(seed)  # ... sent to 0
        )
        assert status == 421
        assert "keyspace slice" in payload["error"]

    def test_dead_shard_yields_502_and_degraded_health(self, fleet):
        seed = seeds_for_shard(1, 2, want=1)[0]
        fleet.stop_shard(1)

        status, payload, _ = http_post(f"{fleet.gateway_url}/jobs", scenario_body(seed))
        assert status == 502
        assert "unreachable" in payload["error"]

        status, health, _ = http_get(f"{fleet.gateway_url}/health")
        assert status == 200
        assert health["status"] == "degraded"
        assert health["healthy_shards"] == 1
        assert health["shards"][1]["healthy"] is False

        status, listing, _ = http_get(f"{fleet.gateway_url}/jobs")
        assert status == 200 and listing["unreachable_shards"] == [1]

        # The surviving shard's keyspace keeps serving.
        ok_seed = seeds_for_shard(0, 2, want=1)[0]
        status, payload, _ = http_post(
            f"{fleet.gateway_url}/jobs", scenario_body(ok_seed)
        )
        assert status == 202 and payload["shard"] == 0
        wait_done(fleet.gateway_url, payload["id"])

    def test_gateway_rejects_invalid_bodies_without_forwarding(self, fleet):
        status, payload, _ = http_post(f"{fleet.gateway_url}/jobs", {"workload": 7})
        assert status == 400
        status, payload, _ = http_get(f"{fleet.gateway_url}/nope")
        assert status == 404

    def test_gateway_validates_configuration(self):
        with pytest.raises(MappingError, match="at least one shard"):
            make_gateway([])
        with pytest.raises(MappingError, match="host:port"):
            make_gateway(["localhost"])
        with pytest.raises(MappingError, match="host:port"):
            make_gateway(["host:not-a-port"])


class TestGracefulDrain:
    def serve_args(self, store, port=0, extra=()):
        return [
            sys.executable,
            "-u",
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            str(port),
            "--store",
            str(store),
            "--workers",
            "1",
            *extra,
        ]

    def start_server(self, args):
        env = os.environ.copy()
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            args,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        lines = []
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            lines.append(line)
            if "serving on http://" in line:
                port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))
                return proc, port, lines
        proc.kill()
        raise AssertionError(f"server never came up:\n{''.join(lines)}")

    @pytest.mark.skipif(
        not hasattr(signal, "SIGTERM"), reason="needs POSIX signals"
    )
    def test_sigterm_drains_flushes_and_exits_zero(self, tmp_path):
        store = tmp_path / "drain.jsonl"
        proc, port, _ = self.start_server(self.serve_args(store))
        try:
            base = f"http://127.0.0.1:{port}"
            status, payload, _ = http_post(f"{base}/jobs", scenario_body(0))
            assert status == 202, payload
            done = wait_done(base, payload["id"])
            assert done["status"] == "done"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=90)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "draining" in out and "drained" in out

        # The restarted "shard" recovers the store: same scenario is a
        # warm-cache hit with zero executions.
        proc, port, lines = self.start_server(
            self.serve_args(store, extra=("--shard-index", "0", "--shard-count", "1"))
        )
        try:
            assert any("1 result(s) recovered" in line for line in lines), lines
            assert any("shard 0/1" in line for line in lines), lines
            base = f"http://127.0.0.1:{port}"
            status, payload, _ = http_post(f"{base}/jobs", scenario_body(0))
            assert status == 200 and payload["cached"], payload
            recovered = wait_done(base, payload["id"])
            assert recovered["outcome"] == done["outcome"]
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()

    @pytest.mark.parametrize("kind", ["shard", "gateway"])
    def test_drain_request_escapes_request_dispatch(self, kind):
        """A SIGTERM that lands inside ``process_request`` still stops the server.

        ``socketserver`` logs and swallows any ``Exception`` raised while it
        dispatches a request, so the drain signal must not be one.
        """
        from repro.cli import _DrainRequested

        service = None
        if kind == "shard":
            service = MappingService(max_workers=1)
            server = make_server(service)
        else:
            server = make_gateway(["127.0.0.1:9"])

        def process_request(request, client_address):
            raise _DrainRequested

        server.process_request = process_request
        raised = []

        def run():
            try:
                server.serve_forever(poll_interval=0.05)
            except BaseException as exc:  # recorded for the assert below
                raised.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        try:
            with socket.create_connection(server.server_address[:2], timeout=10):
                thread.join(timeout=10)
            stopped = not thread.is_alive()
        finally:
            if thread.is_alive():
                server.shutdown()
                thread.join(timeout=10)
            server.server_close()
            if service is not None:
                service.close()
        assert stopped, "serve_forever swallowed the drain request and kept serving"
        assert [type(exc) for exc in raised] == [_DrainRequested]

    def test_sigterm_exits_zero_with_no_traffic(self, tmp_path):
        proc, _, _ = self.start_server(self.serve_args(tmp_path / "idle.jsonl"))
        try:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "drained" in out
