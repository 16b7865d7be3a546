"""End-to-end tests for the stdlib HTTP front-end (repro.service.http)."""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import registry_listing
from repro.service import MappingService, make_server

SCENARIO = {
    "workload": "fft",
    "workload_params": {"points_log2": 3},
    "topology": "hypercube:2",
    "mapper": "critical",
    "seed": 17,
}


@pytest.fixture(scope="module")
def server():
    service = MappingService(max_workers=2, cache_size=32)
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=10)
    service.close()


def request(server, path, body=None):
    """One JSON request; returns (status, payload) including error statuses."""
    host, port = server.server_address[:2]
    req = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(body).encode() if body is not None else None,
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def poll_job(server, job_id, deadline=60.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        status, payload = request(server, f"/jobs/{job_id}")
        assert status == 200
        if payload["status"] in ("done", "failed"):
            return payload
        time.sleep(0.05)
    pytest.fail(f"job {job_id} did not finish within {deadline}s")


class TestRoutes:
    def test_health(self, server):
        status, payload = request(server, "/health")
        assert status == 200
        assert payload["workers"] == 2
        assert "cache" in payload and "jobs" in payload

    @pytest.mark.parametrize(
        "kind",
        ["mappers", "clusterers", "workloads", "topologies", "metrics", "rules"],
    )
    def test_registries_match_cli_serialization(self, server, kind):
        status, payload = request(server, f"/registries/{kind}")
        assert status == 200
        assert payload == registry_listing(kind)

    def test_unknown_registry_404(self, server):
        status, payload = request(server, "/registries/frobnicators")
        assert status == 404
        assert "unknown registry" in payload["error"]

    def test_unknown_route_404(self, server):
        status, payload = request(server, "/nope")
        assert status == 404
        status, payload = request(server, "/jobs/x/y/z")
        assert status == 404

    def test_unknown_job_404(self, server):
        status, payload = request(server, "/jobs/job-424242")
        assert status == 404
        assert "unknown job" in payload["error"]

    def test_query_strings_ignored_in_routing(self, server):
        # cache-busting params like ?_=123 must not break route matching
        status, payload = request(server, "/registries/mappers?_=123")
        assert status == 200
        assert payload == registry_listing("mappers")
        status, posted = request(
            server, "/jobs?async=1", {"scenario": dict(SCENARIO, seed=99)}
        )
        assert status in (200, 202)
        status, polled = request(server, f"/jobs/{posted['id']}?poll=1")
        assert status == 200
        assert polled["id"] == posted["id"]


class TestStatsAndRecommend:
    @pytest.fixture()
    def stored_server(self, tmp_path):
        """A short-lived server whose service persists results durably."""
        service = MappingService(
            max_workers=2,
            cache_size=32,
            store_path=str(tmp_path / "history.jsonl"),
        )
        httpd = make_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        yield httpd
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
        service.close()

    def test_stats_route_mirrors_health(self, server):
        status, payload = request(server, "/stats")
        assert status == 200
        assert {"workers", "cache", "jobs", "queue", "store"} <= set(payload)
        status, health = request(server, "/health")
        assert status == 200
        assert set(payload) == set(health)

    def test_recommend_requires_query_params(self, server):
        status, payload = request(server, "/recommend")
        assert status == 400
        assert "query params" in payload["error"]
        status, _ = request(server, "/recommend?workload=fft")
        assert status == 400

    def test_recommend_end_to_end_via_real_solves(self, stored_server):
        # Empty history: an explicit 404, not an empty payload.
        status, payload = request(
            stored_server, "/recommend?workload=fft&topology=hypercube"
        )
        assert status == 404
        assert "no recorded history" in payload["error"]

        status, posted = request(stored_server, "/jobs", {"scenario": SCENARIO})
        assert status == 202
        assert poll_job(stored_server, posted["id"])["status"] == "done"

        status, payload = request(
            stored_server, "/recommend?workload=fft&topology=hypercube"
        )
        assert status == 200
        assert payload["workload"] == "fft"
        assert payload["topology"] == "hypercube"
        assert payload["samples"] == 1
        assert payload["recommendation"]["mapper"] == "critical"
        assert payload["recommendation"]["samples"] == 1
        assert payload["alternatives"] == []

        # A different family key still has no evidence.
        status, _ = request(
            stored_server, "/recommend?workload=gnp&topology=hypercube"
        )
        assert status == 404


class TestJobLifecycle:
    def test_submit_poll_and_cached_repost(self, server):
        # first POST: accepted, computed on the pool
        status, posted = request(server, "/jobs", {"scenario": SCENARIO})
        assert status == 202
        assert posted["cached"] is False
        assert posted["fingerprint"]

        payload = poll_job(server, posted["id"])
        assert payload["status"] == "done"
        outcome = payload["outcome"]
        assert outcome["total_time"] >= outcome["lower_bound"]

        # identical re-POST: answered from the cache, nothing recomputes
        status2, reposted = request(server, "/jobs", {"scenario": SCENARIO})
        assert status2 == 200
        assert reposted["cached"] is True
        assert reposted["fingerprint"] == posted["fingerprint"]
        cached_payload = poll_job(server, reposted["id"])
        assert cached_payload["outcome"] == outcome

    def test_bare_scenario_body(self, server):
        body = dict(SCENARIO, seed=18)
        status, posted = request(server, "/jobs", body)
        assert status in (200, 202)
        assert poll_job(server, posted["id"])["status"] == "done"

    def test_jobs_listing(self, server):
        status, payload = request(server, "/jobs")
        assert status == 200
        assert len(payload["jobs"]) >= 1
        assert {"id", "status", "cached"} <= set(payload["jobs"][0])

    def test_failed_job_surfaces_error(self, server):
        body = {
            "workload": "layered_random",
            "workload_params": {"num_tasks": 4},
            "topology": "hypercube:3",
        }
        status, posted = request(server, "/jobs", body)
        assert status == 202
        payload = poll_job(server, posted["id"])
        assert payload["status"] == "failed"
        assert "every node needs a cluster" in payload["error"]


class TestValidation:
    def test_invalid_json_body_400(self, server):
        host, port = server.server_address[:2]
        req = urllib.request.Request(
            f"http://{host}:{port}/jobs", data=b"{not json"
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req, timeout=30)
        assert exc_info.value.code == 400

    def test_empty_body_400(self, server):
        status, payload = request(server, "/jobs", body={})
        assert status == 400  # Scenario.from_dict: workload missing

    def test_unknown_axis_400(self, server):
        status, payload = request(
            server, "/jobs", {"scenario": dict(SCENARIO, mapper="nonsense")}
        )
        assert status == 400
        assert "unknown mapper" in payload["error"]

    def test_misspelled_param_400_before_any_job(self, server):
        _, before = request(server, "/jobs")
        body = {"scenario": dict(SCENARIO, workload_params={"points_log": 3})}
        status, payload = request(server, "/jobs", body)
        assert status == 400
        assert "'workload_params'" in payload["error"]
        assert "'points_log'" in payload["error"]
        _, after = request(server, "/jobs")
        assert len(after["jobs"]) == len(before["jobs"])

    def test_parse_job_body_rejects_misspelled_params(self):
        from repro.api import ScenarioError
        from repro.service.http import parse_job_body

        scenario, replica = parse_job_body({"scenario": SCENARIO, "replica": 0})
        assert scenario.workload_params == {"points_log2": 3} and replica == 0
        for bad in (
            dict(SCENARIO, mapper="tabu", mapper_params={"iteration": 5}),
            dict(SCENARIO, clustering_params={"num_clusters": 4}),
        ):
            with pytest.raises(ScenarioError, match="_params'"):
                parse_job_body(bad)

    def test_unknown_job_field_400(self, server):
        status, payload = request(
            server, "/jobs", {"scenario": SCENARIO, "priority": 3}
        )
        assert status == 400
        assert "priority" in payload["error"]

    def test_bad_replica_400(self, server):
        status, payload = request(
            server, "/jobs", {"scenario": SCENARIO, "replica": -1}
        )
        assert status == 400

    def test_replica_out_of_range_400(self, server):
        status, payload = request(
            server, "/jobs", {"scenario": SCENARIO, "replica": 5}
        )
        assert status == 400
        assert "out of range" in payload["error"]

    def test_post_to_wrong_path_404(self, server):
        status, payload = request(server, "/registries/mappers", body={})
        assert status == 404


class TestKeepAlive:
    # A request smuggled in as the body: answering it would mean the
    # unread body was parsed as the next request.
    SMUGGLED = b"GET /health HTTP/1.1\r\nHost: shard\r\n\r\n"

    @pytest.mark.parametrize(
        "head",
        [
            f"POST /nope HTTP/1.1\r\nContent-Length: {len(SMUGGLED)}\r\n",
            "POST /jobs HTTP/1.1\r\nContent-Length: 999999999\r\n",
            "POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n",
        ],
        ids=["unknown-path", "oversized", "chunked"],
    )
    def test_answer_before_the_body_closes_the_connection(self, server, head):
        request = f"{head}Host: shard\r\n\r\n".encode() + self.SMUGGLED
        with socket.create_connection(server.server_address[:2], timeout=10) as sock:
            sock.sendall(request)
            received = b""
            while chunk := sock.recv(65536):  # until the shard closes
                received += chunk
        status_line, _, rest = received.partition(b"\r\n")
        assert status_line in (b"HTTP/1.1 400 Bad Request", b"HTTP/1.1 404 Not Found")
        assert b"Connection: close" in rest.partition(b"\r\n\r\n")[0].split(b"\r\n")
        assert received.count(b"HTTP/1.1 ") == 1

    def test_kept_alive_answers_are_not_held_back(self, server):
        """Twenty round trips on one connection take a few ms each; with
        Nagle's algorithm on the shard's socket each would wait about
        40 ms for the client's delayed ACK before the body went out."""
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            started = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/health")
                response = conn.getresponse()
                response.read()
                assert response.status == 200 and not response.will_close
            elapsed = time.perf_counter() - started
        finally:
            conn.close()
        assert elapsed < 0.5, elapsed
