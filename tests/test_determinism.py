"""Determinism regressions: durable identity never depends on ``hash()``.

``Assignment.__hash__`` is documented as *in-process-only* — it feeds
dict/set membership inside one interpreter and nothing else.  Everything
durable (result-store keys, cache fingerprints) derives from the SHA-256
of canonical JSON in :mod:`repro.service.fingerprint`.  These tests pin
that contract:

* fingerprints are identical across interpreters launched with
  different ``PYTHONHASHSEED`` values (builtin ``hash()`` is not);
* the store writes the fingerprint verbatim as its JSONL record key;
* equal content gives equal fingerprints, changed content changes them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.api.scenario import Scenario
from repro.core.assignment import Assignment
from repro.service.fingerprint import canonical_json, scenario_fingerprint
from repro.service.store import MapOutcome, ResultStore

REPO_ROOT = Path(__file__).resolve().parents[1]

_FINGERPRINT_SNIPPET = """
import json
from repro.api.scenario import Scenario
from repro.service.fingerprint import canonical_json, scenario_fingerprint

scenario = Scenario(
    workload="broadcast_tree",
    topology="mesh",
    mapper="critical",
    workload_params={"leaves": 15},
    seed=7,
)
print(json.dumps({
    "scenario": scenario_fingerprint(scenario, replica=2),
    "canonical": canonical_json({"b": 1, "a": [2, {"z": 3, "y": 4}]}),
}))
"""


def _fingerprints_with_hash_seed(seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    out = subprocess.run(
        [sys.executable, "-c", _FINGERPRINT_SNIPPET],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def test_fingerprints_survive_hash_randomization():
    a = _fingerprints_with_hash_seed("0")
    b = _fingerprints_with_hash_seed("1")
    c = _fingerprints_with_hash_seed("random")
    assert a == b == c


def test_fingerprint_shape_and_content_addressing():
    base = Scenario(workload="broadcast_tree", topology="mesh", seed=0)
    fp = scenario_fingerprint(base)
    assert len(fp) == 64 and set(fp) <= set("0123456789abcdef")
    # Separately constructed but equal content -> equal fingerprint.
    again = Scenario(workload="broadcast_tree", topology="mesh", seed=0)
    assert scenario_fingerprint(again) == fp
    # Any content change -> a different fingerprint.
    assert scenario_fingerprint(Scenario(workload="broadcast_tree", topology="mesh", seed=1)) != fp
    assert scenario_fingerprint(base, replica=1) != fp


def test_canonical_json_is_order_insensitive():
    assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})


def test_store_key_is_the_fingerprint_verbatim(tmp_path):
    path = tmp_path / "results.jsonl"
    fp = scenario_fingerprint(Scenario(workload="broadcast_tree", topology="mesh"))
    outcome = MapOutcome(
        mapper="critical",
        assignment=Assignment([0, 1, 2, 3]),
        total_time=10,
        lower_bound=8,
        evaluations=4,
        reached_lower_bound=False,
        wall_time=0.5,
    )
    store = ResultStore(str(path))
    assert store.put(fp, outcome)
    store.close()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    keys = {r["fingerprint"] for r in records}
    assert keys == {fp}

    reopened = ResultStore(str(path))
    assert reopened.get(fp) is not None
    reopened.close()


def test_assignment_hash_is_in_process_only_by_construction():
    """The documented contract: dict membership works, durability doesn't rely on it."""
    a, b = Assignment([1, 0, 2]), Assignment([1, 0, 2])
    assert a == b and hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
