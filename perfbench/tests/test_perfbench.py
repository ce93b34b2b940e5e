"""Tests of the benchmark itself, at a tiny scale of each workload.

Run with ``python -m pytest perfbench/tests -q`` from the repository
root.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import probes, replay, run
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SCALE = 0.05
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return done


def result_of(done):
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    name = request.param
    done = bench("--workload", name, "--seed", "1", "--trace", "1",
                 "--scale", str(SCALE))
    return name, result_of(done)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_timed_run_emits_every_end_to_end_metric_with_its_unit():
    result = result_of(
        bench("--workload", "write-mix", "--seed", "1", "--seconds", "0",
              "--scale", str(SCALE))
    )
    assert result["correct"] and result["failed"] == 0
    # Every distinct replay seed, plus one repeat for the determinism check.
    assert result["attempted"] == WORKLOADS["write-mix"].replays + 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    assert got == expected
    assert all(value["value"] > 0 for value in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric_with_its_unit(traced):
    _name, result = traced
    assert result["correct"] and result["attempted"] == 3
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    assert got == expected


def test_self_shares_sum_to_one(traced):
    _name, result = traced
    shares = [
        value["value"]
        for name, value in result["metrics"].items()
        if name.endswith(".self_share")
    ]
    assert len(shares) == len(probes.ALL_LAYERS)
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)


def test_workloads_load_the_layers_they_were_chosen_for(traced):
    name, result = traced
    metric = {k: v["value"] for k, v in result["metrics"].items()}
    if name == "population":
        for idle in ("gdpr.access.calls", "gdpr.erase.calls", "txn.txns",
                     "overload.offered"):
            assert metric[idle] == 0, idle
    elif name == "write-mix":
        assert metric["overload.offered"] == 0
        assert metric["txn.txns"] > 0
        assert metric["gdpr.self_share"] > 0
    else:
        assert metric["overload.offered"] > 0
        assert 0 < metric["overload.shed_ratio"] < 1


def test_wrapper_counts_match_the_programs_own_counters():
    # Seed 1 files both an erasure and subject-access requests in this
    # short write-mix, so neither comparison is vacuous.
    record = replay.measure("write-mix", 1, "profile", time.monotonic(), 0.2)
    layers, modeled = record["layers"], record["modeled"]
    assert record["checks"] == []
    assert modeled["accesses"] > 0 and modeled["erasures"] > 0
    assert layers["origin.handle.calls"] == modeled["origin_requests"]
    assert layers["gdpr.access.calls"] == modeled["accesses"]
    assert layers["gdpr.erase.calls"] == modeled["erasures"]


def test_probes_do_not_perturb_the_simulation():
    digests = {
        replay.measure("flash-crowd", 2, mode, time.monotonic(), SCALE)["digest"]
        for mode in replay.MODES
    }
    assert len(digests) == 1


def test_a_modeled_difference_between_repeats_fails_the_run():
    records = [
        {"mode": "timed", "seed": 1, "digest": "a", "checks": []},
        {"mode": "timed", "seed": 1001, "digest": "b", "checks": []},
        {"mode": "timed", "seed": 1, "digest": "c", "checks": []},
    ]
    found = run.problems(records)
    assert len(found) == 1 and "seed 1:" in found[0]
    records[2]["digest"] = "a"
    assert run.problems(records) == []


def test_layer_attribution():
    src = str(ROOT / "src" / "repro")
    assert probes.layer_of(f"{src}/sim/environment.py") == "sim"
    assert probes.layer_of(f"{src}/cli.py") == probes.OTHER
    assert probes.layer_of("/usr/lib/python3.11/heapq.py") == probes.RUNTIME
    assert probes.layer_of("~") == probes.RUNTIME


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "population", "--seed", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
