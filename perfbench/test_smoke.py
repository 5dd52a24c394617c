"""The benchmark's own test: smoke mode end to end.

Runs every workload, untraced and traced, on a small population with
every correctness check on (about a minute on two cores)::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)


def _benchmark_json() -> dict:
    with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_smoke_mode_checks_every_reply_and_prints_every_metric():
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    spec = _benchmark_json()
    wanted = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for workload in (w["name"] for w in spec["workloads"]):
        for name in wanted:
            metric = result["metrics"][f"{workload}.{name}"]
            assert isinstance(metric["value"], (int, float))
        for name in (m["name"] for m in spec["end_to_end"]):
            assert result["metrics"][f"{workload}.{name}"]["value"] > 0
    # revisit_warm is served from the response cache, a third by 304s
    assert result["metrics"]["revisit_warm.serving.not_modified_share"][
        "value"] > 0.3
    assert result["metrics"]["explore_cold.serving.response_cache_hit_rate"][
        "value"] == 0


def test_missing_program_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH_DIR):
        if name.endswith(".py"):
            shutil.copy(os.path.join(BENCH_DIR, name), bench / name)
    shutil.copy(os.path.join(CHECKOUT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
