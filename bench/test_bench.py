"""Tests of the benchmark itself (not of qfock).

    python3 -m pytest bench/test_bench.py

Run from the root of the repository; about three minutes, since every
workload makes four cold passes: untraced and twice traced at seed 1,
untraced at seed 2.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402  (puts the qfock sources on the path)
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@lru_cache(maxsize=None)
def cold_pass(workload: str, seed: int, traced: bool, repeat: int = 0) -> dict:
    return run.run_child(workload, seed, *(["--trace"] if traced else []))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_reproduces_untraced_digests(workload):
    plain = cold_pass(workload, 1, False)
    traced = cold_pass(workload, 1, True)
    assert plain["failed"] == traced["failed"] == 0
    assert traced["digests"] == plain["digests"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_fit_in_traced_wall_time(workload):
    traced = cold_pass(workload, 1, True)
    self_s = sum(v for k, v in traced["layers"].items() if k.endswith(".self_s"))
    assert 0 < self_s <= traced["wall_s"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_traced_passes(workload):
    first = cold_pass(workload, 1, True)["layers"]
    second = cold_pass(workload, 1, True, 1)["layers"]
    counts = {k for k in first if run.unit_of(k) != "s"}
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_only_what_it_should(workload):
    one = cold_pass(workload, 1, False)
    two = cold_pass(workload, 2, False)
    assert one["failed"] == two["failed"] == 0
    if workload == "verify-eval":
        assert one["eval_points"] != two["eval_points"]
    else:
        assert one["digests"] == two["digests"]


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = dict(cold_pass("verify-eval", 1, True)["layers"],
                  **{"trace.wall_s": 0, "trace.overhead_ratio": 0})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run.unit_of(name) for name in layers}


def test_warm_cache_is_refused():
    from qfock import correlation

    correlation._vacuum_cache["warm"] = None
    try:
        assert child.main(["--workload", "weyl-char", "--seed", "1"]) == 3
    finally:
        correlation._vacuum_cache.clear()


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "weyl-char", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
