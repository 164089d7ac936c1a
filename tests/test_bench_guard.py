"""The names the benchmark depends on.

bench/child.py refuses to time a pass unless the six module caches it
counts exist and are empty at import, and its --trace wrappers rebind
entry points such as correlation.pair_block, cli.series_to_json and
qdim.qdim_irreducible by name.  Each workload builds its items from its
own qfock entry points.  A rename in qfock would otherwise surface only
when the benchmark runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_child_sets_up_with_tracing(workload):
    proc = subprocess.run(
        [sys.executable, "bench/child.py", "--workload", workload,
         "--seed", "1", "--trace", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
