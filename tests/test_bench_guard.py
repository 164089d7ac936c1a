"""The names the benchmark depends on.

bench/child.py refuses to time a pass unless the six module caches it
counts exist and are empty at import, and its --trace wrappers rebind
entry points such as correlation.pair_block and special.f_bo by name.  A
rename in qfock would otherwise surface only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_child_sets_up_with_tracing():
    proc = subprocess.run(
        [sys.executable, "bench/child.py", "--workload", "verify-eval",
         "--seed", "1", "--trace", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
