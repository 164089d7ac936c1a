"""The names the benchmark depends on, and the outputs it checks.

bench/child.py refuses to time a pass unless the six module caches it
counts exist and are empty at import, and its --trace wrappers rebind
entry points such as correlation.pair_block, cli.series_to_json and
qdim.qdim_irreducible by name.  Each workload builds its items from its
own qfock entry points, and a full pass, traced or not, checks every
item's output bytes against the SHA-256 digests in bench/golden.json.  A
rename in qfock, or a change in any output byte, would otherwise surface
only when the benchmark runs.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CACHES
from qfock import correlation, special

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _child(*args):
    return subprocess.run(
        [sys.executable, "bench/child.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_child_sets_up_with_tracing(workload):
    proc = _child("--workload", workload, "--seed", "1", "--trace",
                  "--setup-only")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cold_pass_matches_the_golden_digests(workload):
    proc = _child("--workload", workload, "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["attempted"] > 0
    assert result["failed"] == 0, proc.stderr


def test_traced_cold_pass_of_verify_eval():
    """Only a traced pass runs the weight counter, which unpacks the four
    positional arguments of fock._diagonal_weight and hashes the state."""
    proc = _child("--workload", "verify-eval", "--seed", "1", "--trace")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["attempted"] > 0
    assert result["failed"] == 0, proc.stderr


def _module_caches() -> dict[tuple[str, str], dict]:
    """Every module-level _*_cache dict of the closed-form modules."""
    return {(mod.__name__, name): value for mod in (correlation, special)
            for name, value in vars(mod).items()
            if name.startswith("_") and name.endswith("_cache")
            and isinstance(value, dict)}


def _bench_caches() -> set[tuple[str, str]]:
    """The (module, name) pairs of bench/child.py's CACHES, read unrun."""
    tree = ast.parse((ROOT / "bench" / "child.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets] == ["CACHES"]:
            return {(f"qfock.{mod.id}", name.value)
                    for mod, name in (e.elts for e in node.value.elts)}
    raise AssertionError("bench/child.py defines no CACHES")


def test_every_module_cache_is_cleared_and_counted():
    """clear_caches() and the benchmark's cold-pass check see every cache,
    so no cold-cache test or seeded fault runs against a warm entry."""
    caches = _module_caches()
    assert len(CACHES) == len(caches)
    assert {id(c) for c in CACHES} == {id(c) for c in caches.values()}
    assert _bench_caches() == set(caches)
