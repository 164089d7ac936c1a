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
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CACHES
from tuple_kernel import _d_mul
from qfock import correlation, ratfunc, special
from qfock.laurent import LaurentPoly, VarTable

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


def _tracing():
    """bench/tracing.py, loaded from its file; nothing under bench/ runs
    or is written."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_counters_read_the_kernel_types():
    """The traced counters read LaurentPoly.terms (its length) and the
    result keys of ratfunc._d_gcd (exponent tuples).  No workload reaches
    _d_gcd, so only this test would see a change of either."""
    tracing = _tracing()
    tracer = tracing.Tracer()
    tab = VarTable.make(2)
    a = LaurentPoly(tab, {(1, 0): 1, (0, 1): -2, (0, 0): 3})
    b = LaurentPoly(tab, {(1, 1): 1, (0, 0): -1})
    tracing._term_products(tracer, (a, b), a * b)
    tracing._term_products(tracer, (b, 3), b * 3)
    assert tracer.counters["laurent.mul.term_products"] == 3 * 2 + 2
    shared = {(1, 1): 1, (0, 0): -1}                  # x y - 1
    x2, y3 = {(1, 0): 1, (0, 0): 2}, {(0, 1): 1, (0, 0): 3}
    pair = _d_mul(shared, x2), _d_mul(shared, y3)
    g = ratfunc._d_gcd(*pair)
    assert g == shared
    tracing._trivial_dict_gcd(tracer, pair, g)
    assert tracer.counters["laurent.gcd.trivial"] == 0
    tracing._trivial_dict_gcd(tracer, (x2, y3), ratfunc._d_gcd(x2, y3))
    assert tracer.counters["laurent.gcd.trivial"] == 1
