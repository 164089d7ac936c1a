"""One cold pass of one workload, in a fresh interpreter.

    python3 bench/child.py --workload NAME --seed N [--trace] [--setup-only]

Run by bench/run.py from the root of the repository.  The pass refuses to
time anything unless all six qfock module caches are empty, times the
compute phase (first workload call to last result), then checks every
item's output against bench/golden.json, and prints one JSON object on
stdout.  With --trace the layer wrappers are installed first and the object
also carries the per-layer metrics; the spans are written to
bench/out/<workload>.spans.tsv.gz.  With --setup-only it stops right before
the first workload call and reports only that moment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from qfock import correlation, special  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# The six module-level caches; a pass is cold only when all are empty.
CACHES = (
    (correlation, "_fbo_generic_cache"),
    (correlation, "_fbo_eval_cache"),
    (correlation, "_pair_block_cache"),
    (correlation, "_vacuum_cache"),
    (correlation, "_one_point_cache"),
    (special, "_theta_deriv_cache"),
)


def monotonic() -> float:
    """System-wide clock shared with the parent process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cache_sizes() -> dict[str, int]:
    return {f"{mod.__name__}.{name}": len(getattr(mod, name))
            for mod, name in CACHES}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_items(workload: str, items, results):
    """Digest every item's output and describe each failed item."""
    golden = json.loads((BENCH / "golden.json").read_text())[workload]
    digests, failures = {}, []
    for item, (ok, result) in zip(items, results):
        if not ok:
            failures.append(f"{item.name}: raised")
            continue
        digest = digests[item.name] = sha256(item.canonical(result))
        expected = golden.get(item.name)
        if not item.own_check(result):
            failures.append(f"{item.name}: failed its own check")
        elif expected is None and workload != "verify-eval":
            failures.append(f"{item.name}: no golden digest recorded")
        elif expected is not None and digest != expected:
            failures.append(f"{item.name}: digest {digest} != golden {expected}")
    return digests, failures


def layer_metrics(tracer: tracing.Tracer, workload: str,
                  results) -> dict[str, float]:
    out = tracer.summary()
    sizes = cache_sizes()
    for op, cache in (("pair_block", "_pair_block_cache"),
                      ("vacuum", "_vacuum_cache")):
        calls = out[f"correlation.{op}.calls"]
        out[f"correlation.{op}.hit_ratio"] = tracing.ratio(
            calls - sizes[f"qfock.correlation.{cache}"], calls)
    out["correlation.cache_entries"] = sum(sizes.values())
    out["cli.output_bytes"] = sum(
        len(result[1]) for ok, result in results if ok) \
        if workload == "cli-closed" else 0
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sizes = cache_sizes()
    if any(sizes.values()):
        print(f"refusing to time a warm pass: {sizes}", file=sys.stderr)
        return 3
    items = workloads.make_items(args.workload, args.seed)
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    first_call = monotonic()
    if args.setup_only:
        print(json.dumps({"first_call": first_call}))
        return 0

    results = []
    cpu0 = time.process_time()
    tracer.active = True
    for index, item in enumerate(items):
        tracer.item = index
        try:
            results.append((True, item.run()))
        except Exception:  # an item that raises counts as failed
            traceback.print_exc()
            results.append((False, None))
    tracer.active = False
    wall = monotonic() - first_call
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digests, failures = check_items(args.workload, items, results)
    for failure in failures:
        print(f"FAIL {args.workload} seed={args.seed}: {failure}",
              file=sys.stderr)
    out = {
        "first_call": first_call,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(items),
        "failed": len(failures),
        "order": [item.name for item in items],
        "digests": digests,
    }
    if args.workload == "verify-eval":
        out["eval_points"] = {
            n: {i: str(v) for i, v in point.items()}
            for n, point in workloads.eval_points(
                workloads.eval_seed(args.seed)).items()}
    if args.trace:
        out["layers"] = layer_metrics(tracer, args.workload, results)
        (BENCH / "out").mkdir(exist_ok=True)
        tracer.write(BENCH / "out" / f"{args.workload}.spans.tsv.gz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
