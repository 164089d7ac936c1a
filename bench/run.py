"""qfock benchmark: cold-process passes of one workload, with checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  Each pass runs bench/child.py in a
fresh interpreter, so every module cache starts empty, and passes repeat
until about S seconds are spent (at least MIN_PASSES).  Every item's output
is checked against bench/golden.json.

With --trace 0 the result carries the end-to-end metrics, each the median
over the passes: wall_s and cpu_s of the compute phase, setup_s (launch to
first workload call; the passes plus SETUP_PROBES launches that stop there)
and peak_rss_mb.  With --trace 1 one untraced pass is followed by traced
passes, and the result carries the per-layer metrics: calls and counts from
the first traced pass, self times as medians, the traced wall time and its
ratio to the untraced one.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it restate the metrics for
a reader.  The exit code is 0 when every item passed, 1 when any failed its
check, 2 when the repository's sources are missing, 3 when a pass crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

MIN_PASSES = 2
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class PassFailed(RuntimeError):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(workload: str, seed: int, *flags: str) -> dict:
    """One cold pass; adds setup_s (launch to first workload call)."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    launched = monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise PassFailed(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["first_call"] - launched
    return out


def repeat(workload: str, seed: int, budget_s: float, min_passes: int,
           *flags: str) -> list[dict]:
    """Passes until the next one would overrun the budget."""
    passes, durations = [], []
    start = monotonic()
    while True:
        t = monotonic()
        passes.append(run_child(workload, seed, *flags))
        durations.append(monotonic() - t)
        spent = monotonic() - start
        if len(passes) >= min_passes and \
                spent + statistics.median(durations) > budget_s:
            return passes


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def measure(workload: str, seed: int, seconds: float) -> tuple[list, dict]:
    passes = repeat(workload, seed, seconds, MIN_PASSES)
    setups = [p["setup_s"] for p in passes] + [
        run_child(workload, seed, "--setup-only")["setup_s"]
        for _ in range(SETUP_PROBES)]
    metrics = {name: median_of(passes, name) for name in END_TO_END}
    metrics["setup_s"] = statistics.median(setups)
    print(f"{workload} seed={seed}: {len(passes)} cold passes, "
          f"{len(setups)} set-up samples")
    for name in ("wall_s", "cpu_s"):
        print(f"  {name} per pass: "
              + " ".join(f"{p[name]:.4f}" for p in passes))
    return passes, {name: (value, END_TO_END[name])
                    for name, value in metrics.items()}


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[list, dict]:
    t = monotonic()
    plain = run_child(workload, seed)
    traced = repeat(workload, seed, seconds - (monotonic() - t), 1, "--trace")
    layers = dict(traced[0]["layers"])
    for name in layers:
        if name.endswith(".self_s"):
            layers[name] = statistics.median(p["layers"][name] for p in traced)
    layers["trace.wall_s"] = median_of(traced, "wall_s")
    layers["trace.overhead_ratio"] = layers["trace.wall_s"] / plain["wall_s"]
    print(f"{workload} seed={seed}: 1 untraced pass "
          f"(wall_s {plain['wall_s']:.4f} s), {len(traced)} traced passes")
    return [plain, *traced], {name: (value, unit_of(name))
                              for name, value in layers.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "qfock" / "__init__.py").is_file():
        print(f"error: qfock sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    run = measure_traced if args.trace else measure
    try:
        passes, metrics = run(args.workload, args.seed, args.seconds)
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:.6g} {unit}")
    print(f"  {'fail_ratio':<36} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} items)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
