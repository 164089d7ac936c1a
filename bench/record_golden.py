"""Record the golden output digests in bench/golden.json.

    python3 bench/record_golden.py

Run from the root of the repository, at a commit whose outputs are the
reference.  Every workload is recorded at seed 0 (their outputs do not
depend on the seed) and verify-eval at seeds 0..EVAL_SEEDS-1; an item whose
own check fails is not recorded and makes the script exit with code 1.
"""

from __future__ import annotations

import json
import sys

from child import BENCH, sha256
import workloads

EVAL_SEEDS = 64


def main() -> int:
    golden: dict[str, dict[str, str]] = {}
    bad = 0
    for workload in workloads.WORKLOADS:
        seeds = range(EVAL_SEEDS) if workload == "verify-eval" else (0,)
        golden[workload] = {}
        for seed in seeds:
            for item in workloads.make_items(workload, seed):
                result = item.run()
                if not item.own_check(result):
                    print(f"{workload}: {item.name} failed its own check",
                          file=sys.stderr)
                    bad += 1
                    continue
                golden[workload][item.name] = sha256(item.canonical(result))
        print(f"{workload}: {len(golden[workload])} digests", file=sys.stderr)
    (BENCH / "golden.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
