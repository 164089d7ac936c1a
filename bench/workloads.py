"""The four benchmark workloads.

A workload turns a seed into an ordered list of items.  Each item is one call
into qfock; its raw result is turned into canonical output bytes only after
the timed phase, and the SHA-256 of those bytes is compared with
bench/golden.json.

Every call goes through a module attribute looked up at call time
(``verify.suite_main_theorem``, ``cli.main``, ``weylb.char_B``...), so the
wrappers that bench/tracing.py installs by rebinding those attributes see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from math import prod
from typing import Any, Callable

from qfock import cli, qdim, verify, weylb
from qfock.series import HalfSeries
from qfock.weylb import BLabel

WORKLOADS = ("verify-symbolic", "verify-eval", "cli-closed", "weyl-char")

# (l, n) cells of the criterion-5 grid; a cell with l = 1 covers the
# partitions (), (1,) and (2,), so the six (l, lambda) pairs of the grid are
# visited in four suite calls.
MAIN_GRID = ((0, 1), (0, 2), (1, 1), (1, 2))

# The closed halves of the frontier points: l=1, n=3 and l=2, n=2.
CLI_COMMANDS = (
    *(("compute", "--family", family, "--l", "1", "--lambda", "1",
       "--n", "3", "--order", "3")
      for family in ("d-sum", "d-twisted", "d-irreducible")),
    ("compute", "--family", "d-sum", "--l", "1", "--lambda", "2", "--n", "3"),
    *(("compute", "--family", family, "--l", "2", "--lambda", "1",
       "--n", "2", "--order", "3")
      for family in ("d-sum", "d-irreducible")),
)

QDIM_TRUNC2 = 8


@dataclass(frozen=True)
class Item:
    """One call of a workload.

    ``run`` returns the raw result; ``canonical`` turns it into the bytes
    whose digest is checked; ``own_check`` is the program's own verdict on
    the result (False for a FAIL verify line or a nonzero exit code).
    """

    name: str
    run: Callable[[], Any]
    canonical: Callable[[Any], bytes]
    own_check: Callable[[Any], bool]


def _check_lines(checks) -> bytes:
    return "\n".join(c.line() for c in checks).encode()


def _suite_item(prefix: str, l: int, n: int, **kwargs) -> Item:
    return Item(
        f"{prefix}l={l} n={n}",
        lambda: verify.suite_main_theorem(l_values=(l,), n_values=(n,),
                                          **kwargs),
        _check_lines,
        verify.suite_passed,
    )


def _cli_run(argv: tuple[str, ...]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue().encode()


def _cli_item(argv: tuple[str, ...]) -> Item:
    return Item(" ".join(argv), lambda: _cli_run(argv),
                lambda r: r[1], lambda r: r[0] == 0)


def _series_bytes(s: HalfSeries) -> bytes:
    return json.dumps(cli.series_to_json(s), sort_keys=True).encode()


def _char_item(lam: tuple[int, ...], l: int) -> Item:
    def canonical(r) -> bytes:
        return _series_bytes(HalfSeries(r.table, 0, {0: r}))
    return Item(f"char_B lam={lam} l={l}", lambda: weylb.char_B(lam, l),
                canonical, lambda r: True)


def _qdim_item(name: str, fn: Callable[[], HalfSeries]) -> Item:
    return Item(name, fn, _series_bytes, lambda r: True)


def box_partitions(l: int, max_part: int) -> list[tuple[int, ...]]:
    """Partitions with at most l parts, each at most max_part."""
    return [tuple(p for p in reversed(parts) if p)
            for parts in combinations_with_replacement(range(max_part + 1), l)]


def eval_points(suite_seed: int) -> dict[int, dict[int, Any]]:
    """The first evaluation point the eval suite draws for each n."""
    return {n: verify.random_point(tuple(range(n)), suite_seed)
            for n in (1, 2)}


def eval_seed(seed: int) -> int:
    """The suite seed for a workload seed: the first of seed, seed + 10**6,
    seed + 2 * 10**6, ... whose first points keep every denominator
    u_S^eps +- 1 nonzero (u_S^eps: a product of the square-root values over
    a subset S, each to the power +1 or -1).  At any other point an
    evaluation fails and the suite redoes the whole grid cell at a new
    point, so the seed, not the code, would set the time; about 8% of seeds
    are skipped.
    """
    def clean(point: dict) -> bool:
        values = list(point.values())
        return all(abs(prod(v ** e for v, e in zip(sub, eps))) != 1
                   for r in range(1, len(values) + 1)
                   for sub in combinations(values, r)
                   for eps in product((1, -1), repeat=r))

    while not all(clean(p) for p in eval_points(seed).values()):
        seed += 10**6
    return seed


def make_items(workload: str, seed: int) -> list[Item]:
    """The workload's items in the order the seed gives them."""
    if workload == "verify-symbolic":
        items = [_suite_item("", l, n, trunc2=6, mode="symbolic")
                 for l, n in MAIN_GRID]
    elif workload == "verify-eval":
        suite_seed = eval_seed(seed)
        items = [_suite_item(f"seed={suite_seed} ", l, n, trunc2=8,
                             mode="eval", seed=suite_seed)
                 for l, n in MAIN_GRID]
    elif workload == "cli-closed":
        items = [_cli_item(argv) for argv in CLI_COMMANDS]
    elif workload == "weyl-char":
        items = [_char_item(lam, l) for l in range(4)
                 for lam in box_partitions(l, 3)]
        items += [
            _qdim_item("q_plus lam=() l=3",
                       lambda: qdim.q_plus((), 3, QDIM_TRUNC2)),
            *(_qdim_item(f"qdim_irreducible lam=(1,) det={det} l=3",
                         lambda det=det: qdim.qdim_irreducible(
                             BLabel((1,), det), 3, QDIM_TRUNC2))
              for det in (False, True)),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(items)
    return items
