"""Span tracing of qfock's layer boundaries, installed from outside.

``Tracer.install`` wraps each entry point in ``LAYER_OPS`` by rebinding
module and class attributes; qfock's own files are not touched.  A plain
function is rebound in every ``qfock`` module that imported it, except the
``_d_gcd`` and ``_d_divexact`` bindings, which are wrapped only where
``ratfunc`` imported them (``laurent`` calls them inside its own GCD).

Each wrapped call records one span: op, start, end, parent span and item id,
held in flat arrays until the run ends.  A call of an op made directly inside
a span of the same op (``__sub__`` calling ``__add__``, ``theta_deriv``
calling ``theta``) belongs to the outer span, unless the op is marked
recursive (``_vacuum_on``), where every call is a span.  Self time is a
span's duration minus the time covered by its child spans, so nested and
recursive spans are never counted twice.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter
from functools import wraps
from time import perf_counter
from typing import Any, Callable

CountFn = Callable[["Tracer", tuple, Any], None]


def _term_products(tracer: "Tracer", args: tuple, result) -> None:
    a, b = args
    tracer.counters["laurent.mul.term_products"] += \
        len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _trivial_poly_gcd(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counters["laurent.gcd.trivial"] += result.is_one()


def _trivial_dict_gcd(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counters["laurent.gcd.trivial"] += (
        len(result) == 1 and not any(next(iter(result)))
        and next(iter(result.values())) == 1)


def _states(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counters["fock.states"] += sum(len(v) for v in result.values())


def _weight_key(tracer: "Tracer", args: tuple, result) -> None:
    state, space, table, t_indices = args
    tracer.weight_keys.add((state, space, table, tuple(t_indices)))


def _checks(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counters["verify.checks"] += len(result)


# (op, module, attribute, options).  The attribute is "name" for a module
# function or "Class.name" for a method; aliases such as __rmul__ = __mul__
# are found and rebound with it.
LAYER_OPS: tuple[tuple[str, str, str, dict], ...] = (
    ("laurent.mul", "laurent", "LaurentPoly.__mul__", {"count": _term_products}),
    ("laurent.add", "laurent", "LaurentPoly.__add__", {}),
    ("laurent.add", "laurent", "LaurentPoly.__sub__", {}),
    ("laurent.gcd", "laurent", "poly_gcd", {"count": _trivial_poly_gcd}),
    ("laurent.gcd", "ratfunc", "_d_gcd",
     {"count": _trivial_dict_gcd, "only_here": True}),
    ("laurent.divexact", "laurent", "poly_divexact", {}),
    ("laurent.divexact", "ratfunc", "_d_divexact", {"only_here": True}),
    ("laurent.evaluate", "laurent", "LaurentPoly.evaluate", {}),
    ("ratfunc.add", "ratfunc", "RatFunc.__add__", {}),
    ("ratfunc.add", "ratfunc", "RatFunc.__sub__", {}),
    ("ratfunc.mul", "ratfunc", "RatFunc.__mul__", {}),
    ("ratfunc.reduce", "ratfunc", "_reduce", {}),
    ("ratfunc.evaluate", "ratfunc", "RatFunc.evaluate", {}),
    ("series.mul", "series", "HalfSeries.__mul__", {}),
    ("series.add", "series", "HalfSeries.__add__", {}),
    ("series.add", "series", "HalfSeries.__sub__", {}),
    ("series.inverse", "series", "HalfSeries.inverse", {}),
    ("special.f_bo", "special", "f_bo", {}),
    ("special.theta", "special", "theta", {}),
    ("special.theta", "special", "theta_deriv", {}),
    ("weylb.char_B", "weylb", "char_B", {}),
    ("weylb.denominator", "weylb", "weyl_denominator_B", {}),
    ("weylb.denominator", "weylb", "weyl_denominator_det", {}),
    ("correlation.pair_block", "correlation", "pair_block", {}),
    ("correlation.vacuum", "correlation", "_vacuum_on", {"recursive": True}),
    ("correlation.d_function", "correlation", "_d_function", {}),
    ("qdim.qdim", "qdim", "q_plus", {}),
    ("qdim.qdim", "qdim", "q_minus", {}),
    ("qdim.qdim", "qdim", "qdim_irreducible", {}),
    ("fock.enumerate", "fock", "enumerate_states", {"count": _states}),
    ("fock.apply_D", "fock", "apply_D", {}),
    ("fock.weight", "fock", "_diagonal_weight", {"count": _weight_key}),
    ("fock.trace", "fock", "oracle_trace", {}),
    ("fock.extract", "fock", "extract_module_function", {}),
    ("verify.suite", "verify", "suite_main_theorem", {"count": _checks}),
    ("cli.serialize", "cli", "series_to_json", {}),
)

OPS: tuple[str, ...] = tuple(dict.fromkeys(op for op, *_ in LAYER_OPS))
COUNTERS = ("laurent.mul.term_products", "fock.states", "verify.checks")


class _JsonProxy:
    """Stands in for the ``json`` module inside ``qfock.cli`` so that the
    JSON dump of the CLI output is a ``cli.serialize`` span."""

    def __init__(self, dump):
        self.dump = dump

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.op_names: list[str] = []
        self.span_op = array("H")
        self.span_parent = array("l")
        self.span_item = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counters: Counter = Counter(dict.fromkeys(COUNTERS, 0))
        self.weight_keys: set = set()
        self.active = False
        self.item = 0

    def _op_id(self, op: str) -> int:
        if op not in self.op_names:
            self.op_names.append(op)
        return self.op_names.index(op)

    def wrap(self, op: str, fn: Callable, recursive: bool = False,
             count: CountFn | None = None) -> Callable:
        oid = self._op_id(op)
        ops, parents, items = self.span_op, self.span_parent, self.span_item
        starts, ends, stack = self.span_start, self.span_end, self.stack

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or (
                    not recursive and stack and ops[stack[-1]] == oid):
                return fn(*args, **kwargs)
            i = len(ops)
            ops.append(oid)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every entry point of LAYER_OPS to a traced wrapper."""
        from qfock import cli

        for op, mod_name, attr, opts in LAYER_OPS:
            module = sys.modules[f"qfock.{mod_name}"]
            cls_name, _, name = attr.rpartition(".")
            owner = getattr(module, cls_name) if cls_name else module
            original = getattr(owner, name)
            wrapped = self.wrap(op, original, opts.get("recursive", False),
                                opts.get("count"))
            if cls_name:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapped)
            elif opts.get("only_here"):
                setattr(module, name, wrapped)
            else:
                for mod in _qfock_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

        cli.json = _JsonProxy(self.wrap("cli.serialize", json.dump))

    def summary(self) -> dict[str, float]:
        """Calls and self time per op, the counters, and the ratios of
        trivial GCDs and of distinct diagonal weights (0 without calls)."""
        n = len(self.span_op)
        cover = [0.0] * n
        starts, ends = self.span_start, self.span_end
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                cover[p] += ends[i] - starts[i]
        calls = Counter()
        self_s = Counter()
        for i, oid in enumerate(self.span_op):
            calls[oid] += 1
            self_s[oid] += ends[i] - starts[i] - cover[i]
        out: dict[str, float] = {}
        for op in OPS:
            oid = self.op_names.index(op)
            out[f"{op}.calls"] = calls[oid]
            out[f"{op}.self_s"] = self_s[oid]
        out.update((k, self.counters[k]) for k in COUNTERS)
        out["laurent.gcd.trivial_ratio"] = ratio(
            self.counters["laurent.gcd.trivial"], out["laurent.gcd.calls"])
        out["fock.weight.unique_ratio"] = ratio(
            len(self.weight_keys), out["fock.weight.calls"])
        return out

    def write(self, path) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tparent\titem\top\tstart\tend\n")
            names = self.op_names
            for i in range(len(self.span_op)):
                f.write(f"{i}\t{self.span_parent[i]}\t{self.span_item[i]}\t"
                        f"{names[self.span_op[i]]}\t{self.span_start[i]!r}\t"
                        f"{self.span_end[i]!r}\n")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _qfock_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "qfock" or name.startswith("qfock.")]
