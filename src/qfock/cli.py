"""Command-line front end.

Subcommands: compute (closed-form series), oracle (brute-force trace),
qdim (graded dimensions), verify (identity suites).  Series are emitted as
JSON on stdout (diagnostics on stderr) or as readable text; all exponents in
the JSON are doubled integers and all rationals are strings.

Exit codes: 0 success / verification pass, 1 verification mismatch, 2 bad
input (including an eval-mode point at a pole of the function; another
--seed picks another point), 3 internal failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from fractions import Fraction

from .laurent import (
    EvaluationPointError,
    LaurentPoly,
    T_KIND,
    UsageError,
    VarTable,
    Z_KIND,
    format_exponent,
)
from .ratfunc import RatFunc
from .series import HalfSeries
from .special import f_bo, theta
from .weylb import BLabel
from .correlation import (
    d_sum_function,
    d_twisted_function,
    gl_function,
    fock_trace_closed,
    irreducible_function,
)
from .qdim import QDimForm, q_minus, q_plus, qdim_irreducible
from .fock import FockSpace, oracle_trace
from . import verify as verify_mod


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def poly_to_json(p: LaurentPoly) -> list[dict]:
    return [{"exps_x2": list(e), "val": str(c)} for e, c in p.items()]


def poly_from_json(table: VarTable, data: list[dict]) -> LaurentPoly:
    return LaurentPoly(table, {tuple(d["exps_x2"]): Fraction(d["val"])
                               for d in data})


def series_to_json(s: HalfSeries) -> dict:
    """Every coefficient as num/den polynomials, a number as itself over 1."""
    terms = []
    for e2, c in s.items():
        if not isinstance(c, RatFunc):
            c = RatFunc.const(s.table, c)
        terms.append({"q_x2": e2, "coeff": {"num": poly_to_json(c.num),
                                            "den": poly_to_json(c.den)}})
    return {"variables": list(s.table.names), "order_x2": s.trunc2,
            "terms": terms}


def series_from_json(data: dict) -> HalfSeries:
    names = tuple(data["variables"])
    kinds = tuple(Z_KIND if nm.startswith("z") else T_KIND for nm in names)
    table = VarTable(names, kinds)
    terms = {}
    for t in data["terms"]:
        num = poly_from_json(table, t["coeff"]["num"])
        den = poly_from_json(table, t["coeff"]["den"])
        terms[t["q_x2"]] = RatFunc(num, den, _canonical=True)
    return HalfSeries(table, data["order_x2"], terms)


def series_to_text(s: HalfSeries) -> str:
    if s.is_zero():
        return f"0  (through q^{format_exponent(s.trunc2)})"
    lines = []
    for e2, c in s.items():
        lines.append(f"q^{format_exponent(e2)}: {c}")
    lines.append(f"(exact through q^{format_exponent(s.trunc2)})")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _parse_order(text: str) -> int:
    try:
        order = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"order must be a fraction string like 3 or 9/2, "
                         f"got {text!r}") from None
    if order < 0:
        raise UsageError("order must be nonnegative")
    trunc2 = order * 2
    if trunc2.denominator != 1:
        raise UsageError("order must be a half-integer like 3 or 9/2")
    return int(trunc2)


def _parse_lambda(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"lambda must be comma-separated integers, "
                         f"got {text!r}") from None


def _emit(args, series: HalfSeries, extra: dict | None = None) -> None:
    if args.format == "json":
        data = series_to_json(series)
        if extra:
            data.update(extra)
        # json.dumps takes the C encoder, which json.dump never does
        sys.stdout.write(json.dumps(data, sort_keys=True) + "\n")
    else:
        if extra:
            for k, v in extra.items():
                print(f"# {k}: {v}")
        print(series_to_text(series))


def _bind(args, table: VarTable) -> VarTable:
    """The table, its t-variables bound to the seed's point in eval mode."""
    if args.mode != "eval":
        return table
    return table.bind(verify_mod.random_point(table.t_indices(), args.seed))


def _evaluation(table: VarTable) -> dict | None:
    """The bound point as the JSON "evaluation" field, None when unbound."""
    if not table.values:
        return None
    return {"evaluation": {table.names[i]: str(v) for i, v in table.values}}


def _run_compute(args) -> int:
    trunc2 = _parse_order(args.order)
    lam = _parse_lambda(args.lam)
    n = args.n
    table = VarTable.make(n, 1 if args.family == "fock-trace" else 0)
    ti = tuple(range(n))
    # the q-dimensions have no variables to bind
    at = table if args.family in ("q-plus", "q-minus") else _bind(args, table)
    if args.family == "gl":
        s = gl_function(lam, args.l, n, trunc2, at, ti)
    elif args.family == "d-sum":
        s = d_sum_function(lam, args.l, n, trunc2, args.structure, at, ti)
    elif args.family == "d-twisted":
        s = d_twisted_function(lam, args.l, n, trunc2, args.structure, at, ti)
    elif args.family == "d-irreducible":
        s = irreducible_function(BLabel(lam, args.det), args.l, n, trunc2,
                                 args.structure, at, ti)
    elif args.family == "fbo":
        s = f_bo(n, trunc2, at, ti)
    elif args.family == "theta":
        if n != 1:
            raise UsageError("theta takes one variable (set --n 1)")
        s = theta(at, trunc2, ((0, 1),))
    elif args.family == "fock-trace":
        s = fock_trace_closed(n, trunc2, at, ti, n)
    elif args.family == "q-plus":
        s = q_plus(lam, args.l, trunc2, QDimForm(args.form, args.reading))
    elif args.family == "q-minus":
        s = q_minus(lam, args.l, trunc2, QDimForm(args.form, args.reading))
    else:
        raise UsageError(f"unknown family {args.family!r}")
    _emit(args, s, _evaluation(at))
    return 0


def _run_qdim(args) -> int:
    trunc2 = _parse_order(args.order)
    lam = _parse_lambda(args.lam)
    if args.det or args.irreducible:
        if args.sector or args.form or args.reading:
            raise UsageError("--sector, --form and --reading do not apply to "
                             "an irreducible q-dimension")
        s = qdim_irreducible(BLabel(lam, args.det), args.l, trunc2)
    else:
        fn = q_minus if args.sector == "minus" else q_plus
        s = fn(lam, args.l, trunc2,
               QDimForm(args.form or "weyl-sum", args.reading or "corrected"))
    _emit(args, s)
    return 0


def _run_oracle(args) -> int:
    trunc2 = _parse_order(args.order)
    n = args.n
    l = args.l
    space = FockSpace(l, neutral=not args.pairs_only)
    nz = l if args.z_grading else 0
    table = _bind(args, VarTable.make(n, nz))
    ti = tuple(range(n))
    zi = tuple(range(n, n + nz)) if nz else None
    even, odd = oracle_trace(space, trunc2, table, ti, z_indices=zi)
    if args.parity_sign:  # (-1)^parity negates the odd projection
        odd = -odd
    s = {"even": even, "odd": odd, None: even + odd}[args.projector]
    _emit(args, s, _evaluation(table))
    return 0


def _run_verify(args) -> int:
    name = args.suite
    suites = dict(verify_mod.SUITES)
    aliases = {"twisted": "main-theorem", "one-point": "onepoint"}
    name = aliases.get(name, name)
    if name != "all" and name not in suites:
        raise UsageError(f"unknown suite {name!r}; choose from "
                         f"{sorted(suites)} or 'all'")
    selected = suites if name == "all" else {name: suites[name]}
    all_checks = []
    for nm, fn in selected.items():
        kwargs = {}
        if nm in ("vacuum-recursion",):
            kwargs = {"n_max": args.n, "trunc2": _parse_order(args.order),
                      "mode": args.mode, "seed": args.seed}
        elif nm in ("main-theorem",):
            kwargs = {"trunc2": _parse_order(args.order), "mode": args.mode,
                      "seed": args.seed}
        elif nm == "needed":
            kwargs = {"trunc2": _parse_order(args.order)}
        elif nm in ("onepoint", "qdim"):
            kwargs = {"trunc2": max(_parse_order(args.order), 2)}
        checks = fn(**kwargs)
        for c in checks:
            print(c.line())
        all_checks.extend(checks)
    bad = verify_mod.first_failure(all_checks)
    if bad is not None:
        print(f"FIRST MISMATCH: {bad.name}: {bad.detail}", file=sys.stderr)
        return 1
    return 0


def _count(text: str) -> int:
    """A nonnegative integer option (--n, --l); argparse exits 2 otherwise."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") \
            from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qfock",
        description="Exact q-series correlation functions, q-dimensions and "
                    "their brute-force Fock-space verification.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_mode=True):
        sp.add_argument("--order", default="3", help="truncation order, a "
                        "half-integer fraction string like 3 or 9/2")
        sp.add_argument("--format", choices=("json", "text"), default="json")
        if with_mode:
            sp.add_argument("--mode", choices=("symbolic", "eval"),
                            default="symbolic")
            sp.add_argument("--seed", type=int, default=0,
                            help="seed for eval-mode points")

    c = sub.add_parser("compute", help="evaluate a closed-form series")
    c.add_argument("--family", required=True,
                   choices=("gl", "d-sum", "d-twisted", "d-irreducible",
                            "fbo", "theta", "fock-trace", "q-plus", "q-minus"))
    c.add_argument("--l", type=_count, default=0)
    c.add_argument("--lambda", dest="lam", default="",
                   help="comma-separated parts, e.g. '2,1'")
    c.add_argument("--det", action="store_true")
    c.add_argument("--n", type=_count, default=1, help="number of points")
    c.add_argument("--structure", choices=("convolved", "printed"),
                   default="convolved")
    c.add_argument("--form", choices=("weyl-sum", "product"),
                   default="weyl-sum")
    c.add_argument("--reading", choices=("corrected", "as-printed"),
                   default="corrected")
    common(c)
    c.set_defaults(fn=_run_compute)

    o = sub.add_parser("oracle", help="brute-force Fock-space trace")
    o.add_argument("--l", type=_count, default=0,
                   help="number of fermion pairs")
    o.add_argument("--n", type=_count, default=0, help="number of insertions")
    o.add_argument("--pairs-only", action="store_true",
                   help="omit the neutral fermion")
    o.add_argument("--z-grading", action="store_true",
                   help="grade by the charge of each pair (one z-variable "
                        "per pair); with no pair there is no z-variable, so "
                        "the output is the ungraded trace")
    o.add_argument("--parity-sign", action="store_true",
                   help="insert (-1)^parity, after any projector; the "
                        "parity counts neutral excitations, or all "
                        "excitations with --pairs-only")
    o.add_argument("--projector", choices=("even", "odd"), default=None,
                   help="keep only the states of this parity, before any "
                        "--parity-sign")
    common(o)
    o.set_defaults(fn=_run_oracle)

    q = sub.add_parser("qdim", help="graded dimensions")
    q.add_argument("--l", type=_count, default=0)
    q.add_argument("--lambda", dest="lam", default="")
    irr = q.add_mutually_exclusive_group()
    irr.add_argument("--det", action="store_true",
                     help="irreducible det-sector dimension")
    irr.add_argument("--irreducible", action="store_true",
                     help="irreducible plain-sector dimension")
    # not with --det or --irreducible; default plus, weyl-sum, corrected
    q.add_argument("--sector", choices=("plus", "minus"))
    q.add_argument("--form", choices=("weyl-sum", "product"))
    q.add_argument("--reading", choices=("corrected", "as-printed"))
    common(q, with_mode=False)
    q.set_defaults(fn=_run_qdim)

    v = sub.add_parser("verify", help="run identity suites")
    v.add_argument("--suite", default="all")
    v.add_argument("--n", type=_count, default=2)
    common(v)
    v.set_defaults(fn=_run_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad input already; normalize other codes
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvaluationPointError as exc:
        print(f"error: {exc}; try another --seed", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault, never bad input or a failed check
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
