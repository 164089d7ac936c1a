"""Special q-series: infinite Pochhammer products, the theta function and its
t d/dt derivatives, and the n-point correlation kernel F_bo.

Theta here is the specific product

    Theta(t) = (t^(1/2) - t^(-1/2)) (q;q)_inf^(-2) (qt;q)_inf (qt^(-1);q)_inf

and F_bo packages all n-point functions as the standard permutation sum of
determinants of theta derivatives divided by a chain of theta factors, with
the conventions 1/(-k)! = 0 for k > 0 and F_bo() = (q;q)_inf^(-1).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import Mapping, Sequence

from .laurent import LaurentPoly, T_KIND, UsageError, VarTable
from .ratfunc import RatFunc
from .series import HalfSeries

ThetaArg = Sequence[tuple[int, int]]  # ((var index, +1/-1), ...); empty = 1


def pochhammer_inf(table: VarTable, trunc2: int, alpha2: int,
                   mono: LaurentPoly | None = None, coeff=1) -> HalfSeries:
    """(a; q)_inf for a = coeff * mono * q^(alpha2/2), truncated at trunc2.

    Requires alpha2 > 0 so only finitely many factors differ from 1 below the
    truncation order.
    """
    if alpha2 <= 0:
        raise UsageError("non-truncating Pochhammer argument (needs q-exponent > 0)")
    if mono is None:
        mono = LaurentPoly.one(table)
    c = RatFunc.from_poly(mono * Fraction(coeff))
    out = HalfSeries.one(table, trunc2)
    e2 = alpha2
    while e2 <= trunc2:
        out = out * HalfSeries(table, trunc2, {0: RatFunc.one(table), e2: -c})
        e2 += 2
    return out


def qq_inf(table: VarTable, trunc2: int) -> HalfSeries:
    """(q;q)_inf."""
    return pochhammer_inf(table, trunc2, 2)


def _validate_arg(table: VarTable, arg: ThetaArg) -> None:
    seen = set()
    for i, s in arg:
        if table.kinds[i] != T_KIND:
            raise UsageError("theta arguments are monomials in t-variables")
        if s not in (1, -1):
            raise UsageError("theta argument exponents must be +1 or -1")
        if i in seen:
            raise UsageError("theta argument uses a variable twice")
        seen.add(i)


def theta(table: VarTable, trunc2: int, arg: ThetaArg) -> HalfSeries:
    """Theta evaluated at the monomial arg (empty arg gives the zero series)."""
    _validate_arg(table, arg)
    if not arg:
        return HalfSeries.zero(table, trunc2)
    half = LaurentPoly.monomial(table, {i: s for i, s in arg})       # arg^(1/2)
    half_inv = LaurentPoly.monomial(table, {i: -s for i, s in arg})  # arg^(-1/2)
    full = LaurentPoly.monomial(table, {i: 2 * s for i, s in arg})
    full_inv = LaurentPoly.monomial(table, {i: -2 * s for i, s in arg})
    pref = HalfSeries(table, trunc2, {0: half - half_inv})
    qq2 = qq_inf(table, trunc2)
    qq2 = (qq2 * qq2).truncate(trunc2).inverse()
    a = pochhammer_inf(table, trunc2, 2, full)
    b = pochhammer_inf(table, trunc2, 2, full_inv)
    return pref * qq2 * a * b


# Scratch table holding the single formal argument of theta derivatives.
_SCRATCH = VarTable(("theta_arg",), (T_KIND,))
_theta_deriv_cache: dict[tuple[int, int], HalfSeries] = {}


def _theta_deriv_scratch(k: int, trunc2: int) -> HalfSeries:
    """Theta^{(k)} as a series in the single scratch variable."""
    key = (k, trunc2)
    if key not in _theta_deriv_cache:
        if k == 0:
            T = theta(_SCRATCH, trunc2, ((0, 1),))
        else:
            T = _theta_deriv_scratch(k - 1, trunc2).tddt(0)
        _theta_deriv_cache[key] = T
    return _theta_deriv_cache[key]


def _scratch_subst(series: HalfSeries, table: VarTable, arg: ThetaArg) -> HalfSeries:
    """Substitute the scratch variable by the monomial arg (empty arg -> 1)."""
    out: dict[int, RatFunc] = {}
    for e2, c in series.terms.items():
        num = _distribute(c.num, table, arg)
        den = _distribute(c.den, table, arg)
        if den.is_zero():
            raise ZeroDivisionError("theta substitution annihilated a denominator")
        nc = RatFunc(num, den)
        if not nc.is_zero():
            out[e2] = nc
    return HalfSeries(table, series.trunc2, out, _clean=True)


def _distribute(p: LaurentPoly, table: VarTable, arg: ThetaArg) -> LaurentPoly:
    terms: dict[tuple[int, ...], int | Fraction] = {}
    w = len(table)
    for e, c in p.terms.items():
        ne = [0] * w
        for i, s in arg:
            ne[i] = e[0] * s
        ne = tuple(ne)
        terms[ne] = terms.get(ne, 0) + c
    return LaurentPoly(table, terms)  # drops zeros, normalizes


def theta_deriv(table: VarTable, trunc2: int, k: int, arg: ThetaArg) -> HalfSeries:
    """(t d/dt)^k Theta, differentiated first and then evaluated at arg."""
    if k < 0:
        raise UsageError("derivative order must be nonnegative")
    _validate_arg(table, arg)
    return _scratch_subst(_theta_deriv_scratch(k, trunc2), table, arg)


def _det(entries: list[list[HalfSeries | None]], table: VarTable,
         trunc2: int) -> HalfSeries:
    """Cofactor-expansion determinant; None entries are zero."""
    n = len(entries)
    memo: dict[tuple[int, tuple[int, ...]], HalfSeries] = {}

    def minor(row: int, cols: tuple[int, ...]) -> HalfSeries:
        if not cols:
            return HalfSeries.one(table, trunc2)
        key = (row, cols)
        if key in memo:
            return memo[key]
        acc = HalfSeries.zero(table, trunc2)
        for pos, j in enumerate(cols):
            e = entries[row][j]
            if e is None:
                continue
            sub = minor(row + 1, cols[:pos] + cols[pos + 1:])
            term = e * sub
            acc = acc + (term if pos % 2 == 0 else -term)
        memo[key] = acc
        return acc

    return minor(0, tuple(range(n)))


def f_bo(n: int, trunc2: int, table: VarTable | None = None,
         t_indices: Sequence[int] | None = None,
         path: str = "auto",
         assignment: Mapping[int, Fraction] | None = None) -> HalfSeries:
    """The n-point correlation kernel in the variables t_indices.

    path: "auto" uses the closed form for n <= 1 and the determinant sum
    otherwise; "det" forces the permutation/determinant path; "closed" forces
    the n=1 closed form (only valid for n <= 1).

    With an assignment (square-root values for every variable used), the
    theta factors are evaluated before the heavy series arithmetic, and the
    result lives over the reduced table.  A vanished denominator raises
    EvaluationPointError; retry with a new point.
    """
    if n < 0:
        raise UsageError("point count must be nonnegative")
    if table is None:
        table = VarTable.make(n)
    if t_indices is None:
        t_indices = table.t_indices()[:n]
    if len(t_indices) != n:
        raise UsageError(f"need {n} t-variables, got {len(t_indices)}")

    def ev(s: HalfSeries) -> HalfSeries:
        return s.evaluate(assignment) if assignment else s

    if n == 0:
        return ev(qq_inf(table, trunc2)).inverse()
    if path not in ("auto", "det", "closed"):
        raise UsageError(f"unknown f_bo path {path!r}")
    if path == "closed" and n != 1:
        raise UsageError("closed form is the n=1 special case")
    if n == 1 and path != "det":
        i = t_indices[0]
        den = ev(qq_inf(table, trunc2) * theta(table, trunc2, ((i, 1),)))
        return _invert_checked(den)

    # memoized pieces keyed by the set of variables in the theta argument
    th_at: dict[tuple[int, frozenset[int]], HalfSeries] = {}
    inv_th: dict[frozenset[int], HalfSeries] = {}

    def theta_k_at(k: int, vars_: frozenset[int]) -> HalfSeries:
        key = (k, vars_)
        if key not in th_at:
            arg = tuple((i, 1) for i in sorted(vars_))
            th_at[key] = ev(theta_deriv(table, trunc2, k, arg))
        return th_at[key]

    def inv_theta_at(vars_: frozenset[int]) -> HalfSeries:
        if vars_ not in inv_th:
            arg = tuple((i, 1) for i in sorted(vars_))
            inv_th[vars_] = _invert_checked(ev(theta(table, trunc2, arg)))
        return inv_th[vars_]

    out_table = theta_k_at(1, frozenset()).table
    total = None
    for sigma in permutations(t_indices):
        entries: list[list[HalfSeries | None]] = []
        for i in range(1, n + 1):
            row: list[HalfSeries | None] = []
            for j in range(1, n + 1):
                k = j - i + 1
                if k < 0:
                    row.append(None)
                    continue
                arg_vars = frozenset(sigma[:n - j])
                row.append(theta_k_at(k, arg_vars) * Fraction(1, factorial(k)))
            entries.append(row)
        term = _det(entries, out_table, trunc2)
        for j in range(1, n + 1):
            term = term * inv_theta_at(frozenset(sigma[:j]))
        total = term if total is None else total + term
    return total * ev(qq_inf(table, trunc2)).inverse()


def _invert_checked(s: HalfSeries, expected_floor2: int = 0) -> HalfSeries:
    """Invert, reporting a vanished leading coefficient as an
    evaluation-point problem rather than silently inverting a shifted series."""
    from .laurent import EvaluationPointError
    if s.is_zero() or s.floor2() != expected_floor2:
        raise EvaluationPointError(
            "leading coefficient vanished at the evaluation point")
    return s.inverse()
