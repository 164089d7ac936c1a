"""Closed-form and recursive correlation functions.

Naming: d_sum_function is the trace over the direct sum of the two
det-sectors, d_twisted_function the parity-signed version, and
irreducible_function their half sum/difference.  All live at level l + 1/2
with n insertion points.

Two structural readings of the level-(l+1/2) functions are provided:

  * "convolved" (default): the n insertion points are distributed over the l
    complex-pair slots and the neutral slot (a sum over ordered partitions of
    the point set), each pair slot a contributing the charge-mu_a block built
    from the correlation kernel, the neutral slot the vacuum function of the
    remaining points.  This form matches the brute-force Fock oracle exactly.

  * "printed": the compact form in which every slot sees all n points
    (vacuum prefactor in all variables times a Weyl-group sum of full-point
    blocks).  Kept for comparison; the verification suite reports where it
    first diverges from the oracle.

The twisted functions alternate over the permutation-only sign character (the
"+"-alternant pairing); the untwisted ones use the full sign character.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import isqrt
from typing import Sequence

from .laurent import LaurentPoly, UsageError, VarTable
from .ratfunc import RatFunc
from .series import HalfSeries
from .special import f_bo, pochhammer_inf, qq_inf
from .weylb import (
    check_partition,
    BLabel,
    enumerate_WB,
    pad_weight,
    rho_B,
    act,
    sign_vectors,
)


# ---------------------------------------------------------------------------
# cached building blocks
# ---------------------------------------------------------------------------

_fbo_generic_cache: dict[tuple[int, int], HalfSeries] = {}
_fbo_eval_cache: dict = {}
_pair_block_cache: dict = {}
_vacuum_cache: dict = {}
_one_point_cache: dict = {}


def _f_bo_generic(m: int, trunc2: int) -> HalfSeries:
    key = (m, trunc2)
    if key not in _fbo_generic_cache:
        _fbo_generic_cache[key] = f_bo(m, trunc2)
    return _fbo_generic_cache[key]


def _f_bo_at_values(values: tuple[Fraction, ...], trunc2: int) -> dict[int, Fraction]:
    """Correlation kernel evaluated at square-root values, as plain fractions."""
    key = (values, trunc2)
    if key not in _fbo_eval_cache:
        m = len(values)
        s = f_bo(m, trunc2, assignment={j: values[j] for j in range(m)})
        _fbo_eval_cache[key] = {e2: c.constant_value() for e2, c in s.terms.items()}
    return _fbo_eval_cache[key]


def pair_block(table: VarTable, t_indices: Sequence[int], k: int,
               trunc2: int,
               assignment=None) -> HalfSeries:
    """q^(k^2/2) times the signed sum over componentwise inversions:

        sum_{eps in {+1,-1}^S} [eps] (prod_S t^eps)^k F_bo(q; t_S^eps)

    This is the z^k coefficient of the charge-graded one-pair trace.  With an
    assignment the t-variables are evaluated (fast path for verification).
    """
    t_indices = tuple(t_indices)
    m = len(t_indices)
    qexp2 = k * k  # doubled exponent of q^(k^2/2)
    out_table = table.without(assignment or ())
    key = (table, t_indices, k, trunc2,
           tuple(sorted(assignment.items())) if assignment else None)
    if key in _pair_block_cache:
        return _pair_block_cache[key]
    if qexp2 > trunc2:
        out = HalfSeries.zero(out_table, trunc2)
        _pair_block_cache[key] = out
        return out
    if m == 0:
        out = qq_inf(out_table, trunc2).inverse() * HalfSeries.q_power(
            out_table, trunc2, qexp2)
        _pair_block_cache[key] = out
        return out
    if assignment:
        values = tuple(Fraction(assignment[i]) for i in t_indices)
        acc_c: dict[int, Fraction] = {}
        for eps, peps in sign_vectors(m):
            pt = tuple(v if e > 0 else 1 / v for v, e in zip(values, eps))
            mono = Fraction(peps)
            for v, e in zip(values, eps):
                mono *= v ** (2 * k * e)
            for e2, c in _f_bo_at_values(pt, trunc2).items():
                acc_c[e2] = acc_c.get(e2, Fraction(0)) + mono * c
        out = HalfSeries(out_table, trunc2,
                         {e2 + qexp2: c for e2, c in acc_c.items()
                          if c and e2 + qexp2 <= trunc2})
        _pair_block_cache[key] = out
        return out
    generic = _f_bo_generic(m, trunc2)
    acc = HalfSeries.zero(table, trunc2)
    for eps, peps in sign_vectors(m):
        mapping = [(t_indices[j], eps[j]) for j in range(m)]
        renamed = generic.rename_signed(table, mapping)
        mono = LaurentPoly.monomial(
            table, {t_indices[j]: 2 * k * eps[j] for j in range(m)}, peps)
        acc = acc + renamed.scale(mono)
    out = acc * HalfSeries.q_power(table, trunc2, qexp2)
    _pair_block_cache[key] = out
    return out


def _vacuum_base(table: VarTable, trunc2: int, twisted: bool) -> HalfSeries:
    """(q^(1/2);q)_inf for the twisted trace, (-q^(1/2);q)_inf untwisted."""
    return pochhammer_inf(table, trunc2, 1, coeff=1 if twisted else -1)


def d_half_vacuum(n: int, trunc2: int, twisted: bool,
                  table: VarTable | None = None,
                  t_indices: Sequence[int] | None = None,
                  assignment=None) -> HalfSeries:
    """The level-1/2 vacuum n-point function by the subset recursion.

    Base case n=0: (q^(1/2);q)_inf twisted, (-q^(1/2);q)_inf untwisted.  For
    n >= 1 the k-sum over charge blocks carries (-1)^k in the twisted case
    and is plain in the untwisted one; proper subsets recurse.
    """
    if table is None:
        table = VarTable.make(n)
    if t_indices is None:
        t_indices = table.t_indices()[:n]
    t_indices = tuple(t_indices)
    if len(t_indices) != n:
        raise UsageError(f"need {n} t-variables, got {len(t_indices)}")
    return _vacuum_on(table, t_indices, trunc2, twisted, assignment)


def _vacuum_on(table: VarTable, t_indices: tuple[int, ...], trunc2: int,
               twisted: bool, assignment=None) -> HalfSeries:
    key = (table, frozenset(t_indices), trunc2, twisted,
           tuple(sorted(assignment.items())) if assignment else None)
    if key in _vacuum_cache:
        return _vacuum_cache[key]
    out_table = table.without(assignment or ())
    n = len(t_indices)
    base = _vacuum_base(out_table, trunc2, twisted)
    if n == 0:
        _vacuum_cache[key] = base
        return base
    ksum = HalfSeries.zero(out_table, trunc2)
    for k in range(-isqrt(trunc2), isqrt(trunc2) + 1):
        blk = pair_block(table, t_indices, k, trunc2, assignment)
        if twisted and k % 2:
            blk = -blk
        ksum = ksum + blk
    sub = HalfSeries.zero(out_table, trunc2)
    for bits in iproduct((0, 1), repeat=n):
        if not any(bits) or all(bits):
            continue
        left = tuple(t_indices[i] for i in range(n) if bits[i])
        right = tuple(t_indices[i] for i in range(n) if not bits[i])
        sub = sub + _vacuum_on(table, left, trunc2, twisted, assignment) * \
            _vacuum_on(table, right, trunc2, twisted, assignment)
    out = (ksum - sub) * base.inverse() * Fraction(1, 2)
    _vacuum_cache[key] = out
    return out


# ---------------------------------------------------------------------------
# the closed formulas
# ---------------------------------------------------------------------------

def gl_function(lam: Sequence[int], l: int, n: int, trunc2: int,
                table: VarTable | None = None,
                t_indices: Sequence[int] | None = None) -> HalfSeries:
    """Level-l n-point function for a weakly decreasing integer weight:

        q^(|lam|^2/2) (t_1...t_n)^(lam_1+...+lam_l)
        prod_{i<j} (1 - q^(lam_i - lam_j + j - i)) * F_bo(q;t)^l
    """
    lam = check_partition(lam, None, allow_negative=True)
    if len(lam) != l:
        raise UsageError(f"weight {lam} must have exactly {l} parts")
    if table is None:
        table = VarTable.make(n)
    if t_indices is None:
        t_indices = table.t_indices()[:n]
    t_indices = tuple(t_indices)
    if len(t_indices) != n:
        raise UsageError(f"need {n} t-variables, got {len(t_indices)}")
    nrm2 = sum(x * x for x in lam)  # doubled exponent of q^(|lam|^2/2)
    size = sum(lam)
    out = HalfSeries.q_power(table, trunc2, nrm2) if nrm2 <= trunc2 else \
        HalfSeries.zero(table, trunc2)
    if size:
        out = out.scale(LaurentPoly.monomial(
            table, {i: 2 * size for i in t_indices}))
    for i in range(1, l + 1):
        for j in range(i + 1, l + 1):
            e2 = 2 * (lam[i - 1] - lam[j - 1] + j - i)
            out = out * HalfSeries(table, trunc2, {0: 1, e2: -1} if e2 <= trunc2
                                   else {0: 1})
    if l:
        fb = _f_bo_generic(n, trunc2).rename_signed(
            table, [(i, 1) for i in t_indices]) if n else \
            qq_inf(table, trunc2).inverse()
        for _ in range(l):
            out = out * fb
    return out


def fock_trace_closed(n: int, trunc2: int, table: VarTable | None = None,
                      t_indices: Sequence[int] | None = None,
                      z_index: int | None = None,
                      assignment=None) -> HalfSeries:
    """Charge-graded one-pair trace: sum_k z^k q^(k^2/2) (inversion blocks)."""
    if table is None:
        table = VarTable.make(n, 1)
    if t_indices is None:
        t_indices = table.t_indices()[:n]
    if z_index is None:
        z_index = table.z_indices()[0]
    t_indices = tuple(t_indices)
    out_table = table.without(assignment or ())
    zi = out_table.index(table.names[z_index])
    acc = HalfSeries.zero(out_table, trunc2)
    for k in range(-isqrt(trunc2), isqrt(trunc2) + 1):
        blk = pair_block(table, t_indices, k, trunc2, assignment)
        acc = acc + blk.scale(LaurentPoly.monomial(out_table, {zi: 2 * k}))
    return acc


def fock_trace_at_sign(n: int, trunc2: int, sign: int,
                       table: VarTable | None = None,
                       t_indices: Sequence[int] | None = None,
                       assignment=None) -> HalfSeries:
    """The charge-graded one-pair trace specialized at z = +1 or z = -1."""
    if sign not in (1, -1):
        raise UsageError("sign must be +1 or -1")
    if table is None:
        table = VarTable.make(n)
    if t_indices is None:
        t_indices = table.t_indices()[:n]
    t_indices = tuple(t_indices)
    out_table = table.without(assignment or ())
    acc = HalfSeries.zero(out_table, trunc2)
    for k in range(-isqrt(trunc2), isqrt(trunc2) + 1):
        blk = pair_block(table, t_indices, k, trunc2, assignment)
        if sign < 0 and k % 2:
            blk = -blk
        acc = acc + blk
    return acc


def _weyl_charges(lam: Sequence[int], l: int):
    """Yield (character pair, integer charge vector, doubled q-norm) per
    Weyl element; charges are the components of lam + rho - sigma(rho)."""
    rho = rho_B(l)
    lamrho = tuple(a + b for a, b in zip(pad_weight(lam, l), rho))
    for sigma, full_char in enumerate_WB(l):
        srho = act(sigma, rho)
        mu = tuple(lamrho[i] - srho[i] for i in range(l))
        if any(m.denominator != 1 for m in mu):
            raise UsageError("charges must be integers")
        mu_int = tuple(int(m) for m in mu)
        nrm2 = sum(m * m for m in mu_int)
        yield full_char, sigma.perm_sign(), mu_int, nrm2


def _d_function(lam: Sequence[int], l: int, n: int, trunc2: int,
                twisted: bool, structure: str,
                table: VarTable | None,
                t_indices: Sequence[int] | None,
                assignment=None) -> HalfSeries:
    lam = check_partition(lam, l)
    if table is None:
        table = VarTable.make(n)
    if t_indices is None:
        t_indices = table.t_indices()[:n]
    t_indices = tuple(t_indices)
    if len(t_indices) != n:
        raise UsageError(f"need {n} t-variables, got {len(t_indices)}")
    if structure not in ("convolved", "printed"):
        raise UsageError(f"unknown structure {structure!r}")
    out_table = table.without(assignment or ())
    acc = HalfSeries.zero(out_table, trunc2)
    if structure == "printed":
        for full_char, perm_char, mu, nrm2 in _weyl_charges(lam, l):
            if nrm2 > trunc2:
                continue
            term = HalfSeries.one(out_table, trunc2)
            for ka in mu:
                term = term * pair_block(table, t_indices, ka, trunc2, assignment)
            acc = acc + (term if full_char > 0 else -term)
        return _vacuum_on(table, t_indices, trunc2, twisted, assignment) * acc
    for full_char, perm_char, mu, nrm2 in _weyl_charges(lam, l):
        if nrm2 > trunc2:
            continue
        char = perm_char if twisted else full_char
        for assign in iproduct(range(l + 1), repeat=n):
            term = HalfSeries.one(out_table, trunc2)
            for a in range(1, l + 1):
                block = tuple(t_indices[j] for j in range(n) if assign[j] == a)
                term = term * pair_block(table, block, mu[a - 1], trunc2,
                                         assignment)
                if term.is_zero():
                    break
            else:
                neutral = tuple(t_indices[j] for j in range(n) if assign[j] == 0)
                term = term * _vacuum_on(table, neutral, trunc2, twisted,
                                         assignment)
            if not term.is_zero():
                acc = acc + (term if char > 0 else -term)
    return acc


def d_sum_function(lam: Sequence[int], l: int, n: int, trunc2: int,
                   structure: str = "convolved",
                   table: VarTable | None = None,
                   t_indices: Sequence[int] | None = None,
                   assignment=None) -> HalfSeries:
    """Trace over the direct sum of the two det-sectors (no parity sign)."""
    return _d_function(lam, l, n, trunc2, False, structure, table, t_indices,
                       assignment)


def d_twisted_function(lam: Sequence[int], l: int, n: int, trunc2: int,
                       structure: str = "convolved",
                       table: VarTable | None = None,
                       t_indices: Sequence[int] | None = None,
                       assignment=None) -> HalfSeries:
    """Parity-signed trace over the direct sum of the two det-sectors."""
    return _d_function(lam, l, n, trunc2, True, structure, table, t_indices,
                       assignment)


def irreducible_function(label: BLabel, l: int, n: int, trunc2: int,
                         structure: str = "convolved",
                         table: VarTable | None = None,
                         t_indices: Sequence[int] | None = None,
                         assignment=None) -> HalfSeries:
    """Per-irreducible n-point function: half sum (det flag off) or half
    difference (det flag on) of the plain and parity-signed functions."""
    lam = check_partition(label.partition, l)
    plain = d_sum_function(lam, l, n, trunc2, structure, table, t_indices,
                           assignment)
    signed = d_twisted_function(lam, l, n, trunc2, structure, table, t_indices,
                                assignment)
    half = Fraction(1, 2)
    if label.det:
        return (plain - signed) * half
    return (plain + signed) * half


# ---------------------------------------------------------------------------
# classical one-point series (reading disambiguated by the oracle)
# ---------------------------------------------------------------------------

ONE_POINT_READINGS = ("q-step", "half-step")


def vacuum_one_point_series(trunc2: int, reading: str = "q-step",
                            table: VarTable | None = None,
                            t_index: int = 0) -> HalfSeries:
    """The classical twisted vacuum one-point series

        -P * sum_{m>=1} q^(m-1/2) (t^(m-1/2) - t^(1/2-m)) / (1 - q^(m-1/2))
            + t^(1/2)/(t-1) * P

    where the prefactor P is (q^(1/2);q)_inf under the "q-step" reading and
    (q^(1/2);q^(1/2))_inf under "half-step".  The q-step reading matches the
    twisted vacuum recursion; the other is kept so the verification suite can
    report where it fails.
    """
    if reading not in ONE_POINT_READINGS:
        raise UsageError(f"unknown reading {reading!r}")
    if table is None:
        table = VarTable.make(1)
    key = (table, t_index, trunc2, reading)
    if key in _one_point_cache:
        return _one_point_cache[key]
    if reading == "q-step":
        pref = pochhammer_inf(table, trunc2, 1)
    else:
        pref = HalfSeries.one(table, trunc2)
        e2 = 1
        while e2 <= trunc2:
            pref = pref * HalfSeries(table, trunc2, {0: 1, e2: -1})
            e2 += 1
    terms: dict[int, LaurentPoly] = {}
    m = 1
    while 2 * m - 1 <= trunc2:
        a2 = 2 * m - 1
        mono = (LaurentPoly.monomial(table, {t_index: a2})
                - LaurentPoly.monomial(table, {t_index: -a2}))
        j = 1
        while a2 * j <= trunc2:
            e = a2 * j
            terms[e] = terms.get(e, LaurentPoly.zero(table)) + mono
            j += 1
        m += 1
    series = HalfSeries(table, trunc2, terms)
    lead = RatFunc(LaurentPoly.monomial(table, {t_index: 1}),
                   LaurentPoly.monomial(table, {t_index: 2})
                   - LaurentPoly.one(table))
    out = -(pref * series) + pref.scale(lead)
    _one_point_cache[key] = out
    return out
