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

Both readings are one determinant (special._det).  The sign flips of a signed
permutation factor out of its character, so the Weyl sum is det[M_ab] with

    M_ab(S) = sum_{eps = +-1} c(eps) pair_block(S, (lam + rho)_a - eps rho_b),

c(eps) = eps for the full character and 1 for the permutation sign.  In the
convolved reading the entries are set functions of the points, multiplied by
subset convolution, and the function is (vacuum * det)([n]); in the printed
one they are the full-point blocks and the function is vacuum([n]) * det.

Eval mode is the same call over a bound table (VarTable.bind): every
function here computes at the table's point and returns a series over
table.free(), by the rule HalfSeries applies to any series built over a
bound table or renamed onto one.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Sequence

from .laurent import LaurentPoly, UsageError, VarTable
from .ratfunc import RatFunc
from .series import HalfSeries
from .special import _det, _f_bo_tables, _points_of, pochhammer_inf, qq_inf
from .weylb import (
    _det_sector,
    _z_vars,
    check_partition,
    BLabel,
    pad_weight,
    rho_B,
    sign_vectors,
)


# ---------------------------------------------------------------------------
# cached building blocks
# ---------------------------------------------------------------------------

_fbo_generic_cache: dict[tuple[int, int], HalfSeries] = {}
# pair_block's (table, t_indices, eps, trunc2), eps_1 = +1 -> the generic
# kernel renamed onto the signed t-variables (its values, if bound there)
_fbo_eval_cache: dict = {}
_pair_block_cache: dict = {}
_vacuum_cache: dict = {}
_one_point_cache: dict = {}


def _f_bo_generic(m: int, trunc2: int) -> HalfSeries:
    if (m, trunc2) not in _fbo_generic_cache:  # every size up to m at once
        _fbo_generic_cache.update(((j, trunc2), fb) for j, fb in enumerate(
            _f_bo_tables(m, trunc2)))
    return _fbo_generic_cache[m, trunc2]


def pair_block(table: VarTable, t_indices: Sequence[int], k: int,
               trunc2: int) -> HalfSeries:
    """q^(k^2/2) times the signed sum over componentwise inversions:

        sum_{eps in {+1,-1}^S} [eps] (prod_S t^eps)^k F_bo(q; t_S^eps)

    This is the z^k coefficient of the charge-graded one-pair trace.  As
    F_bo(1/u) = (-1)^m F_bo(u) (Theta(1/t) = -Theta(t)), the term of -eps is
    [eps] u^-k F_bo(u), u = t^eps, so the block at -k is the block at k.  The
    cached symbolic kernel is renamed onto u once per pair {eps, -eps} and
    scaled by u^k and u^-k.  Over a bound table, partly or wholly, HalfSeries
    takes these at the table's point; an evaluation fails only at a pole of
    the reduced kernel, whose denominators are products of t_j^(1/2) +- 1.
    """
    t_indices = tuple(t_indices)
    m = len(t_indices)
    k = abs(k)
    qexp2 = k * k  # doubled exponent of q^(k^2/2)
    key = (table, t_indices, k, trunc2)
    if key in _pair_block_cache:
        return _pair_block_cache[key]
    _points_of(m, table, t_indices)
    out = HalfSeries.zero(table, trunc2)
    if qexp2 <= trunc2:
        parts = []
        signs = dict(sign_vectors(m))
        for eps in [eps for eps in signs if eps[:1] != (-1,)]:  # eps_1 = +1
            ekey = (table, t_indices, eps, trunc2)
            if ekey not in _fbo_eval_cache:
                _fbo_eval_cache[ekey] = _f_bo_generic(m, trunc2).rename_signed(
                    table, [((i, e),) for i, e in zip(t_indices, eps)])
            # the term of -eps: [-eps] u^-k F_bo(1/u), none at m = 0
            pair = ((k, signs[eps]),
                    (-k, (-1) ** m * signs[tuple(-e for e in eps)]))
            for s, c in pair if m else pair[:1]:
                exps = {i: 2 * s * e for i, e in zip(t_indices, eps)}
                parts.append(_fbo_eval_cache[ekey].scale(
                    LaurentPoly.monomial(table, exps, c)))
        out = out.plus(parts) * HalfSeries.q_power(table, trunc2, qexp2)
    _pair_block_cache[key] = out
    return out


def d_half_vacuum(n: int, trunc2: int, twisted: bool,
                  table: VarTable | None = None,
                  t_indices: Sequence[int] | None = None) -> HalfSeries:
    """The level-1/2 vacuum n-point function by the subset recursion.

    Base case n=0: (q^(1/2);q)_inf twisted, (-q^(1/2);q)_inf untwisted.  For
    n >= 1 the k-sum over charge blocks carries (-1)^k in the twisted case
    and is plain in the untwisted one; proper subsets recurse.
    """
    table, t_indices = _points_of(n, table, t_indices)
    return _vacuum_on(table, t_indices, trunc2, twisted)


def _vacuum_on(table: VarTable, t_indices: tuple[int, ...], trunc2: int,
               twisted: bool) -> HalfSeries:
    key = (table, frozenset(t_indices), trunc2, twisted)
    if key in _vacuum_cache:
        return _vacuum_cache[key]
    n = len(t_indices)
    # (q^(1/2);q)_inf for the twisted trace, (-q^(1/2);q)_inf untwisted
    base = pochhammer_inf(table, trunc2, 1, coeff=1 if twisted else -1)
    if n == 0:
        _vacuum_cache[key] = base
        return base
    ksum = fock_trace_at_sign(n, trunc2, -1 if twisted else 1, table,
                              t_indices)
    # half the sum over ordered splits: the splits whose left part holds the
    # first point (odd masks)
    products = []
    for m in range(1, (1 << n) - 1, 2):
        left = tuple(t_indices[i] for i in range(n) if m >> i & 1)
        right = tuple(t_indices[i] for i in range(n) if not m >> i & 1)
        products.append((_vacuum_on(table, left, trunc2, twisted),
                         _vacuum_on(table, right, trunc2, twisted)))
    sub = HalfSeries.zero(table, trunc2).plus(products)
    out = (ksum * Fraction(1, 2) - sub) * base.inverse()
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
    table, t_indices = _points_of(n, table, t_indices)
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
            table, [((i, 1),) for i in t_indices])
        for _ in range(l):
            out = out * fb
    return out


def fock_trace_closed(n: int, trunc2: int, table: VarTable | None = None,
                      t_indices: Sequence[int] | None = None,
                      z_index: int | None = None) -> HalfSeries:
    """Charge-graded one-pair trace: sum_k z^k q^(k^2/2) (inversion blocks)."""
    table, t_indices = _points_of(n, table, t_indices, z=1)
    z_index, = _z_vars(table, 1, None if z_index is None else (z_index,))
    return HalfSeries.zero(table, trunc2).plus(
        pair_block(table, t_indices, k, trunc2).scale(
            LaurentPoly.monomial(table, {z_index: 2 * k}))
        for k in range(-isqrt(trunc2), isqrt(trunc2) + 1))


def fock_trace_at_sign(n: int, trunc2: int, sign: int,
                       table: VarTable | None = None,
                       t_indices: Sequence[int] | None = None) -> HalfSeries:
    """The charge-graded one-pair trace specialized at z = +1 or z = -1."""
    if sign not in (1, -1):
        raise UsageError("sign must be +1 or -1")
    table, t_indices = _points_of(n, table, t_indices)
    blocks = ((k, pair_block(table, t_indices, k, trunc2))
              for k in range(-isqrt(trunc2), isqrt(trunc2) + 1))
    return HalfSeries.zero(table, trunc2).plus(
        -blk if sign < 0 and k % 2 else blk for k, blk in blocks)


def _d_function(lam: Sequence[int], l: int, n: int, trunc2: int,
                twisted: bool, structure: str,
                table: VarTable | None,
                t_indices: Sequence[int] | None) -> HalfSeries:
    lam = check_partition(lam, l)
    table, t_indices = _points_of(n, table, t_indices)
    if structure not in ("convolved", "printed"):
        raise UsageError(f"unknown structure {structure!r}")
    rho = rho_B(l)
    lamrho = tuple(a + b for a, b in zip(pad_weight(lam, l), rho))
    printed = structure == "printed"
    # set functions of the points: dicts bitmask -> series, absent masks
    # zero; printed, every entry sits at the full mask
    full = (1 << n) - 1
    points = [tuple(t_indices[j] for j in range(n) if m >> j & 1)
              for m in range(full + 1)]

    zero = HalfSeries.zero(table, trunc2)

    def factors(x: HalfSeries, y: HalfSeries) -> tuple[HalfSeries, ...]:
        # factors start at q^0 or later: each needs its terms to trunc2 less
        # the other's floor; the product is exact to trunc2, () when 0 there
        fx, fy = x.floor2(), y.floor2()
        if fx + fy > trunc2:
            return ()
        return x.truncate(trunc2 - fy), y.truncate(trunc2 - fx)

    def gather(parts) -> dict:
        # per mask, one n-ary sum of the (mask, series or factors) parts
        out: dict[int, list] = {}
        for m, x in parts:
            out.setdefault(m, []).append(x)
        return {m: zero.plus(filter(None, xs)) for m, xs in out.items()}

    def conv(f: dict, g: dict) -> dict:
        return gather((m1 | m2, factors(x, y)) for m1, x in f.items()
                      for m2, y in g.items() if printed or not m1 & m2)

    def add(f: dict, g: dict) -> dict:
        return gather([*f.items(), *g.items()])

    def entry(a: int, b: int) -> dict | None:
        parts = []
        # the full mask first: its kernel build makes every smaller one too
        for m in [full] if printed else range(full, -1, -1):
            for eps in (1, -1):
                k = int(lamrho[a] - eps * rho[b])
                if k * k > trunc2:  # the block starts at q^(k^2/2)
                    continue
                blk = pair_block(table, points[m], k, trunc2)
                parts.append((m, -blk if eps < 0 and (printed or not twisted)
                              else blk))
        return gather(parts) or None

    det = _det([[entry(a, b) for b in range(l)] for a in range(l)],
               {0: HalfSeries.one(table, trunc2)}, conv, add,
               lambda f: {m: -x for m, x in f.items()}) or {}
    return zero.plus(filter(None, (
        factors(_vacuum_on(table, points[full if printed else full & ~m],
                           trunc2, twisted), x)
        for m, x in det.items())))


def d_sum_function(lam: Sequence[int], l: int, n: int, trunc2: int,
                   structure: str = "convolved",
                   table: VarTable | None = None,
                   t_indices: Sequence[int] | None = None) -> HalfSeries:
    """Trace over the direct sum of the two det-sectors (no parity sign)."""
    return _d_function(lam, l, n, trunc2, False, structure, table, t_indices)


def d_twisted_function(lam: Sequence[int], l: int, n: int, trunc2: int,
                       structure: str = "convolved",
                       table: VarTable | None = None,
                       t_indices: Sequence[int] | None = None) -> HalfSeries:
    """Parity-signed trace over the direct sum of the two det-sectors."""
    return _d_function(lam, l, n, trunc2, True, structure, table, t_indices)


def irreducible_function(label: BLabel, l: int, n: int, trunc2: int,
                         structure: str = "convolved",
                         table: VarTable | None = None,
                         t_indices: Sequence[int] | None = None) -> HalfSeries:
    """Per-irreducible n-point function: half sum (det flag off) or half
    difference (det flag on) of the plain and parity-signed functions.

    Both determinants are computed here; verify.suite_main_theorem, which
    holds them already, derives both det flags from them directly."""
    lam = check_partition(label.partition, l)
    plain = d_sum_function(lam, l, n, trunc2, structure, table, t_indices)
    signed = d_twisted_function(lam, l, n, trunc2, structure, table, t_indices)
    return _det_sector(plain, signed, label.det)


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
    table, (t_index,) = _points_of(1, table, (t_index,))
    key = (table, t_index, trunc2, reading)
    if key in _one_point_cache:
        return _one_point_cache[key]
    pref = pochhammer_inf(table, trunc2, 1)
    if reading == "half-step":
        # (q^(1/2);q^(1/2))_inf = (q^(1/2);q)_inf (q;q)_inf
        pref = pref * qq_inf(table, trunc2)
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
