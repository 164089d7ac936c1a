"""Special q-series: infinite Pochhammer products, the theta function and its
t d/dt derivatives, and the n-point correlation kernel F_bo.

Theta here is the specific product

    Theta(t) = (t^(1/2) - t^(-1/2)) (q;q)_inf^(-2) (qt;q)_inf (qt^(-1);q)_inf

and F_bo packages all n-point functions as the standard permutation sum of
determinants of theta derivatives divided by a chain of theta factors, with
the conventions 1/(-k)! = 0 for k > 0 and F_bo() = (q;q)_inf^(-1).  The sum
is computed as a recursion over the 2^n subsets of the points (see f_bo).
Theta is built once per truncation, as the zeroth of its t d/dt derivatives
in a scratch variable, and renamed onto each argument (theta_deriv).
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

from .laurent import LaurentPoly, T_KIND, UsageError, VarTable
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
    c = coeff if mono is None else mono * coeff
    out = HalfSeries.one(table, trunc2)
    e2 = alpha2
    while e2 <= trunc2:
        out = out * HalfSeries(table, trunc2, {0: 1, e2: -c})
        e2 += 2
    return out


def qq_inf(table: VarTable, trunc2: int) -> HalfSeries:
    """(q;q)_inf."""
    return pochhammer_inf(table, trunc2, 2)


def _points_of(n: int, table: VarTable | None,
               t_indices: Sequence[int] | None,
               z: int = 0) -> tuple[VarTable, tuple[int, ...]]:
    """The table (default: n t-variables and z z-variables) and the n
    distinct insertion variables (default: its first n t-variables)."""
    if table is None:
        table = VarTable.make(n, z)
    return table, table.check_vars(
        T_KIND, table.t_indices()[:n] if t_indices is None else t_indices, n)


def theta(table: VarTable, trunc2: int, arg: ThetaArg) -> HalfSeries:
    """Theta at the monomial arg, its zeroth derivative (empty arg gives the
    zero series: the prefactor renames to 1 - 1)."""
    return theta_deriv(table, trunc2, 0, arg)


# Scratch table holding the single formal argument of theta derivatives.
_SCRATCH = VarTable(("theta_arg",), (T_KIND,))
_theta_deriv_cache: dict[tuple[int, int], HalfSeries] = {}


def _theta_deriv_scratch(k: int, trunc2: int) -> HalfSeries:
    """Theta^{(k)} as a series in the single scratch variable t."""
    key = (k, trunc2)
    if key not in _theta_deriv_cache:
        if k == 0:
            # (t^(1/2) - t^(-1/2)) (q;q)_inf^-2 (qt;q)_inf (q/t;q)_inf
            def mono(e2: int) -> LaurentPoly:
                return LaurentPoly.monomial(_SCRATCH, {0: e2})
            pref = HalfSeries(_SCRATCH, trunc2, {0: mono(1) - mono(-1)})
            qq = qq_inf(_SCRATCH, trunc2)
            T = pref * (qq * qq).truncate(trunc2).inverse() \
                * pochhammer_inf(_SCRATCH, trunc2, 2, mono(2)) \
                * pochhammer_inf(_SCRATCH, trunc2, 2, mono(-2))
        else:
            T = _theta_deriv_scratch(k - 1, trunc2).tddt(0)
        _theta_deriv_cache[key] = T
    return _theta_deriv_cache[key]


def theta_deriv(table: VarTable, trunc2: int, k: int, arg: ThetaArg) -> HalfSeries:
    """(t d/dt)^k Theta, differentiated first and then evaluated at arg."""
    if k < 0:
        raise UsageError("derivative order must be nonnegative")
    if any(s not in (1, -1) for _, s in arg):
        raise UsageError("theta argument exponents must be +1 or -1")
    _points_of(len(arg), table, [i for i, _ in arg])
    return _theta_deriv_scratch(k, trunc2).rename_signed(table, [tuple(arg)])


def _det(entries: list[list], one, mul, add, neg):
    """Cofactor-expansion determinant over a commutative ring given by its
    one, product, sum and negation; None entries are zero, and the result is
    None when every term vanishes."""
    n = len(entries)
    memo: dict[tuple[int, ...], object] = {}

    def minor(cols: tuple[int, ...]):
        row = n - len(cols)
        if len(cols) == 1:
            return entries[row][cols[0]]
        if cols in memo:
            return memo[cols]
        acc = None
        for pos, j in enumerate(cols):
            e = entries[row][j]
            if e is None:
                continue
            sub = minor(cols[:pos] + cols[pos + 1:])
            if sub is None:
                continue
            term = mul(e, sub)
            if pos % 2:
                term = neg(term)
            acc = term if acc is None else add(acc, term)
        memo[cols] = acc
        return acc

    return minor(tuple(range(n))) if n else one


def f_bo(n: int, trunc2: int, table: VarTable | None = None,
         t_indices: Sequence[int] | None = None) -> HalfSeries:
    """The n-point correlation kernel in the variables t_indices, by the
    subset recursion below for every n >= 1.  At n = 1 the recursion gives
    Theta'(1)/Theta(t) (q;q)_inf^-1, the closed form 1/((q;q)_inf Theta(t))
    since Theta'(1) = 1.

    Each Theta(S) it divides by starts at q^0 with the nonzero coefficient
    u_S - 1/u_S (u_S the square root of the product over S), so every
    inverse exists.  Over a bound table the kernel is computed symbolically
    and then renamed onto the table, which takes it at the table's point,
    unlike every other function here: Theta(S) may vanish at the point
    (u_S = +-1 with no u_j = +-1, a removable singularity of the kernel), so
    computing at the point could divide by zero.  The evaluation fails only
    at a pole of a reduced coefficient.
    """
    if n < 0:
        raise UsageError("point count must be nonnegative")
    table, t_indices = _points_of(n, table, t_indices)
    if table.values:
        return f_bo(n, trunc2).rename_signed(
            table, [((i, 1),) for i in t_indices])

    if n == 0:
        return qq_inf(table, trunc2).inverse()

    @cache
    def theta_k_at(k: int, vars_: frozenset[int]) -> HalfSeries:
        """Theta^(k) at the product of a set of variables."""
        arg = tuple((i, 1) for i in sorted(vars_))
        return theta_deriv(table, trunc2, k, arg)

    # The permutation sum of Hessenberg determinants folds into a recursion
    # over the subsets S of the points (bitmasks): G(empty) = 1 and
    #   G(S) = Theta(S)^-1 sum_{T < S} (-1)^(|S-T|-1) Theta^(|S-T|)(T) G(T).
    # The subdiagonal Theta's cancel the chain denominators, and the |S-T|!
    # permutations through each link of a chain cancel the 1/|S-T|!.
    points = [frozenset(t_indices[j] for j in range(n) if m >> j & 1)
              for m in range(1 << n)]
    g = [HalfSeries.one(table, trunc2)]
    for s in range(1, 1 << n):
        products = []
        for t in (t for t in range(s) if not t & ~s):
            k = len(points[s]) - len(points[t])
            th = theta_k_at(k, points[t])
            products.append((th if k % 2 else -th, g[t]))
        acc = HalfSeries.zero(table, trunc2).plus(products)
        g.append((acc * theta_k_at(0, points[s]).inverse()).truncate(trunc2))
    return g[-1] * qq_inf(table, trunc2).inverse()

