"""Special q-series: infinite Pochhammer products, the theta function and its
t d/dt derivatives, and the n-point correlation kernel F_bo.

Theta here is the specific product

    Theta(t) = (t^(1/2) - t^(-1/2)) (q;q)_inf^(-2) (qt;q)_inf (qt^(-1);q)_inf

and F_bo packages all n-point functions as the standard permutation sum of
determinants of theta derivatives divided by a chain of theta factors, with
the conventions 1/(-k)! = 0 for k > 0 and F_bo() = (q;q)_inf^(-1), by a
subset recursion run once per subset size on integers (_f_bo_tables).  Theta
and D_k = (2 t d/dt)^k Theta are built once per truncation in a scratch
variable; theta_deriv renames 2^-k D_k onto each argument.
"""

from __future__ import annotations

from fractions import Fraction
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


# Scratch table of theta's formal argument; (k, trunc2) -> D_k over it.
_SCRATCH = VarTable(("theta_arg",), (T_KIND,))
_theta_deriv_cache: dict[tuple[int, int], HalfSeries] = {}


def _theta_d(k: int, trunc2: int) -> HalfSeries:
    """D_k = (2 t d/dt)^k Theta = 2^k Theta^(k) in the scratch variable."""
    cache = _theta_deriv_cache
    if (0, trunc2) not in cache:
        # (t^(1/2) - t^(-1/2)) (q;q)_inf^-2 (qt;q)_inf (q/t;q)_inf
        u, ui = (LaurentPoly.monomial(_SCRATCH, {0: e2}) for e2 in (1, -1))
        qq = qq_inf(_SCRATCH, trunc2)
        cache[0, trunc2] = HalfSeries(_SCRATCH, trunc2, {0: u - ui}) \
            * (qq * qq).truncate(trunc2).inverse() \
            * pochhammer_inf(_SCRATCH, trunc2, 2, u * u) \
            * pochhammer_inf(_SCRATCH, trunc2, 2, ui * ui)
    for j in range(1, k + 1):
        if (j, trunc2) not in cache:
            cache[j, trunc2] = cache[j - 1, trunc2].tddt(0) * 2
    return cache[k, trunc2]


def _theta_deriv_scratch(k: int, trunc2: int) -> HalfSeries:
    """Theta^{(k)} as a series in the single scratch variable t."""
    return _theta_d(k, trunc2) * Fraction(1, 1 << k)


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


def _f_bo_tables(n: int, trunc2: int) -> list[HalfSeries]:
    """F_bo over VarTable.make(j), for j = 0..n.  The permutation sum of
    Hessenberg determinants folds into a recursion over the subsets S of the
    points: G(empty) = 1 and
      G(S) = Theta(S)^-1 sum_{T < S} (-1)^(|S-T|-1) Theta^(|S-T|)(T) G(T).
    The subdiagonal Theta's cancel the chain denominators, and the |S-T|!
    permutations through each link of a chain cancel the 1/|S-T|!.  G(S)
    depends on S only up to a renaming, so H_j = 2^j G([j]) is built once
    per size on integers, from the D_k and the smaller H's renamed onto each
    proper subset; F_bo = 2^-j H_j (q;q)_inf^-1.  Theta(S) starts at q^0
    with u_S - 1/u_S (u_S^2 = prod_S t), so every inverse exists.
    """
    qq_inv = qq_inf(VarTable.make(0), trunc2).inverse()  # numbers
    h, out = [HalfSeries.one(VarTable.make(0), trunc2)], [qq_inv]
    for j in range(1, n + 1):
        table = VarTable.make(j)
        def d_at(k: int, mask: int) -> HalfSeries:  # D_k at prod_mask t_i
            return _theta_d(k, trunc2).rename_signed(
                table, [tuple((i, 1) for i in range(j) if mask >> i & 1)])
        links = ((t, j - t.bit_count()) for t in range((1 << j) - 1))
        h.append(HalfSeries.zero(table, trunc2).plus(
            (d_at(k, t) if k % 2 else -d_at(k, t), h[j - k].rename_signed(
                table, [((i, 1),) for i in range(j) if t >> i & 1]))
            for t, k in links) * d_at(0, (1 << j) - 1).inverse())
        out.append((h[j] * HalfSeries(table, trunc2, qq_inv.terms)).scale(
            Fraction(1, 1 << j)))
    return out


def f_bo(n: int, trunc2: int, table: VarTable | None = None,
         t_indices: Sequence[int] | None = None) -> HalfSeries:
    """The n-point correlation kernel in the variables t_indices: the one
    _f_bo_tables builds over VarTable.make(n) (at n = 1, 1/((q;q)_inf
    Theta(t))), renamed onto table.  Over a bound table the renaming takes
    it at the table's point: computing at the point could divide by zero,
    as Theta(S) may vanish there (u_S = +-1 with no u_j = +-1, a removable
    singularity).  The evaluation fails only at a pole of a reduced
    coefficient.
    """
    if n < 0:
        raise UsageError("point count must be nonnegative")
    table, t_indices = _points_of(n, table, t_indices)
    return _f_bo_tables(n, trunc2)[n].rename_signed(
        table, [((i, 1),) for i in t_indices])
