"""Differential tests for the kernel built once per subset size and for
pair_block by the t -> 1/t symmetry.

special.f_bo builds one H_j = 2^j G([j]) per subset size j on integers and
renames it onto each subset; correlation.pair_block builds the block at |k|
and pairs each sign vector eps with -eps.  The references are the code they
replaced, kept verbatim below: the per-subset recursion of f_bo, which built
G(S) for every subset S from theta_deriv, and pair_block's loop over all
2^m sign vectors at every charge k, with its own caches and kernel.  Results
must serialize to the same bytes, symbolically and at bound points, among
them removable singularities of the kernel (u_S = +-1 with no u_j = +-1).
"""

import json
from fractions import Fraction
from functools import cache
from itertools import product
from typing import Sequence

import pytest

from conftest import clear_caches
from qfock import correlation, special
from qfock.cli import series_to_json
from qfock.laurent import LaurentPoly, UsageError, VarTable
from qfock.series import HalfSeries
from qfock.special import _points_of, qq_inf, theta_deriv
from qfock.weylb import sign_vectors


# -- the references, verbatim ---------------------------------------------------

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


_fbo_generic_cache: dict[tuple[int, int], HalfSeries] = {}
_fbo_eval_cache: dict = {}
_pair_block_cache: dict = {}


def _f_bo_generic(m: int, trunc2: int) -> HalfSeries:
    key = (m, trunc2)
    if key not in _fbo_generic_cache:
        _fbo_generic_cache[key] = f_bo(m, trunc2)
    return _fbo_generic_cache[key]


def pair_block(table: VarTable, t_indices: Sequence[int], k: int,
               trunc2: int) -> HalfSeries:
    """q^(k^2/2) times the signed sum over componentwise inversions:

        sum_{eps in {+1,-1}^S} [eps] (prod_S t^eps)^k F_bo(q; t_S^eps)

    This is the z^k coefficient of the charge-graded one-pair trace.  Each
    term renames the one cached symbolic kernel F_bo(q; t_1..t_m) onto the
    signed t-variables and scales it by the monomial (prod t^eps)^k.  The
    kernel at the signed points does not depend on k, so it is made once
    per sign vector and held in _fbo_eval_cache.  Over a bound table,
    partly or wholly, HalfSeries takes the renamed kernel and the monomial
    at the table's point.  An evaluation fails only at a pole of the reduced
    kernel, whose denominators are products of t_j^(1/2) +- 1 (see
    verify.random_point).
    """
    t_indices = tuple(t_indices)
    m = len(t_indices)
    qexp2 = k * k  # doubled exponent of q^(k^2/2)
    key = (table, t_indices, k, trunc2)
    if key in _pair_block_cache:
        return _pair_block_cache[key]
    _points_of(m, table, t_indices)
    out = HalfSeries.zero(table, trunc2)
    if qexp2 <= trunc2:
        generic = _f_bo_generic(m, trunc2)
        parts = []
        for eps, peps in sign_vectors(m):
            ekey = (table, t_indices, eps, trunc2)
            if ekey not in _fbo_eval_cache:
                _fbo_eval_cache[ekey] = generic.rename_signed(
                    table, [((i, e),) for i, e in zip(t_indices, eps)])
            exps = {i: 2 * k * e for i, e in zip(t_indices, eps)}
            parts.append(_fbo_eval_cache[ekey].scale(
                LaurentPoly.monomial(table, exps, peps)))
        out = out.plus(parts) * HalfSeries.q_power(table, trunc2, qexp2)
    _pair_block_cache[key] = out
    return out


# -- the comparisons ------------------------------------------------------------

@pytest.fixture(autouse=True)
def cold():
    """Every cache empty, the references' and the closed forms'."""
    for c in (_fbo_generic_cache, _fbo_eval_cache, _pair_block_cache):
        c.clear()
    clear_caches()
    yield
    clear_caches()


def _bytes(s: HalfSeries) -> str:
    return json.dumps(series_to_json(s))


# (n, trunc2): every n <= 5, several truncations
SIZES = [(0, 4), (1, 2), (1, 9), (2, 3), (2, 8), (3, 5), (3, 6), (4, 4),
         (4, 6), (5, 2), (5, 4)]


@pytest.mark.parametrize("n, trunc2", SIZES)
def test_f_bo_symbolic(n, trunc2):
    assert _bytes(special.f_bo(n, trunc2)) == _bytes(f_bo(n, trunc2))


def test_f_bo_on_other_variables():
    # points in another order, among other variables
    table = VarTable.make(4, 1)
    for ti in ((2,), (3, 0), (1, 3, 0)):
        assert _bytes(special.f_bo(len(ti), 5, table, ti)) == \
            _bytes(f_bo(len(ti), 5, table, ti))


# square-root values; each point past the first has a product of values
# equal to +-1 with no single value +-1 (Theta vanishes there, the reduced
# kernel has no pole)
POINTS = [
    (Fraction(3, 2),),
    (Fraction(2), Fraction(1, 2)),
    (Fraction(-3), Fraction(1, 3)),
    (Fraction(2), Fraction(3), Fraction(1, 6)),
    (Fraction(2), Fraction(-1, 2), Fraction(5, 3), Fraction(3, 5)),
    (Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(-1, 3),
     Fraction(7, 4)),
]


@pytest.mark.parametrize("point", POINTS, ids=lambda p: f"n={len(p)}")
def test_f_bo_at_bound_points(point):
    n = len(point)
    table = VarTable.make(n).bind(dict(enumerate(point)))
    for trunc2 in (3, 4) if n < 5 else (2,):
        assert _bytes(special.f_bo(n, trunc2, table)) == \
            _bytes(f_bo(n, trunc2, table))


def _tables(m: int):
    """(table, t_indices) over m + 1 variables, the points in reverse order:
    symbolic, wholly bound and partly bound (the last point free)."""
    table = VarTable.make(m + 1)
    ti = tuple(range(m, 0, -1))
    values = [Fraction(2), Fraction(1, 2), Fraction(-5, 3), Fraction(3, 2)]
    yield table, ti
    if m:
        point = dict(zip(ti, values))
        yield table.bind(point), ti
        yield table.bind(dict(list(point.items())[:-1]) or {0: Fraction(3)}), ti


@pytest.mark.parametrize("m, trunc2", [(0, 4), (1, 9), (2, 5), (3, 4), (4, 4)])
def test_pair_block_at_every_charge(m, trunc2):
    kmax = int(trunc2 ** 0.5)
    for (table, ti), sign in product(_tables(m), (1, -1)):
        for k in range(kmax + 2):  # one charge beyond the truncation
            assert _bytes(correlation.pair_block(table, ti, sign * k, trunc2)) \
                == _bytes(pair_block(table, ti, sign * k, trunc2)), (m, k)


def test_the_block_at_minus_k_is_a_hit():
    table = VarTable.make(2)
    blk = correlation.pair_block(table, (0, 1), 2, 4)
    assert correlation.pair_block(table, (0, 1), -2, 4) is blk


def test_repeated_points_refused():
    with pytest.raises(UsageError):
        correlation.pair_block(VarTable.make(2), (1, 1), -1, 2)
