"""Differential tests of the determinant forms of the closed formulas.

`f_bo` runs a recursion over the subsets of the points and `_d_function` a
determinant over the ring of set functions under subset convolution.  The
references below are the sums those forms replace: the Bloch-Okounkov sum
over permutations of Hessenberg determinants, and the sum over signed
permutations (and, convolved, over assignments of the points to slots).
Results are compared as `series_to_json` bytes, so the truncation order is
compared too.
"""

import json
from fractions import Fraction
from itertools import permutations, product as iproduct
from math import factorial

import pytest

from qfock.cli import series_to_json
from qfock.correlation import _d_function, _vacuum_on, pair_block
from qfock.laurent import EvaluationPointError, UsageError, VarTable
from qfock.series import HalfSeries
from qfock.special import f_bo, qq_inf, theta, theta_deriv
from qfock.weylb import check_partition, pad_weight, rho_B, weyl_orbit


def _invert_checked(s: HalfSeries) -> HalfSeries:
    """Invert, reporting a vanished leading coefficient as an
    evaluation-point problem rather than silently inverting a shifted series."""
    if s.is_zero() or s.floor2() != 0:
        raise EvaluationPointError(
            "leading coefficient vanished at the evaluation point")
    return s.inverse()


def _series_det(entries, table, trunc2):
    """Cofactor expansion over HalfSeries; None entries are zero."""
    n = len(entries)
    if n == 0:
        return HalfSeries.one(table, trunc2)
    acc = HalfSeries.zero(table, trunc2)
    for pos, e in enumerate(entries[0]):
        if e is None:
            continue
        rest = [row[:pos] + row[pos + 1:] for row in entries[1:]]
        term = e * _series_det(rest, table, trunc2)
        acc = acc + (term if pos % 2 == 0 else -term)
    return acc


def perm_sum_f_bo(n, trunc2, table, t_indices, assignment=None):
    """F_bo as the sum over permutations sigma of the points of
    det(Theta^(k)(sigma[:n-j]) / k!)_{ij}, k = j - i + 1, divided by the chain
    Theta(sigma[:1]) ... Theta(sigma[:n]), times (q;q)_inf^-1 (n >= 1)."""

    def ev(s):
        return s.evaluate(assignment) if assignment else s

    def arg(vars_):
        return tuple((i, 1) for i in sorted(vars_))

    out_table = table.without(assignment or ())
    total = None
    for sigma in permutations(t_indices):
        entries = []
        for i in range(1, n + 1):
            row = []
            for j in range(1, n + 1):
                k = j - i + 1
                if k < 0:
                    row.append(None)
                    continue
                th = ev(theta_deriv(table, trunc2, k, arg(sigma[:n - j])))
                row.append(th * Fraction(1, factorial(k)))
            entries.append(row)
        term = _series_det(entries, out_table, trunc2)
        for j in range(1, n + 1):
            term = term * _invert_checked(
                ev(theta(table, trunc2, arg(sigma[:j]))))
        total = term if total is None else total + term
    return total * ev(qq_inf(table, trunc2)).inverse()


def weyl_charges(lam, l):
    """Yield (character pair, integer charge vector, doubled q-norm) per
    Weyl element; charges are the components of lam + rho - sigma(rho)."""
    lamrho = tuple(a + b for a, b in zip(pad_weight(lam, l), rho_B(l)))
    for srho, full_char, perm_sign in weyl_orbit(l):
        mu = tuple(a - b for a, b in zip(lamrho, srho))
        if any(m.denominator != 1 for m in mu):
            raise UsageError("charges must be integers")
        mu_int = tuple(int(m) for m in mu)
        yield full_char, perm_sign, mu_int, sum(m * m for m in mu_int)


def weyl_sum_d_function(lam, l, n, trunc2, twisted, structure, table):
    """The level-(l+1/2) function as the sum over the signed permutations of
    B_l; convolved, each term also runs over the (l+1)^n assignments of the
    points to the l pair slots and the neutral slot."""
    lam = check_partition(lam, l)
    t_indices = table.t_indices()[:n]
    out_table = table.free()
    acc = HalfSeries.zero(out_table, trunc2)
    if structure == "printed":
        for full_char, _perm_char, mu, nrm2 in weyl_charges(lam, l):
            if nrm2 > trunc2:
                continue
            term = HalfSeries.one(out_table, trunc2)
            for ka in mu:
                term = term * pair_block(table, t_indices, ka, trunc2)
            acc = acc + (term if full_char > 0 else -term)
        return _vacuum_on(table, t_indices, trunc2, twisted) * acc
    for full_char, perm_char, mu, nrm2 in weyl_charges(lam, l):
        if nrm2 > trunc2:
            continue
        char = perm_char if twisted else full_char
        for assign in iproduct(range(l + 1), repeat=n):
            term = HalfSeries.one(out_table, trunc2)
            for a in range(1, l + 1):
                block = tuple(t_indices[j] for j in range(n) if assign[j] == a)
                term = term * pair_block(table, block, mu[a - 1], trunc2)
            neutral = tuple(t_indices[j] for j in range(n) if assign[j] == 0)
            term = term * _vacuum_on(table, neutral, trunc2, twisted)
            acc = acc + (term if char > 0 else -term)
    return acc


def _bytes(s):
    return json.dumps(series_to_json(s), sort_keys=True)


POINT = {0: Fraction(3, 2), 1: Fraction(-5, 3), 2: Fraction(7, 4),
         3: Fraction(-11, 5)}


class TestFboSubsetRecursion:
    @pytest.mark.parametrize("n, trunc2", [(1, 6), (2, 6), (3, 4), (4, 2)])
    def test_symbolic_matches_permutation_sum(self, n, trunc2):
        tab = VarTable.make(n)
        ti = tab.t_indices()
        want = perm_sum_f_bo(n, trunc2, tab, ti)
        assert _bytes(f_bo(n, trunc2, tab, ti)) == _bytes(want)

    @pytest.mark.parametrize("n, trunc2", [(1, 8), (2, 8), (3, 6), (4, 4)])
    def test_at_a_point_matches_permutation_sum(self, n, trunc2):
        tab = VarTable.make(n)
        ti = tab.t_indices()
        pt = {i: POINT[i] for i in ti}
        want = perm_sum_f_bo(n, trunc2, tab, ti, pt)
        got = f_bo(n, trunc2, tab, ti).evaluate(pt)
        assert _bytes(got) == _bytes(want)


LAMS = [(), (1,), (2,), (1, 1), (2, 1), (2, 1, 1)]
CELLS = [(lam, l) for l in range(4) for lam in LAMS if len(lam) <= l]
D_TRUNC2 = 6


class TestDFunctionDeterminant:
    @pytest.mark.parametrize("lam, l", CELLS)
    def test_symbolic_matches_weyl_sum(self, lam, l):
        for n in (0, 1, 2):
            tab = VarTable.make(n)
            for twisted in (False, True):
                for structure in ("convolved", "printed"):
                    want = weyl_sum_d_function(lam, l, n, D_TRUNC2, twisted,
                                               structure, tab)
                    got = _d_function(lam, l, n, D_TRUNC2, twisted, structure,
                                      tab, None)
                    assert _bytes(got) == _bytes(want), (n, twisted, structure)

    @pytest.mark.parametrize("lam, l", CELLS)
    def test_eval_three_points_matches_weyl_sum(self, lam, l):
        tab = VarTable.make(3).bind({i: POINT[i] for i in range(3)})
        for twisted in (False, True):
            for structure in ("convolved", "printed"):
                want = weyl_sum_d_function(lam, l, 3, D_TRUNC2, twisted,
                                           structure, tab)
                got = _d_function(lam, l, 3, D_TRUNC2, twisted, structure,
                                  tab, None)
                assert _bytes(got) == _bytes(want), (twisted, structure)
