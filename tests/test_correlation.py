"""Correlation-engine tests: closed forms, vacuum recursion, block functions."""

import json
import sys
from fractions import Fraction

import pytest

from conftest import CACHES, clear_caches
from qfock import correlation, fock, laurent, ratfunc
from qfock.cli import series_to_json
from qfock.laurent import (EvaluationPointError, LaurentPoly, UsageError,
                           VarTable, _unpack)
from qfock.ratfunc import RatFunc
from qfock.series import HalfSeries
from qfock.qdim import q_minus, q_plus, qdim_irreducible
from qfock.special import f_bo, pochhammer_inf, qq_inf, theta, theta_deriv
from qfock.verify import random_point, suite_main_theorem, suite_passed
from qfock.weylb import BLabel
from qfock.correlation import (
    d_half_vacuum,
    d_sum_function,
    d_twisted_function,
    fock_trace_at_sign,
    fock_trace_closed,
    gl_function,
    irreducible_function,
    pair_block,
    vacuum_one_point_series,
)

N2 = 6


def x_inv(table, i=0):
    return RatFunc(LaurentPoly.monomial(table, {i: 1}),
                   LaurentPoly.monomial(table, {i: 2}) - LaurentPoly.one(table))


class TestGlFunction:
    def test_simplest_case(self):
        # one pair, one point, weight (m): q^(m^2/2) t^m F_bo
        tab = VarTable.make(1)
        fb = f_bo(1, N2, tab, (0,))
        for m in (0, 1, 2, -1):
            got = gl_function((m,), 1, 1, N2, tab, (0,))
            want = fb.scale(LaurentPoly.monomial(tab, {0: 2 * m})) * \
                HalfSeries.q_power(tab, N2, m * m)
            assert got.eq_upto(want), (m, got.first_mismatch(want))

    def test_weight_zero_is_the_kernel(self):
        tab = VarTable.make(1)
        got = gl_function((0,), 1, 1, N2, tab, (0,))
        assert got.eq_upto(f_bo(1, N2, tab, (0,)))

    def test_rank_two_vacuum(self):
        tab = VarTable.make(1)
        fb = f_bo(1, N2, tab, (0,))
        got = gl_function((0, 0), 2, 1, N2, tab, (0,))
        want = (fb * fb) * HalfSeries(tab, N2, {0: 1, 2: -1})
        assert got.eq_upto(want)

    def test_wrong_length_rejected(self):
        with pytest.raises(UsageError):
            gl_function((1,), 2, 1, N2)
        with pytest.raises(UsageError):
            gl_function((0, 1), 2, 1, N2)  # not weakly decreasing


class TestFockTraceClosed:
    def test_leading_coefficient(self):
        # z^0 q^0 coefficient for one point: 2/(t^(1/2)-t^(-1/2))
        tab = VarTable.make(1, 1)
        tr = fock_trace_closed(1, N2, tab, (0,), 1)
        c = tr.coeff(0)
        # z-degree 0 part only at q^0
        assert c == x_inv(tab) * 2

    def test_zero_points(self):
        tab = VarTable.make(0, 1)
        tr = fock_trace_closed(0, N2, tab, (), 0)
        qq = qq_inf(tab, N2).inverse()
        want = HalfSeries.zero(tab, N2)
        for k in (-2, -1, 0, 1, 2):
            if k * k <= N2:
                want = want + (qq * HalfSeries.q_power(tab, N2, k * k)).scale(
                    LaurentPoly.monomial(tab, {0: 2 * k}))
        assert tr.eq_upto(want)

    def test_sign_specialization_matches_twisted_k_sum(self):
        tab = VarTable.make(1)
        minus = fock_trace_at_sign(1, N2, -1, tab, (0,))
        acc = HalfSeries.zero(tab, N2)
        for k in (-2, -1, 0, 1, 2):
            blk = pair_block(tab, (0,), k, N2)
            acc = acc + (-blk if k % 2 else blk)
        assert minus.eq_upto(acc)


class TestVacuum:
    def test_bases(self):
        tab = VarTable.make(0)
        tw = d_half_vacuum(0, N2, True, tab, ())
        un = d_half_vacuum(0, N2, False, tab, ())
        assert tw.eq_upto(pochhammer_inf(tab, N2, 1))
        assert un.eq_upto(pochhammer_inf(tab, N2, 1, coeff=-1))
        # untwisted base counts partitions into distinct half-odd parts
        got = {e2: c for e2, c in un.items()}
        assert got == {0: 1, 1: 1, 3: 1, 4: 1, 5: 1, 6: 1}

    def test_one_point_leading(self):
        tab = VarTable.make(1)
        tw = d_half_vacuum(1, N2, True, tab, (0,))
        assert tw.coeff(0) == x_inv(tab)

    def test_one_point_classical_series(self):
        tab = VarTable.make(1)
        tw = d_half_vacuum(1, N2, True, tab, (0,))
        good = vacuum_one_point_series(N2, "q-step", tab, 0)
        assert tw.eq_upto(good)
        bad = vacuum_one_point_series(N2, "half-step", tab, 0)
        mm = tw.first_mismatch(bad)
        assert mm is not None and mm[0] == 2  # differs first at q^1

    def test_permutation_symmetry(self):
        tab = VarTable.make(2)
        v = d_half_vacuum(2, N2, True, tab, (0, 1))
        swapped = v.rename_signed(tab, [((1, 1),), ((0, 1),)])
        assert v.eq_upto(swapped)

    def test_three_point_subset_identity_symbolic(self):
        from itertools import combinations
        from qfock.fock import FockSpace, oracle_trace
        tab = VarTable.make(3)
        ti = (0, 1, 2)
        closed = fock_trace_at_sign(3, 4, -1, tab, ti)
        even, odd = oracle_trace(FockSpace(1, neutral=False), 4, tab, ti)
        oracle = even - odd
        assert closed.eq_upto(oracle)
        rhs = HalfSeries.zero(tab, 4)
        for r in range(4):
            for I in combinations(range(3), r):
                Ic = tuple(i for i in ti if i not in I)
                rhs = rhs + d_half_vacuum(len(I), 4, True, tab, I) * \
                    d_half_vacuum(len(Ic), 4, True, tab, Ic)
        assert oracle.eq_upto(rhs)


class TestDFunctions:
    def test_rank_zero_reduces_to_vacuum(self):
        tab = VarTable.make(1)
        for twisted, fn in ((False, d_sum_function), (True, d_twisted_function)):
            got = fn((), 0, 1, N2, "convolved", tab, (0,))
            want = d_half_vacuum(1, N2, twisted, tab, (0,))
            assert got.eq_upto(want)

    def test_printed_rank_zero_agrees(self):
        tab = VarTable.make(1)
        a = d_sum_function((), 0, 1, N2, "convolved", tab, (0,))
        b = d_sum_function((), 0, 1, N2, "printed", tab, (0,))
        assert a.eq_upto(b)

    def test_zero_points_match_graded_dimensions(self):
        from qfock.qdim import QDimForm, q_minus, q_plus
        tab = VarTable.make(0)
        for lam, l in (((), 1), ((1,), 1), ((0,), 1), ((2, 1), 2)):
            plus = d_sum_function(lam, l, 0, N2, "convolved", tab, ())
            minus = d_twisted_function(lam, l, 0, N2, "convolved", tab, ())
            lam_n = tuple(p for p in lam if p)
            assert plus.eq_upto(q_plus(lam_n, l, N2, QDimForm(), tab))
            assert minus.eq_upto(q_minus(lam_n, l, N2, QDimForm(), tab))

    def test_leading_coefficients_rank_one(self):
        # q^0: vacuum eigenvalue (2l+1)/(t^(1/2)-t^(-1/2)) for the plain sum
        tab = VarTable.make(1)
        got = d_sum_function((), 1, 1, N2, "convolved", tab, (0,))
        assert got.coeff(0) == x_inv(tab) * 3

    def test_printed_leading_differs(self):
        tab = VarTable.make(1)
        got = d_sum_function((), 1, 1, N2, "printed", tab, (0,))
        assert got.coeff(0) == x_inv(tab) * x_inv(tab) * 2

    def test_permutation_symmetry(self):
        tab = VarTable.make(2)
        for fn in (d_sum_function, d_twisted_function):
            s = fn((1,), 1, 2, 4, "convolved", tab, (0, 1))
            swapped = s.rename_signed(tab, [((1, 1),), ((0, 1),)])
            assert s.eq_upto(swapped)

    def test_irreducible_flags_sum(self):
        tab = VarTable.make(1)
        for lam, l in (((), 1), ((1,), 1)):
            plain = d_sum_function(lam, l, 1, N2, "convolved", tab, (0,))
            a = irreducible_function(BLabel(lam, False), l, 1, N2,
                                     "convolved", tab, (0,))
            b = irreducible_function(BLabel(lam, True), l, 1, N2,
                                     "convolved", tab, (0,))
            assert (a + b).eq_upto(plain)

    def test_rank_zero_irreducible_series(self):
        # even/odd counts of distinct half-odd parts
        tab = VarTable.make(0)
        even = irreducible_function(BLabel((), False), 0, 0, 9, "convolved",
                                    tab, ())
        odd = irreducible_function(BLabel((), True), 0, 0, 9, "convolved",
                                   tab, ())
        assert {e2: c for e2, c in even.items()} == \
            {0: 1, 4: 1, 6: 1, 8: 2}
        assert {e2: c for e2, c in odd.items()} == \
            {1: 1, 3: 1, 5: 1, 7: 1, 9: 2}

    def test_arity_guard(self):
        with pytest.raises(UsageError):
            d_sum_function((1, 1), 1, 1, N2)

    def test_rank_two_with_insertions_matches_oracle(self):
        # beyond the acceptance grid: three tensor slots, eight Weyl elements
        from fractions import Fraction
        from qfock.fock import FockSpace, oracle_trace, extract_module_function
        space = FockSpace(2, neutral=True)
        for n, asn in ((1, {0: Fraction(7, 4)}),
                       (2, {0: Fraction(7, 4), 1: Fraction(-3, 2)})):
            tabz = VarTable.make(n, 2).bind(asn)
            ftab = VarTable.make(n).bind(asn)
            ti = tuple(range(n))
            zi = (n, n + 1)
            even, odd = oracle_trace(space, 4, tabz, ti, z_indices=zi)
            tru, trt = even + odd, even - odd
            for lam in ((), (1, 1), (2, 1)):
                f_u = d_sum_function(lam, 2, n, 4, "convolved", ftab, ti)
                ext_u = extract_module_function(tru, lam, 2, None, "minus")
                assert f_u.eq_upto(ext_u), (n, lam, f_u.first_mismatch(ext_u))
                f_t = d_twisted_function(lam, 2, n, 4, "convolved", ftab, ti)
                ext_t = extract_module_function(trt, lam, 2, None, "plus")
                assert f_t.eq_upto(ext_t), (n, lam, f_t.first_mismatch(ext_t))


def _json_bytes(s):
    return json.dumps(series_to_json(s), sort_keys=True)


# Seeds 20, 31, 38 and 54 draw points where a product u_S^eps of the signed
# square-root values is 1 for |S| >= 2, so Theta(u_S^eps) vanishes there
# although the reduced kernel has no pole; 0, 1 and 3 draw clean points.
EVAL_SEEDS = [20, 31, 38, 54, 0, 1, 3]


class TestEvalAtRemovableSingularities:
    @pytest.mark.parametrize("seed", EVAL_SEEDS)
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("lam, l", [((), 0), ((1,), 1)])
    @pytest.mark.parametrize("fn", [d_sum_function, d_twisted_function])
    def test_d_functions_equal_evaluated_symbolic(self, fn, lam, l, n, seed):
        pt = random_point(tuple(range(n)), seed)
        want = fn(lam, l, n, 4).evaluate(pt)
        got = fn(lam, l, n, 4, table=VarTable.make(n).bind(pt))
        assert _json_bytes(got) == _json_bytes(want)

    @pytest.mark.parametrize("seed", EVAL_SEEDS)
    def test_fock_trace_equals_evaluated_symbolic(self, seed):
        pt = random_point((0, 1), seed)
        want = fock_trace_closed(2, 4).evaluate(pt)
        got = fock_trace_closed(2, 4, VarTable.make(2, 1).bind(pt))
        assert _json_bytes(got) == _json_bytes(want)

    @pytest.mark.parametrize("seed", EVAL_SEEDS)
    def test_symbolic_families_evaluate_at_a_bound_point(self, seed):
        # every function given a bound table computes at the point and
        # returns a series over table.free(): the symbolic result evaluated
        # there, byte for byte
        tab = VarTable.make(2)
        pt = random_point((0, 1), seed)
        at = tab.bind(pt)
        for fn in (lambda t: gl_function((1,), 1, 2, 4, t, (0, 1)),
                   lambda t: vacuum_one_point_series(4, "q-step", t, 1),
                   lambda t: f_bo(2, 4, t, (0, 1)),
                   lambda t: theta(t, 4, ((0, 1), (1, -1))),
                   lambda t: theta_deriv(t, 4, 2, ((0, 1), (1, -1))),
                   lambda t: pochhammer_inf(
                       t, 4, 2, LaurentPoly.monomial(t, {0: 2, 1: -1}), 3),
                   lambda t: qq_inf(t, 4),
                   lambda t: d_half_vacuum(2, 4, True, t),
                   lambda t: q_plus((1,), 2, 4, table=t),
                   lambda t: q_minus((1,), 2, 4, table=t),
                   lambda t: qdim_irreducible(BLabel((1,), True), 2, 4,
                                              table=t)):
            got = fn(at)
            assert got.table == at.free()
            assert _json_bytes(got) == _json_bytes(fn(tab).evaluate(pt))

    def test_one_point_series_at_its_pole_raises(self):
        # its t^(1/2)/(t - 1) term has a pole at t = 1
        with pytest.raises(EvaluationPointError):
            vacuum_one_point_series(4, "q-step", VarTable.make(1).bind({0: -1}))

    def test_gl_and_d_sum_over_one_bound_table_add(self):
        at = VarTable.make(1).bind({0: 3})
        s = gl_function((1,), 1, 1, 2, at, (0,)) + \
            d_sum_function((1,), 1, 1, 2, table=at)
        assert s.table == at.free()

    def test_partly_bound_table_equals_partly_evaluated_symbolic(self):
        # t1 bound, t2 free: the blocks and the function over it are the
        # symbolic ones with t1 taken at its value
        tab = VarTable.make(2)
        pt = {0: Fraction(3, 2)}
        bound = tab.bind(pt)
        got = pair_block(bound, (0, 1), 1, 4)
        assert got.table == bound.free()
        assert _json_bytes(got) == \
            _json_bytes(pair_block(tab, (0, 1), 1, 4).evaluate(pt))
        got = d_sum_function((1,), 1, 2, 4, table=bound)
        assert _json_bytes(got) == \
            _json_bytes(d_sum_function((1,), 1, 2, 4, table=tab).evaluate(pt))

    @pytest.mark.parametrize("m, trunc2", [(1, 8), (2, 8), (3, 6), (4, 6)])
    def test_kernel_denominators_are_u_plus_minus_one(self, m, trunc2):
        # every denominator of F_bo splits into factors u_j - 1 and u_j + 1,
        # which no random_point (|u_j| != 1, |1/u_j| != 1) can zero
        for _, c in f_bo(m, trunc2).items():
            assert c.dfac is not None
            for (p, q, _sign), _mult in c.dfac:
                p, q = _unpack(p, m), _unpack(q, m)
                assert sum(p) == 1 and not any(q), (p, q)


class TestCacheState:
    def test_cold_warm_and_foreign_caches_agree(self):
        def compute():
            return irreducible_function(BLabel((1,)), 1, 2, 4)

        clear_caches()
        cold = compute()
        warm = compute()
        # unrelated work that adds entries under other keys
        d_twisted_function((), 2, 1, 4)
        d_sum_function((), 0, 2, 4, table=VarTable.make(2).bind(
            {0: Fraction(2), 1: Fraction(3)}))
        vacuum_one_point_series(4)
        assert all(CACHES)
        foreign = compute()
        assert cold == warm == foreign


class TestGcdOffTheHotPath:
    def test_closed_forms_cancel_without_the_gcd(self, monkeypatch):
        # every denominator of the closed forms splits into binomials, whose
        # record each RatFunc carries, so cancellation is trial division:
        # the PRS never runs, and the GCD (966 calls here before the factor
        # record) runs at most a tenth as often
        calls = {"gcd": 0, "prs": 0}

        def counting(fn, key):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(laurent, "_d_gcd",
                            counting(laurent._d_gcd, "gcd"))
        monkeypatch.setattr(ratfunc, "_d_gcd",
                            counting(ratfunc._d_gcd, "gcd"))
        monkeypatch.setattr(laurent, "_ig_gcd_core",
                            counting(laurent._ig_gcd_core, "prs"))
        clear_caches()  # cached blocks would hide the work
        d_sum_function((1,), 1, 2, 4)
        assert calls["prs"] == 0
        assert calls["gcd"] <= 96

    def test_each_coefficient_is_reduced_once(self, monkeypatch):
        # series sums and products reduce each coefficient once, not each
        # term pair and partial sum: cold, this function made 4,500
        # divisibility tests when every pair was cross-cancelled
        calls = [0]
        inner = ratfunc._binomial_divides

        def counting(*args):
            calls[0] += 1
            return inner(*args)

        monkeypatch.setattr(ratfunc, "_binomial_divides", counting)
        clear_caches()  # cached blocks would hide the work
        d_sum_function((1,), 1, 3, 6)
        assert calls[0] <= 2500


class TestWorkDoneOnce:
    @pytest.mark.parametrize("mode, printed", [("symbolic", 1), ("eval", 0)])
    def test_two_determinants_per_suite_cell(self, monkeypatch, mode,
                                             printed):
        # the plain and the signed function once per (l, lam, n); both
        # irreducible functions derive from them (one more call in symbolic
        # mode: the printed structure, reported once)
        calls = []
        inner = correlation._d_function

        def counting(*args, **kwargs):
            calls.append(args[:3])
            return inner(*args, **kwargs)

        monkeypatch.setattr(correlation, "_d_function", counting)
        checks = suite_main_theorem(trunc2=4, mode=mode)
        assert suite_passed(checks)
        cells = set(calls)
        # the default grid: l = 0 with lam = (), l = 1 with (), (1,), (2,);
        # n = 1, 2 each
        assert len(cells) == 8
        assert len(calls) == 2 * len(cells) + printed

    def test_one_renamed_kernel_per_signed_point(self, monkeypatch):
        # pair_block renames the kernel onto one sign vector of each pair
        # {eps, -eps} of each subset once, not once per charge: at most
        # 1 + sum_{S nonempty} 2^(|S|-1) = 14 for 3 points (the kernel's own
        # renamings inside f_bo do not count)
        calls = []
        inner = HalfSeries.rename_signed

        def counting(self, *args, **kwargs):
            if sys._getframe(1).f_code is correlation.pair_block.__code__:
                calls.append(1)
            return inner(self, *args, **kwargs)

        monkeypatch.setattr(HalfSeries, "rename_signed", counting)
        clear_caches()
        d_sum_function((1,), 1, 3, 6)
        assert 0 < len(calls) <= 14

    @pytest.mark.parametrize("mode", ["symbolic", "eval"])
    def test_one_weight_per_requested_state(self, monkeypatch, mode):
        # at l = 1 and q^3 the three lams read charges 0 to 3, which hold 32
        # of the 47 states; each cell weighs those 32 once and no other
        space = fock.FockSpace(1, True)
        levels = fock.enumerate_states(space, 6)
        held = sum(fock.charges(st, space)[0] in range(4)
                   for states in levels.values() for st in states)
        assert (held, sum(map(len, levels.values()))) == (32, 47)
        calls = []
        inner = fock._diagonal_weight

        def counting(state, *args, **kwargs):
            calls.append(state)
            return inner(state, *args, **kwargs)

        monkeypatch.setattr(fock, "_diagonal_weight", counting)
        checks = suite_main_theorem(trunc2=6, mode=mode, l_values=(1,))
        assert suite_passed(checks)
        assert len(calls) == 2 * 32  # n = 1, 2
        assert len(set(calls)) == 32

    def test_one_inverse_per_subset_size(self, monkeypatch):
        # a cold f_bo(4) inverts Theta(S) once per subset size, not once per
        # subset, besides the (q;q)_inf^2 inside Theta and the final
        # (q;q)_inf: 1 + 4 + 1
        calls = []
        inner = HalfSeries.inverse

        def counting(self):
            calls.append(1)
            return inner(self)

        monkeypatch.setattr(HalfSeries, "inverse", counting)
        clear_caches()
        f_bo(4, 6)
        assert len(calls) <= 6



T2, T1Z1 = VarTable.make(2), VarTable.make(1, 1)  # t1 t2; t1 z1


class TestVariableKinds:
    """As in the oracle, a repeated, out-of-range or wrong-kind variable is
    refused with UsageError (exit 2 in the CLI), not turned into a wrong
    series or an IndexError."""

    CASES = {
        "f_bo repeated point": lambda: f_bo(2, 2, T2, (0, 0)),
        "f_bo point out of range": lambda: f_bo(1, 2, T2, (2,)),
        "theta argument out of range": lambda: theta(T2, 2, ((2, 1),)),
        "theta z-argument": lambda: theta(T1Z1, 2, ((1, 1),)),
        "theta argument repeated": lambda: theta(T2, 2, ((0, 1), (0, -1))),
        "pair_block repeated point": lambda: pair_block(T2, (0, 0), 1, 2),
        "pair_block z-point": lambda: pair_block(T1Z1, (1,), 1, 2),
        "d_half_vacuum z-point": lambda: d_half_vacuum(1, 2, True, T1Z1, (1,)),
        "gl_function z-point": lambda: gl_function((0,), 1, 1, 2, T1Z1, (1,)),
        "d_sum_function repeated point": lambda: d_sum_function(
            (), 1, 2, 2, "convolved", T2, (1, 1)),
        "one-point z-point": lambda: vacuum_one_point_series(
            2, "q-step", T1Z1, 1),
        "one-point out of range": lambda: vacuum_one_point_series(
            2, "q-step", VarTable.make(1), -1),
        "fock trace graded by a t-variable": lambda: fock_trace_closed(
            1, 2, T2, (0,), 1),
        "fock trace without a z-variable": lambda: fock_trace_closed(
            1, 2, VarTable.make(1)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_refused(self, case):
        with pytest.raises(UsageError):
            self.CASES[case]()
