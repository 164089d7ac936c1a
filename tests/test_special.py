"""Special-series tests: Pochhammer products, theta and its derivatives, and
the n-point kernel."""

import hashlib
import json
from fractions import Fraction

import pytest

from conftest import scratch_subst
from qfock import special
from qfock.cli import series_to_json
from qfock.laurent import LaurentPoly, UsageError, VarTable
from qfock.ratfunc import RatFunc
from qfock.series import HalfSeries
from qfock.special import f_bo, pochhammer_inf, qq_inf, theta, theta_deriv

TAB = VarTable.make(2)
U = LaurentPoly.monomial(TAB, {0: 1})
UI = LaurentPoly.monomial(TAB, {0: -1})
T = LaurentPoly.monomial(TAB, {0: 2})
TI = LaurentPoly.monomial(TAB, {0: -2})
ONE = LaurentPoly.one(TAB)


def brute_pochhammer(table, trunc2, alpha2, mono, coeff, factors=40):
    """Direct finite-product expansion, independently of the truncation cut."""
    out = HalfSeries.one(table, trunc2)
    c = RatFunc.from_poly(mono * Fraction(coeff))
    for r in range(factors):
        e2 = alpha2 + 2 * r
        if e2 > trunc2:
            break
        out = out * HalfSeries(table, trunc2, {0: RatFunc.one(table), e2: -c})
    return out


class TestPochhammer:
    def test_qq_through_order_five(self):
        # (q;q)_inf = 1 - q - q^2 + q^5 + ... : multiply factors by hand
        got = qq_inf(TAB, 10)
        want = {0: 1, 2: -1, 4: -1, 10: 1}
        assert {e: c.constant_value() for e, c in got.items()} == \
            {e: Fraction(v) for e, v in want.items()}

    def test_half_exponent_argument(self):
        # (q^(1/2);q)_inf at order 3/2 -> 1 - q^(1/2) - q^(3/2)
        got = pochhammer_inf(TAB, 3, 1)
        want = {0: 1, 1: -1, 3: -1}
        assert {e: c.constant_value() for e, c in got.items()} == \
            {e: Fraction(v) for e, v in want.items()}

    def test_qt_coefficient(self):
        # (qt;q)_inf has q^1 coefficient -t
        got = pochhammer_inf(TAB, 4, 2, T)
        assert got.coeff(2) == RatFunc.from_poly(-T)

    def test_matches_direct_expansion(self):
        for trunc2 in (3, 5, 8):
            a = pochhammer_inf(TAB, trunc2, 2, T)
            b = brute_pochhammer(TAB, trunc2, 2, T, 1)
            assert a.eq_upto(b)

    def test_non_truncating_rejected(self):
        with pytest.raises(UsageError):
            pochhammer_inf(TAB, 4, 0)
        with pytest.raises(UsageError):
            pochhammer_inf(TAB, 4, -2)


class TestTheta:
    def test_q0_coefficient(self):
        th = theta(TAB, 6, ((0, 1),))
        assert th.coeff(0) == RatFunc.from_poly(U - UI)

    def test_q1_coefficient(self):
        th = theta(TAB, 6, ((0, 1),))
        want = RatFunc.from_poly((U - UI) * (LaurentPoly.const(TAB, 2) - T - TI))
        assert th.coeff(2) == want

    def test_empty_argument_vanishes(self):
        assert theta(TAB, 6, ()).is_zero()

    def test_inversion_parity_order_six(self):
        th = theta(TAB, 12, ((0, 1),))
        thi = theta(TAB, 12, ((0, -1),))
        assert thi.eq_upto(-th)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_derivative_parity(self, k):
        d = theta_deriv(TAB, 8, k, ((0, 1),))
        di = theta_deriv(TAB, 8, k, ((0, -1),))
        sign = (-1) ** (k + 1)
        assert di.eq_upto(d * Fraction(sign))

    def test_first_derivative_leading_term(self):
        d = theta_deriv(TAB, 6, 1, ((0, 1),))
        assert d.coeff(0) == RatFunc.from_poly(U + UI) * Fraction(1, 2)

    def test_even_derivatives_vanish_at_one(self):
        for k in (0, 2):
            assert theta_deriv(TAB, 8, k, ()).is_zero()
        assert not theta_deriv(TAB, 8, 1, ()).is_zero()

    def test_compound_arguments_match_the_scratch_substitution(self):
        # theta_deriv's monomial map gives the JSON of the substitution it
        # replaced, for products, sign flips and the empty argument
        tab = VarTable.make(3)
        args = (((0, 1), (1, 1)), ((0, -1), (2, 1)), ((1, -1),),
                ((0, 1), (1, -1), (2, 1)), ())
        for k in range(4):
            for arg in args:
                got = theta_deriv(tab, 6, k, arg)
                want = scratch_subst(special._theta_deriv_scratch(k, 6),
                                     tab, arg)
                assert json.dumps(series_to_json(got)) == \
                    json.dumps(series_to_json(want))

    def test_compound_argument(self):
        # substitute t -> t1 t2 in the leading coefficient
        th = theta(TAB, 4, ((0, 1), (1, 1)))
        want = LaurentPoly.monomial(TAB, {0: 1, 1: 1}) - \
            LaurentPoly.monomial(TAB, {0: -1, 1: -1})
        assert th.coeff(0) == RatFunc.from_poly(want)


class TestFbo:
    def test_zero_points(self):
        fb = f_bo(0, 8, TAB, ())
        assert fb.eq_upto(qq_inf(TAB, 8).inverse())

    def test_one_point_closed_form(self):
        fb = f_bo(1, 8, TAB, (0,))
        den = qq_inf(TAB, 8) * theta(TAB, 8, ((0, 1),))
        assert (fb * den).eq_upto(HalfSeries.one(TAB, 8))

    def test_one_point_leading_coefficient(self):
        fb = f_bo(1, 6, TAB, (0,))
        assert fb.coeff(0) == RatFunc(ONE, U - UI)

    def test_determinant_path_matches_closed_form_order_five(self):
        closed = (qq_inf(TAB, 10) * theta(TAB, 10, ((0, 1),))).inverse()
        assert json.dumps(series_to_json(f_bo(1, 10, TAB, (0,)))) == \
            json.dumps(series_to_json(closed))

    def test_two_point_symmetry_order_four(self):
        fb = f_bo(2, 8, TAB, (0, 1))
        swapped = fb.rename_signed(TAB, [((1, 1),), ((0, 1),)])
        assert fb.eq_upto(swapped)

    def test_three_point_symmetry(self):
        # n = 3 is the smallest case with vanishing factorial-reciprocal
        # entries in the determinant
        tab = VarTable.make(3)
        fb = f_bo(3, 4, tab, (0, 1, 2))
        cyc = fb.rename_signed(tab, [((1, 1),), ((2, 1),), ((0, 1),)])
        swap = fb.rename_signed(tab, [((1, 1),), ((0, 1),), ((2, 1),)])
        assert fb.eq_upto(cyc)
        assert fb.eq_upto(swap)

    # the SHA-256 of series_to_json, recorded from the per-subset recursion
    # that built G(S) for every subset S
    PINS = {
        (3, 6): "9574010c30b900430703584f4d1340c6bf62b37cd53d029db11c1466b1edd5a3",
        (4, 4): "9ac065a4bb7ec71c5e18be6d62b509452a6f3bbecccefda696945ab9152045eb",
    }

    def test_pinned_bytes(self):
        # three and four points reach the links of length k = 2, whose sign
        # (-1)^(k-1) the two-point kernel cannot see (Theta''(1) = 0)
        for (n, trunc2), digest in self.PINS.items():
            got = json.dumps(series_to_json(f_bo(n, trunc2))).encode()
            assert hashlib.sha256(got).hexdigest() == digest, (n, trunc2)

    def test_negative_points_rejected(self):
        with pytest.raises(UsageError):
            f_bo(-1, 4)
