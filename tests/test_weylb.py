"""Hyperoctahedral combinatorics tests."""

import random
from fractions import Fraction

import pytest

from qfock.laurent import LaurentPoly, UsageError, VarTable
from qfock.ratfunc import RatFunc
from qfock.weylb import (
    BLabel,
    SignedPerm,
    act,
    char_B,
    check_partition,
    enumerate_WB,
    norm_sq,
    rho_B,
    sign_vectors,
    weyl_denominator_B,
    weyl_denominator_det,
)


class TestBasics:
    def test_rho(self):
        assert rho_B(0) == ()
        assert rho_B(1) == (Fraction(1, 2),)
        assert rho_B(2) == (Fraction(3, 2), Fraction(1, 2))

    def test_partition_validation(self):
        check_partition((3, 2, 2))
        with pytest.raises(UsageError):
            check_partition((1, 2))
        with pytest.raises(UsageError):
            check_partition((2, -1))
        with pytest.raises(UsageError):
            check_partition((1, 1, 1), l=2)
        check_partition((2, -1), allow_negative=True)

    def test_norm_sq(self):
        assert norm_sq((Fraction(2), Fraction(1))) == 5
        assert norm_sq(()) == 0
        assert norm_sq((Fraction(1, 2),)) == Fraction(1, 4)

    def test_sign_vectors(self):
        assert list(sign_vectors(0)) == [((), 1)]
        assert list(sign_vectors(1)) == [((1,), 1), ((-1,), -1)]
        prods = [p for _, p in sign_vectors(2)]
        assert sorted(prods) == [-1, -1, 1, 1]


class TestGroup:
    def test_counts_and_characters(self):
        for l in range(0, 4):
            elems = list(enumerate_WB(l))
            assert len(elems) == 2 ** l * _fact(l)
            seen = {(sp.perm, sp.signs) for sp, _ in elems}
            assert len(seen) == len(elems)
        chars = [c for _, c in enumerate_WB(2)]
        assert chars.count(1) == 4 and chars.count(-1) == 4

    def test_l1_elements(self):
        elems = {(sp.perm, sp.signs): c for sp, c in enumerate_WB(1)}
        assert elems[((0,), (1,))] == 1
        assert elems[((0,), (-1,))] == -1

    def test_identity_action(self):
        v = (Fraction(3), Fraction(1, 2))
        ident = SignedPerm((0, 1), (1, 1))
        assert act(ident, v) == v

    def test_sign_flip(self):
        flip = SignedPerm((0,), (-1,))
        assert act(flip, (Fraction(1, 2),)) == (Fraction(-1, 2),)

    def test_action_composition(self):
        rng = random.Random(11)
        elems = [sp for sp, _ in enumerate_WB(3)]
        v = (Fraction(5, 2), Fraction(-1), Fraction(1, 3))
        for _ in range(200):
            a, b = rng.choice(elems), rng.choice(elems)
            assert act(a.compose(b), v) == act(a, act(b, v))

    def test_characters_multiply(self):
        rng = random.Random(12)
        elems = [sp for sp, _ in enumerate_WB(3)]
        for _ in range(200):
            a, b = rng.choice(elems), rng.choice(elems)
            assert a.compose(b).sign_character() == \
                a.sign_character() * b.sign_character()


class TestDenominator:
    def test_rank_zero(self):
        t = VarTable.make(0, 0)
        assert weyl_denominator_B(0, t).is_one()

    def test_rank_one(self):
        t = VarTable.make(0, 1)
        z = LaurentPoly.monomial(t, {0: 1})
        zi = LaurentPoly.monomial(t, {0: -1})
        assert weyl_denominator_B(1, t) == z - zi
        assert weyl_denominator_B(1, t, variant="plus") == z + zi

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_det_equals_group_sum(self, l):
        t = VarTable.make(0, l)
        assert weyl_denominator_det(l, t, variant="minus") == \
            weyl_denominator_B(l, t, variant="minus")
        assert weyl_denominator_det(l, t, variant="plus") == \
            weyl_denominator_B(l, t, variant="plus")

    def test_antisymmetry_under_simple_reflections(self):
        # swapping adjacent z-variables negates the alternating sum, as does
        # inverting the last variable
        l = 3
        t = VarTable.make(0, l)
        d = weyl_denominator_B(l, t)
        swapped = d.rename_signed(t, [((1, 1),), ((0, 1),), ((2, 1),)])
        assert swapped == -d
        flipped = d.rename_signed(t, [((0, 1),), ((1, 1),), ((2, -1),)])
        assert flipped == -d


class TestCharacter:
    def test_empty_partition(self):
        for l in (1, 2, 3):
            t = VarTable.make(0, l)
            assert char_B((), l, t).is_one()

    def test_rank_one_values(self):
        t = VarTable.make(0, 1)
        z = LaurentPoly.monomial(t, {0: 2})
        zi = LaurentPoly.monomial(t, {0: -2})
        one = LaurentPoly.one(t)
        assert char_B((1,), 1, t) == RatFunc.from_poly(z + one + zi)
        z2 = LaurentPoly.monomial(t, {0: 4})
        z2i = LaurentPoly.monomial(t, {0: -4})
        assert char_B((2,), 1, t) == RatFunc.from_poly(z2 + z + one + zi + z2i)

    def test_exact_division_sweep(self):
        for l in (1, 2, 3):
            t = VarTable.make(0, l)
            lams = _partitions_up_to(3, l)
            for lam in lams:
                c = char_B(lam, l, t)
                assert c.is_poly()

    def test_inversion_symmetry_at_random_points(self):
        rng = random.Random(13)
        for l in (1, 2):
            t = VarTable.make(0, l)
            for lam in _partitions_up_to(2, l):
                c = char_B(lam, l, t)
                for _ in range(5):
                    pt = {i: Fraction(rng.randint(2, 9), rng.randint(1, 4))
                          for i in range(l)}
                    inv_pt = {i: 1 / v for i, v in pt.items()}
                    assert c.evaluate(pt).constant_value() == \
                        c.evaluate(inv_pt).constant_value()

    def test_blabel(self):
        lab = BLabel((2, 1), det=True)
        assert lab.partition == (2, 1) and lab.det
        with pytest.raises(UsageError):
            BLabel((1, 2))


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def _partitions_up_to(max_part, max_len):
    out = [()]
    def rec(prefix, m):
        if len(prefix) == max_len:
            return
        for p in range(1, m + 1):
            out.append(prefix + (p,))
            rec(prefix + (p,), p)
    rec((), max_part)
    return out
