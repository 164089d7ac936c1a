"""Hyperoctahedral combinatorics tests."""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest

from qfock.laurent import LaurentPoly, UsageError, VarTable, poly_divexact
from qfock.ratfunc import RatFunc
from qfock.weylb import (
    BLabel,
    char_B,
    char_numerator_B,
    check_partition,
    pad_weight,
    rho_B,
    sign_vectors,
    weyl_denominator_B,
    weyl_denominator_det,
    weyl_denominator_factors,
    weyl_orbit,
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

    def test_sign_vectors(self):
        assert list(sign_vectors(0)) == [((), 1)]
        assert list(sign_vectors(1)) == [((1,), 1), ((-1,), -1)]
        prods = [p for _, p in sign_vectors(2)]
        assert sorted(prods) == [-1, -1, 1, 1]


class TestGroup:
    def test_counts_and_characters(self):
        for l in range(0, 4):
            elems = list(weyl_orbit(l))
            assert len(elems) == 2 ** l * _fact(l)
            assert len({w for w, _, _ in elems}) == len(elems)
        chars = [c for _, c, _ in weyl_orbit(2)]
        assert chars.count(1) == 4 and chars.count(-1) == 4

    def test_l1_elements(self):
        half = Fraction(1, 2)
        assert list(weyl_orbit(1)) == [((half,), 1, 1), ((-half,), -1, 1)]

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_orbit_is_every_signed_permutation_of_rho(self, l):
        """Each element is read back into its signed permutation matrix,
        whose determinant is the full character and whose unsigned
        determinant is the permutation sign."""
        rho = rho_B(l)
        want = {tuple(s * rho[p] for s, p in zip(signs, perm))
                for perm in permutations(range(l))
                for signs, _ in sign_vectors(l)}
        got = list(weyl_orbit(l))
        assert {w for w, _, _ in got} == want
        for w, full, perm_sign in got:
            matrix = [[(1 if x > 0 else -1) if abs(x) == r else 0
                       for r in rho] for x in w]
            assert _det_int(matrix) == full
            assert _det_int([[abs(a) for a in row] for row in matrix]) \
                == perm_sign


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

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_every_alternant_refuses_an_unknown_variant(self, l):
        # the determinant forms once read any variant but "minus" as "plus"
        t = VarTable.make(0, l)
        for build in (lambda: weyl_denominator_B(l, t, variant="mnius"),
                      lambda: weyl_denominator_det(l, t, variant="mnius"),
                      lambda: char_numerator_B((1,) if l else (), l, t,
                                               variant="mnius")):
            with pytest.raises(UsageError, match="mnius"):
                build()

    @pytest.mark.parametrize("l", [0, 1, 2, 3, 4])
    def test_det_equals_group_sum(self, l):
        t = VarTable.make(0, l)
        minus = weyl_denominator_B(l, t, variant="minus")
        assert weyl_denominator_det(l, t, variant="minus") == minus
        assert weyl_denominator_det(l, t, variant="plus") == \
            weyl_denominator_B(l, t, variant="plus")
        # and the minus form is the product of char_B's binomial factors
        factors = weyl_denominator_factors(l, t)
        assert len(factors) == l * l
        assert all(len(f.terms) == 2 for f in factors)
        assert prod(factors, start=LaurentPoly.one(t)) == minus

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

    @pytest.mark.parametrize("l, max_part", [(1, 3), (2, 3), (3, 3), (4, 2)])
    def test_exact_division_sweep(self, l, max_part):
        # against one heap division by the whole Weyl denominator, and at
        # z = 1 against the Weyl dimension formula
        t = VarTable.make(0, l)
        den = weyl_denominator_det(l, t)
        one = {i: 1 for i in range(l)}
        for lam in _partitions_up_to(max_part, l):
            c = char_B(lam, l, t)
            assert c.den.is_one()
            assert c == RatFunc.from_poly(
                poly_divexact(char_numerator_B(lam, l, t), den))
            assert c.evaluate(one).constant_value() == _weyl_dimension(lam, l)

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


def _weyl_dimension(lam, l):
    """The product over the positive roots alpha of B_l (e_i, and e_i - e_j,
    e_i + e_j for i < j) of <lam + rho, alpha> / <rho, alpha>."""
    rho = rho_B(l)
    nu = [x + r for x, r in zip(pad_weight(lam, l), rho)]

    def pairings(v):
        return list(v) + [v[i] + s * v[j] for i, j in combinations(range(l), 2)
                          for s in (1, -1)]
    return prod(pairings(nu)) / prod(pairings(rho))


def _det_int(m):
    """Laplace expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * a * _det_int([row[:j] + row[j + 1:]
                                          for row in m[1:]])
               for j, a in enumerate(m[0]) if a)


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
