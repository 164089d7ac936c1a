"""Differential tests for the polynomial GCD and the heap-ordered exact
division: the GCD (heuristic first) against the PRS fallback alone, and
both against sympy.  Operands are products of binomials x^p - c*x^q (p, q
disjoint 0/1 exponent vectors, c = +-1) with repeated factors, mixed signs
and monomial shifts, times random cofactors, and operands outside that
basis: random polynomials with Fraction coefficients and Laurent exponents
times a shared random factor.  Two tests force the heuristic's failure
modes: giving up (the PRS must answer) and rebuilding a non-divisor (the
certifying divisions must reject it)."""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import prs_gcd  # noqa: E402
from tuple_kernel import _d_mul  # noqa: E402
from qfock import laurent  # noqa: E402
from qfock.laurent import (  # noqa: E402
    InternalInvariantError,
    LaurentPoly,
    VarTable,
    _binomial_split,
    _d_gcd,
    _d_strip_monomial,
    _integerize,
    _packed,
    _t_divexact,
    poly_gcd,
)

SETTINGS = settings(max_examples=40, deadline=None)
WIDTH = 3
GENS = sympy.symbols(f"x0:{WIDTH}")
ONE = {(0,) * WIDTH: 1}


@st.composite
def binomials(draw):
    """{x^p: 1, x^q: -c} with each variable in p, in q, or absent."""
    roles = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=WIDTH,
                          max_size=WIDTH).filter(any))
    p = tuple(int(r == 1) for r in roles)
    q = tuple(int(r == 2) for r in roles)
    return {p: 1, q: -draw(st.sampled_from((1, -1)))}


@st.composite
def binomial_products(draw):
    """A product of up to four binomials with repeats, times a scalar and a
    monomial; returns (dict, factor list)."""
    factors = draw(st.lists(binomials(), max_size=3))
    factors += draw(st.lists(st.sampled_from(factors), max_size=1)) \
        if factors else []
    shift = tuple(draw(st.lists(st.integers(0, 2), min_size=WIDTH,
                                max_size=WIDTH)))
    scale = draw(st.sampled_from((1, -1, 2, Fraction(-3, 2))))
    return _d_mul(_fold(factors), {shift: scale}), factors


@st.composite
def cofactors(draw):
    return draw(st.dictionaries(
        st.tuples(*(st.integers(0, 2) for _ in range(WIDTH))),
        st.integers(-4, 4).filter(bool), min_size=1, max_size=3))


def _fold(factors):
    out = dict(ONE)
    for f in factors:
        out = _d_mul(out, f)
    return out


def _to_sympy(d):
    return sympy.Poly.from_dict({e: sympy.Rational(c.numerator, c.denominator)
                                 for e, c in d.items()}, *GENS, domain="QQ")


def _assert_matches_sympy(g, a, b):
    want = sympy.gcd(_to_sympy(a), _to_sympy(b))
    assert _to_sympy(g).monic() == want.monic()


@SETTINGS
@given(binomial_products(), binomial_products(), cofactors())
def test_fast_path_equals_prs_and_sympy(split, other, cof):
    # a splits into binomials, the case a binomial fast path once decided
    a, _ = split
    b = _d_mul(other[0], cof)
    g = _d_gcd(a, b)
    assert g == prs_gcd(a, b)
    _assert_matches_sympy(g, a, b)


@SETTINGS
@given(binomial_products(), cofactors(), cofactors())
def test_shared_factors_with_multiplicity(split, cof_a, cof_b):
    # both operands carry the full binomial product; the gcd must recover
    # every factor at its multiplicity (times the cofactors' common part)
    den, factors = split
    a = _d_mul(den, cof_a)
    b = _d_mul(_fold(factors), cof_b)
    g = _d_gcd(a, b)
    assert g == prs_gcd(a, b)
    _assert_matches_sympy(g, a, b)
    stripped, _ = _d_strip_monomial(_integerize(den))
    assert _binomial_split(_packed(stripped), WIDTH) is not None


NON_BINOMIAL = (
    {(1, 0, 0): 1, (0, 0, 0): 2},                 # x0 + 2: c is not +-1
    {(2, 0, 0): 1, (1, 0, 0): 1, (0, 0, 0): 1},   # x0^2 + x0 + 1
    {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): 1},   # x0 + x1 + 1
    {(1, 1, 0): 1, (0, 0, 1): -2},                # x0 x1 - 2 x2
)


@SETTINGS
@given(binomial_products(), binomial_products(),
       st.sampled_from(NON_BINOMIAL), st.sampled_from(NON_BINOMIAL))
def test_non_binomial_factor_falls_back(split_a, split_b, extra_a, extra_b):
    a = _d_mul(split_a[0], extra_a)
    b = _d_mul(split_b[0], extra_b)
    ia, _ = _d_strip_monomial(_integerize(a))
    assert _binomial_split(_packed(ia), WIDTH) is None
    g = _d_gcd(a, b)
    assert g == prs_gcd(a, b)
    _assert_matches_sympy(g, a, b)


@SETTINGS
@given(binomial_products(), cofactors())
def test_heap_division_matches_sympy(split, cof):
    den, _ = split
    num = _d_mul(den, cof)
    q, r = sympy.div(_to_sympy(num), _to_sympy(den))
    assert r.is_zero
    got = _t_divexact(*(_d_strip_monomial(x)[0] for x in (num, den)))
    shift = tuple(x - y for x, y in zip(_d_strip_monomial(num)[1],
                                        _d_strip_monomial(den)[1]))
    assert _to_sympy(_d_mul(got, {shift: 1})) == q
    # quotient terms come out in decreasing lex order
    assert list(got) == sorted(got, reverse=True)


@SETTINGS
@given(binomial_products(), cofactors())
def test_heap_division_raises_on_remainder(split, cof):
    den, _ = split
    den, _ = _d_strip_monomial(den)
    if len(den) == 1:
        return  # a monomial divides everything
    num = _d_mul(den, cof)
    num[(0,) * WIDTH] = num.get((0,) * WIDTH, 0) + 1
    _, r = sympy.div(_to_sympy(num), _to_sympy(den))
    assert not r.is_zero
    with pytest.raises(InternalInvariantError):
        _t_divexact(num, den)


def test_division_raises_on_non_exact_examples():
    with pytest.raises(InternalInvariantError):
        _t_divexact({(2,): 1, (0,): 1}, {(1,): 1, (0,): -1})
    with pytest.raises(InternalInvariantError):
        _t_divexact({(1,): 3}, {(1,): 2})  # integer coefficients stay exact
    with pytest.raises(InternalInvariantError):
        _t_divexact({(1, 0): 1}, {(0, 1): 1})
    with pytest.raises(ZeroDivisionError):
        _t_divexact({(1,): 1}, {})


def test_laurent_shifts_through_poly_gcd():
    tab = VarTable.make(3)
    b1 = {(1, 1, 0): Fraction(1), (0, 0, 0): Fraction(-1)}
    b2 = {(0, 0, 1): Fraction(1), (1, 0, 0): Fraction(1)}
    cof = {(0, 2, 0): Fraction(1, 2), (0, 0, 0): Fraction(3)}
    den = LaurentPoly(tab, _fold([b1, b1, b2])).shift((-3, 1, -2))
    num = LaurentPoly(tab, _fold([b1, cof])).shift((2, -5, 0))
    assert poly_gcd(num, den) == LaurentPoly(tab, b1)
    assert poly_gcd(den, den) == LaurentPoly(tab, _fold([b1, b1, b2]))


@SETTINGS
@given(binomial_products(), binomial_products(), cofactors(),
       st.tuples(*(st.integers(-2, 2) for _ in range(WIDTH))))
def test_poly_gcd_ignores_laurent_shifts(split, other, cof, shift):
    tab = VarTable.make(WIDTH)
    a = LaurentPoly(tab, split[0])
    b = LaurentPoly(tab, _d_mul(other[0], cof))
    assert poly_gcd(a.shift(shift), b) == poly_gcd(a, b.shift(shift)) \
        == poly_gcd(a, b)


def test_more_variables_than_the_split_bound_fall_back():
    wide = (1,) * 6  # u1...u6 - 1: 3^6 - 1 candidates, past the bound
    b = {wide: 1, (0,) * 6: -1}
    a = _d_mul(b, {(1, 0, 0, 0, 0, 0): 1, (0,) * 6: 2})
    assert _binomial_split(_packed(b), 6) is None
    assert _d_gcd(a, b) == b


@st.composite
def fraction_polys(draw, max_exp=3):
    """Criterion 1's random polynomials: up to three terms in two
    variables, exponents in [-max_exp, max_exp], coefficients n/d with
    0 < |n| <= 9 and 0 < d <= 5."""
    exps = st.integers(-max_exp, max_exp)
    return draw(st.dictionaries(
        st.tuples(exps, exps, st.just(0)),
        st.builds(Fraction, st.integers(-9, 9).filter(bool),
                  st.integers(1, 5)),
        min_size=1, max_size=3))


def _outside_pair(shared, cof_a, cof_b, extra_a, extra_b):
    """Laurent polynomials shared*cof*extra over one table, for a and b."""
    tab = VarTable.make(WIDTH)
    return tuple(LaurentPoly(tab, _fold([shared, cof, extra]))
                 for cof, extra in ((cof_a, extra_a), (cof_b, extra_b)))


# cofactors of small degree keep the PRS reference fast
OUTSIDE = (fraction_polys(), fraction_polys(1), fraction_polys(1),
           st.sampled_from(NON_BINOMIAL), st.sampled_from(NON_BINOMIAL))


@SETTINGS
@given(*OUTSIDE, st.tuples(*(st.integers(-2, 2) for _ in range(WIDTH))))
def test_gcd_outside_the_binomial_basis(shared, cof_a, cof_b, extra_a,
                                        extra_b, shift):
    a, b = _outside_pair(shared, cof_a, cof_b, extra_a, extra_b)
    g = poly_gcd(a, b)
    da, db = (_d_strip_monomial(dict(p.items()))[0] for p in (a, b))
    assert dict(g.items()) == _d_gcd(da, db) == prs_gcd(da, db)
    _assert_matches_sympy(dict(g.items()), da, db)
    assert poly_gcd(a.shift(shift), b) == poly_gcd(a, b.shift(shift)) == g


def _random_outside_pairs(n):
    """n operand pairs like test_gcd_outside_the_binomial_basis draws,
    from a fixed seed, as stripped dicts."""
    rng = random.Random(17)

    def poly(m):
        return {(rng.randint(-m, m), rng.randint(-m, m), 0):
                Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                         rng.randint(1, 5)) for _ in range(rng.randint(1, 3))}

    for _ in range(n):
        a, b = _outside_pair(poly(3), poly(1), poly(1),
                             rng.choice(NON_BINOMIAL), rng.choice(NON_BINOMIAL))
        yield tuple(_d_strip_monomial(dict(p.items()))[0] for p in (a, b))


def test_prs_answers_when_the_heuristic_gives_up(monkeypatch):
    pairs = list(_random_outside_pairs(12))
    want = [_d_gcd(a, b) for a, b in pairs]
    prs, prs_core = [], laurent._ig_prs_gcd
    monkeypatch.setattr(laurent, "_heu_gcd", lambda a, b: None)
    monkeypatch.setattr(laurent, "_ig_prs_gcd",
                        lambda *args: prs.append(args) or prs_core(*args))
    for (a, b), g in zip(pairs, want):
        assert _d_gcd(a, b) == g
        _assert_matches_sympy(g, a, b)
    assert prs  # the fallback ran


def test_a_rebuilt_non_divisor_is_rejected(monkeypatch):
    # the first rebuilt candidate is replaced by x_v^50 + 1, which divides
    # neither operand: the certifying divisions reject it, a larger xi is
    # tried, and the gcd is still right without the PRS
    rebuild = laurent._xi_adic
    retried = 0
    for a, b in _random_outside_pairs(12):
        calls = []

        def first_wrong(h, v, xi):
            calls.append(xi)
            if len(calls) > 1:
                return rebuild(h, v, xi)
            e = [0] * WIDTH
            e[v] = 50
            return {tuple(e): 1, (0,) * WIDTH: 1}

        want = _d_gcd(a, b)
        monkeypatch.setattr(laurent, "_xi_adic", first_wrong)
        monkeypatch.setattr(laurent, "_ig_prs_gcd",
                            lambda *args: pytest.fail("the PRS ran"))
        assert _d_gcd(a, b) == want
        monkeypatch.undo()
        _assert_matches_sympy(want, a, b)
        retried += len(calls) > 1
    # one pair has equal primitive parts, whose gcd needs no heuristic
    assert retried == 11
