"""Differential tests for the factor-carrying RatFunc.  Operands have
denominators that are products of binomials x^p - c*x^q (p, q disjoint 0/1
exponent vectors, c = +-1) with repeats, Laurent shifts and scales, some of
them times a factor outside that basis, and numerators that share binomials
with the other operand's denominator.  The results of + - * / inverse and
tddt must equal the canonical form that the PRS GCD alone gives, sympy must
find them reduced and equal to the unreduced quotient, and every factor
record must multiply out to its denominator."""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import distribute, prs_gcd, subst  # noqa: E402
from tuple_kernel import _d_divexact, _d_mul  # noqa: E402
from qfock import special  # noqa: E402

from qfock.laurent import (  # noqa: E402
    LaurentPoly,
    VarTable,
    _d_strip_monomial,
    _pack,
)
from qfock.ratfunc import (  # noqa: E402
    RatFunc,
    _expand,
    _split,
)
from qfock.series import HalfSeries  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None)
WIDTH = 3
TAB = VarTable.make(WIDTH)
GENS = sympy.symbols(f"u0:{WIDTH}")
ONE = {(0,) * WIDTH: 1}

NON_BINOMIAL = (
    {(1, 0, 0): 1, (0, 0, 0): 2},                 # u0 + 2: c is not +-1
    {(2, 0, 0): 1, (1, 0, 0): 1, (0, 0, 0): 1},   # u0^2 + u0 + 1
    {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): 1},   # u0 + u1 + 1
)


@st.composite
def binomials(draw):
    """{x^p: 1, x^q: -c} with each variable in p, in q, or absent."""
    roles = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=WIDTH,
                          max_size=WIDTH).filter(any))
    p = tuple(int(r == 1) for r in roles)
    q = tuple(int(r == 2) for r in roles)
    return {p: 1, q: -draw(st.sampled_from((1, -1)))}


def _fold(factors):
    out = dict(ONE)
    for f in factors:
        out = _d_mul(out, f)
    return out


@st.composite
def polys(draw, pool, extra):
    """Up to three binomials of the pool (repeats allowed), an optional
    factor from extra, a scale and a Laurent monomial."""
    factors = draw(st.lists(st.sampled_from(pool), max_size=3))
    if extra and draw(st.booleans()):
        factors.append(draw(st.sampled_from(extra)))
    shift = tuple(draw(st.lists(st.integers(-2, 2), min_size=WIDTH,
                                max_size=WIDTH)))
    scale = draw(st.sampled_from((1, -1, 3, Fraction(-3, 2))))
    return LaurentPoly(TAB, _d_mul(_fold(factors), {shift: scale}))


@st.composite
def numerators(draw, pool):
    """A random cofactor times binomials of the pool."""
    cof = draw(st.dictionaries(
        st.tuples(*(st.integers(-1, 2) for _ in range(WIDTH))),
        st.integers(-4, 4).filter(bool), min_size=1, max_size=3))
    return draw(polys(pool, ())) * LaurentPoly(TAB, cof)


@st.composite
def operand_pairs(draw, mixed):
    """Two (num, den) pairs over one pool of binomials; with mixed, each
    denominator may also carry a factor outside the basis."""
    pool = draw(st.lists(binomials(), min_size=1, max_size=3))
    extra = NON_BINOMIAL if mixed else ()
    return tuple((draw(numerators(pool)), draw(polys(pool, extra)))
                 for _ in range(2))


def _normalizing_scale(p: LaurentPoly) -> Fraction:
    """The rational c > 0 (up to sign) making p's coefficients integer and
    coprime with positive lex-leading coefficient."""
    coeffs = list(p.terms.values())
    den_lcm = 1
    for c in coeffs:
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    num_gcd = 0
    for c in coeffs:
        num_gcd = gcd(num_gcd, c.numerator * (den_lcm // c.denominator))
    scale = Fraction(den_lcm, num_gcd)
    _, lead = p.items()[-1]
    if lead * scale < 0:
        scale = -scale
    return scale


def _prs_canonical(num: LaurentPoly, den: LaurentPoly) -> RatFunc:
    """num/den in canonical form through the PRS gcd alone."""
    if num.is_zero():
        return RatFunc.zero(TAB)
    dn, sn = _d_strip_monomial(dict(num.items()))
    dd, sd = _d_strip_monomial(dict(den.items()))
    g = prs_gcd(dn, dd)
    den_p = LaurentPoly(TAB, _d_divexact(dd, g))
    scale = _normalizing_scale(den_p)
    shift = tuple(a - b for a, b in zip(sn, sd))
    num_p = (LaurentPoly(TAB, _d_divexact(dn, g)) * scale).shift(shift)
    return RatFunc(num_p, den_p * scale, _canonical=True, dfac=None)


def _to_sympy(p: LaurentPoly):
    """(sympy Poly, shift) with p = Poly * x^shift and Poly free of
    monomial content."""
    d, shift = _d_strip_monomial(dict(p.items()))
    poly = sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator) for e, c in d.items()},
        *GENS, domain="QQ")
    return poly, shift


def _check_record(r: RatFunc) -> None:
    """dfac multiplies out to den, and is None only when den does not
    split."""
    if r.dfac is None:
        assert _split(r.den.terms, len(r.table)) is None
    else:
        assert _expand(r.table, r.dfac) == r.den
        assert r.dfac == _split(r.den.terms, len(r.table))


def _check(result: RatFunc, num: LaurentPoly, den: LaurentPoly) -> None:
    """result == num/den, canonically and by sympy."""
    _check_record(result)
    want = _prs_canonical(num, den)
    assert (result.num, result.den) == (want.num, want.den)
    # sympy: the result is in lowest terms, and rn * d == n * rd (products
    # of content-free polynomials are content-free, so shifts add up)
    (rn, srn), (rd, srd) = _to_sympy(result.num), _to_sympy(result.den)
    (n, sn), (d, sd) = _to_sympy(num), _to_sympy(den)
    assert sympy.gcd(rn, rd).is_ground
    assert rn * d == n * rd
    assert [a + b for a, b in zip(srn, sd)] == [a + b for a, b in zip(sn, srd)]


def _reduced(pair) -> RatFunc:
    """The RatFunc of a raw (num, den) pair, checked like any result."""
    r = RatFunc(*pair)
    _check(r, *pair)
    return r


def _binary_ops(a: RatFunc, b: RatFunc) -> None:
    na, da, nb, db = a.num, a.den, b.num, b.den
    _check(a + b, na * db + nb * da, da * db)
    _check(a - b, na * db - nb * da, da * db)
    _check(a * b, na * nb, da * db)
    if not b.is_zero():
        _check(a / b, na * db, da * nb)
    # den(a + b) holds b's factors, so taking b off again must cancel them
    _check((a + b) - b, na, da)


def _unary_ops(a: RatFunc) -> None:
    _check(a.inverse(), a.den, a.num)
    for var in range(WIDTH):
        na, da = a.num, a.den
        _check(a.tddt(var), na.tddt(var) * da - na * da.tddt(var), da * da)


@SETTINGS
@given(operand_pairs(mixed=False))
def test_binomial_denominators(pair):
    a, b = map(_reduced, pair)
    assert a.dfac is not None and b.dfac is not None
    _binary_ops(a, b)
    _binary_ops(a, a)
    _unary_ops(a)


@SETTINGS
@given(operand_pairs(mixed=True))
def test_mixed_with_denominators_outside_the_basis(pair):
    a, b = map(_reduced, pair)
    _binary_ops(a, b)
    _binary_ops(b, a)
    _unary_ops(a)


def test_non_splitting_denominator_has_no_record():
    b = {(1, 1, 0): 1, (0, 0, 0): -1}
    den = LaurentPoly(TAB, _fold([b, NON_BINOMIAL[1]]))
    r = RatFunc(LaurentPoly.one(TAB), den)
    assert r.dfac is None
    # cancelling the outside factor leaves a denominator that splits
    s = r * RatFunc(LaurentPoly(TAB, NON_BINOMIAL[1]))
    assert s.dfac == (((_pack((1, 1, 0)), _pack((0, 0, 0)), 1), 1),)
    _check_record(s)


@SETTINGS
@given(st.lists(binomials(), min_size=1, max_size=3),
       st.lists(st.integers(-2, 2), min_size=WIDTH, max_size=WIDTH),
       st.lists(st.dictionaries(
           st.tuples(*(st.integers(-1, 1) for _ in range(WIDTH))),
           st.integers(-3, 3).filter(bool), max_size=2),
           min_size=2, max_size=3))
def test_series_inverse_over_a_split_lead(factors, shift, rest):
    # the lowest coefficient splits into binomials, so the inverse cancels
    # every coefficient by trial division against its factors
    lead = LaurentPoly(TAB, _fold(factors)).shift(tuple(shift))
    terms = {0: lead}
    terms.update((2 * (i + 1), LaurentPoly(TAB, c))
                 for i, c in enumerate(rest))
    s = HalfSeries(TAB, 6, terms)
    inv = s.inverse()
    for c in inv.terms.values():
        _check_record(c)
    prod = s * inv
    assert prod.coeff(0).is_one()
    assert all(prod.coeff(e2).is_zero() for e2 in range(1, prod.trunc2 + 1))
    for c in prod.terms.values():
        _check_record(c)


@SETTINGS
@given(operand_pairs(mixed=False), st.sampled_from(NON_BINOMIAL),
       st.integers(-1, 1), st.integers(1, 2))
def test_series_inverse_with_rational_coefficients(pair, extra, floor2, gap):
    # binomial denominators, and at the top order one that also has a
    # factor outside the basis: s * s^-1 is 1 through its truncation
    (n0, d0), (n1, d1) = pair
    top = RatFunc(LaurentPoly.one(TAB), d1 * LaurentPoly(TAB, extra))
    s = HalfSeries(TAB, floor2 + 3, {floor2: RatFunc(n0, d0),
                                     floor2 + gap: RatFunc(n1, d1),
                                     floor2 + 3: top})
    inv = s.inverse()
    for c in inv.terms.values():
        _check_record(c)
    prod = s * inv
    assert prod.trunc2 == 3
    assert prod.coeff(0).is_one()
    assert all(prod.coeff(e2).is_zero() for e2 in range(1, prod.trunc2 + 1))


@SETTINGS
@given(operand_pairs(mixed=True), st.permutations(range(WIDTH + 1)),
       st.lists(st.sampled_from((1, -1)), min_size=WIDTH, max_size=WIDTH),
       st.booleans())
def test_rename_signed_against_full_reduction(pair, perm, signs, collide):
    # injective renamings (into a wider table) map the factor record;
    # a renaming that sends two variables to one reduces again
    a = _reduced(pair[0])
    wide = VarTable.make(WIDTH + 1)
    targets = list(perm[:WIDTH])
    if collide:
        targets[1] = targets[0]
    mapping = [((t, s),) for t, s in zip(targets, signs)]
    num, den = (p.rename_signed(wide, mapping) for p in (a.num, a.den))
    hypothesis.assume(not den.is_zero())  # u0/u1 - 1 can collapse to 0
    r = a.rename_signed(wide, mapping)
    want = RatFunc(num, den)
    assert (r.num, r.den) == (want.num, want.den)
    _check_record(r)


WIDE = VarTable.make(WIDTH + 1)
# the source and target variables side by side, where subst can map them
BOTH = VarTable(TAB.names + tuple("y" + nm for nm in WIDE.names),
                TAB.kinds + WIDE.kinds)
SIGNED = st.tuples(st.integers(0, WIDTH), st.sampled_from((1, -1)))


@st.composite
def monomial_maps(draw):
    """Images in WIDE of the TAB variables, each a product of signed
    variables: a renaming (each variable to its own signed variable), a
    renaming with a second factor on some images, or up to two factors each
    (so also empty images)."""
    kind = draw(st.sampled_from(("renaming", "products", "any")))
    if kind == "any":
        return [tuple(draw(st.lists(SIGNED, max_size=2,
                                    unique_by=lambda x: x[0])))
                for _ in range(WIDTH)]
    targets = draw(st.permutations(range(WIDTH + 1)))[:WIDTH]
    images = [((t, draw(st.sampled_from((1, -1)))),) for t in targets]
    if kind == "products":
        for j in draw(st.sets(st.integers(0, WIDTH - 1), min_size=1)):
            extra = draw(SIGNED.filter(lambda x: x[0] != targets[j]))
            images[j] += (extra,)
    return images


def _mapped(p: LaurentPoly, mapping) -> LaurentPoly:
    """p under the monomial map, by one subst per source variable."""
    q = LaurentPoly(BOTH, {e + (0,) * len(WIDE): c for e, c in p.items()})
    for j, image in enumerate(mapping):
        q = subst(q, j, [(WIDTH + t, s) for t, s in image])
    return LaurentPoly(WIDE, {e[WIDTH:]: c for e, c in q.items()})


@SETTINGS
@given(operand_pairs(mixed=True), monomial_maps())
def test_rename_signed_against_subst(pair, mapping):
    # every level against subst: polynomials exactly, a rational function
    # as the reduced quotient of the mapped num and den (ZeroDivisionError
    # when den maps to 0), a series coefficient by coefficient
    a = _reduced(pair[0])
    s = HalfSeries(TAB, 3, {1: a, 3: a * a})
    num, den = _mapped(a.num, mapping), _mapped(a.den, mapping)
    assert a.num.rename_signed(WIDE, mapping) == num
    assert a.den.rename_signed(WIDE, mapping) == den
    if den.is_zero():
        for x in (a, s):
            with pytest.raises(ZeroDivisionError):
                x.rename_signed(WIDE, mapping)
        return
    r = a.rename_signed(WIDE, mapping)
    want = RatFunc(num, den)
    assert (r.num, r.den) == (want.num, want.den)
    _check_record(r)
    want_terms = {}
    for e2, c in s.terms.items():
        c = RatFunc(_mapped(c.num, mapping), _mapped(c.den, mapping))
        if c:
            want_terms[e2] = c
    got = s.rename_signed(WIDE, mapping)
    assert (got.table, got.trunc2, got.terms) == (WIDE, 3, want_terms)


@SETTINGS
@given(st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=4),
       st.lists(SIGNED, max_size=WIDTH, unique_by=lambda x: x[0]))
def test_rename_signed_of_one_variable_against_distribute(terms, arg):
    # the scratch variable of theta_deriv to a monomial: empty, single
    # (either sign) and product images
    p = LaurentPoly(special._SCRATCH, {(e,): c for e, c in terms.items()})
    assert p.rename_signed(WIDE, [tuple(arg)]) == distribute(p, WIDE, arg)
