"""Differential tests for the series sum and product that reduce each
coefficient once.

HalfSeries.plus and * put unreduced numerators into one bucket per
exponent and denominator factor record and reduce each bucket once.  The
reference is the pairwise product, which cross-cancelled every term pair
and added the reduced products, and the binary sum, each kept verbatim
below; an n-ary sum is their chain.  Operands have denominators that are
products of binomials with repeats, numerators that share binomials with
the other operand's denominators, coefficients whose denominator is
outside the binomial basis (no factor record), Fraction coefficients,
terms that sum to zero, and unequal truncations and floors, some negative.
Results must be equal and serialize to the same bytes.
"""

import json
from fractions import Fraction
from functools import reduce

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from qfock.cli import series_to_json  # noqa: E402
from qfock.laurent import LaurentPoly, VarTable  # noqa: E402
from qfock.ratfunc import RatFunc  # noqa: E402
from qfock.series import HalfSeries, _over_lcm  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None)
TAB = VarTable.make(2)
NUMBERS = VarTable.make(0)


# -- the reference: the pairwise product and the binary sum, verbatim ----------

def reference_add(self, other) -> HalfSeries:
    if not isinstance(other, HalfSeries):
        # a constant lies beyond a series exact only below q^0
        other = HalfSeries(self.table, max(self.trunc2, 0), {0: other})
    self._check(other)
    t2 = min(self.trunc2, other.trunc2)
    out = {e: c for e, c in self.terms.items() if e <= t2}
    for e, c in other.terms.items():
        if e > t2:
            continue
        s = out.get(e)
        s = c if s is None else s + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return HalfSeries._of(self.table, t2, out)


def reference_mul(self, other) -> HalfSeries:
    if not isinstance(other, HalfSeries):
        return self.scale(other)
    self._check(other)
    t2 = min(self.trunc2 + other.floor2(), other.trunc2 + self.floor2())
    if not len(self.table):
        # integer numerators over each factor's common denominator
        (a, da), (b, db) = _over_lcm(self.terms), _over_lcm(other.terms)
        sums: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                if e <= t2:
                    sums[e] = sums.get(e, 0) + c1 * c2
        d = da * db
        return HalfSeries._of(self.table, t2, {
            e: Fraction(c, d) if d != 1 else c
            for e, c in sums.items() if c})
    # accumulate numerators per (exponent, denominator): polynomial adds
    # are free, cross-denominator reductions happen once per bucket pair
    buckets: dict[int, dict[LaurentPoly, LaurentPoly]] = {}
    for e1, c1 in self.terms.items():
        for e2, c2 in other.terms.items():
            e = e1 + e2
            if e > t2:
                continue
            p = c1 * c2
            by_den = buckets.setdefault(e, {})
            cur = by_den.get(p.den)
            by_den[p.den] = (p.num, p.dfac) if cur is None else \
                (cur[0] + p.num, cur[1])
    out: dict[int, RatFunc] = {}
    for e, by_den in buckets.items():
        acc = None
        for den, (num, dfac) in by_den.items():
            if num.is_zero():
                continue
            # den's factors are known: the reduction only trial-divides
            rf = RatFunc(num, den, dfac=dfac)
            acc = rf if acc is None else acc + rf
        if acc:
            out[e] = acc
    return HalfSeries(self.table, t2, out, _clean=True)


def reference_plus(start: HalfSeries, parts) -> HalfSeries:
    """The chain of binary sums over parts, series or factor pairs."""
    return reduce(reference_add, (reference_mul(*p) if isinstance(p, tuple)
                                  else p for p in parts), start)


def _same(got: HalfSeries, want: HalfSeries) -> None:
    assert got == want
    assert json.dumps(series_to_json(got)) == json.dumps(series_to_json(want))


# -- operands --------------------------------------------------------------------

def _poly(terms) -> LaurentPoly:
    return LaurentPoly(TAB, terms)


# binomials in t0, t1 (doubled exponents), and factors outside the basis
BINOMIALS = (
    {(2, 0): 1, (0, 0): -1},    # t0 - 1
    {(2, 0): 1, (0, 0): 1},     # t0 + 1
    {(0, 2): 1, (0, 0): -1},    # t1 - 1
    {(2, 2): 1, (0, 0): -1},    # t0 t1 - 1
    {(2, 0): 1, (0, 2): -1},    # t0 - t1
    {(1, 1): 1, (0, 0): 1},     # (t0 t1)^(1/2) + 1
)
NON_BINOMIAL = (
    {(2, 0): 1, (0, 0): 2},             # t0 + 2
    {(2, 0): 1, (0, 2): 1, (0, 0): 1},  # t0 + t1 + 1
)


@st.composite
def products_of(draw, pool, extra=()):
    """Up to three binomials of the pool (repeats allowed), an optional
    factor from extra, a scale and a Laurent monomial."""
    out = _poly({(0, 0): 1})
    for f in draw(st.lists(st.sampled_from(pool), max_size=3)):
        out = out * _poly(f)
    if extra and draw(st.booleans()):
        out = out * _poly(draw(st.sampled_from(extra)))
    shift = tuple(draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2)))
    scale = draw(st.sampled_from((1, -1, 3, Fraction(-3, 2))))
    return out * _poly({shift: scale})


cofactors = st.dictionaries(
    st.tuples(st.integers(-1, 2), st.integers(-1, 2)),
    st.sampled_from((1, -2, 3, Fraction(1, 2))), min_size=1,
    max_size=2).map(_poly)


@st.composite
def coefficients(draw, pool, mixed):
    """A reduced num/den: the numerator a small cofactor times binomials of
    the pool, the denominator binomials of the pool (and, mixed, maybe a
    factor outside the basis)."""
    num = draw(products_of(pool)) * draw(cofactors)
    return RatFunc(num, draw(products_of(pool, NON_BINOMIAL if mixed else ())))


@st.composite
def cancelling_pairs(draw):
    """n/d and (b*m - n)/d, b a binomial of d: their sum b*m/d cancels b
    whenever both keep the denominator d."""
    pool = draw(st.lists(st.sampled_from(BINOMIALS), min_size=1, max_size=3))
    b = _poly(draw(st.sampled_from(pool)))
    den = draw(products_of(pool)) * b
    n, m = draw(cofactors), draw(cofactors)
    return RatFunc(n, den), RatFunc(b * m - n, den)


@st.composite
def series(draw, pool, mixed, table=TAB):
    """Up to three terms from a floor in [-2, 2], exact to a truncation at
    most four halves above it; numbers over the table without variables."""
    floor = draw(st.integers(-2, 2))
    trunc2 = floor + draw(st.integers(0, 4))
    exps = draw(st.lists(st.integers(floor, trunc2), max_size=3, unique=True))
    if table is NUMBERS:
        values = st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-3, 4)))
    else:
        values = coefficients(pool, mixed)
    return HalfSeries(table, trunc2, {e: draw(values) for e in exps})


@st.composite
def operands(draw, count, mixed=False, table=TAB):
    """count series over one pool of binomials."""
    pool = draw(st.lists(st.sampled_from(BINOMIALS), min_size=1, max_size=3))
    return [draw(series(pool, mixed, table)) for _ in range(count)]


# -- the differential tests ------------------------------------------------------

@SETTINGS
@given(operands(2))
def test_product(xy):
    x, y = xy
    _same(x * y, reference_mul(x, y))
    _same(y * x, reference_mul(y, x))


@SETTINGS
@given(operands(2, mixed=True))
def test_product_with_denominators_outside_the_basis(xy):
    x, y = xy
    _same(x * y, reference_mul(x, y))


@SETTINGS
@given(operands(4), st.booleans())
def test_sum(parts, cancel):
    # with cancel, the last part is minus the first: their terms sum to 0
    if cancel:
        parts.append(-parts[0])
    start, rest = parts[0], parts[1:]
    _same(start.plus(rest), reference_plus(start, rest))
    _same(start + rest[0], reference_add(start, rest[0]))


@SETTINGS
@given(operands(5, mixed=True), st.booleans())
def test_sum_of_products(parts, cancel):
    start, (a, b, c, d) = parts[0], parts[1:]
    pairs = [(a, b), c, (c, d)] + ([(-a, b)] if cancel else [])
    _same(start.plus(pairs), reference_plus(start, pairs))


@SETTINGS
@given(operands(4, table=NUMBERS))
def test_numbers(parts):
    start, a, b, c = parts
    _same(a * b, reference_mul(a, b))
    pairs = [a, (b, c), (a, c)]
    _same(start.plus(pairs), reference_plus(start, pairs))


@SETTINGS
@given(cancelling_pairs())
def test_a_bucket_that_cancels(xy):
    # the two coefficients share a bucket of the sum, and of the product
    # by 1 + q^(1/2), whose one reduction cancels b
    x, y = xy
    a, b = HalfSeries(TAB, 2, {0: x}), HalfSeries(TAB, 3, {0: y})
    _same(a.plus([b]), reference_add(a, b))
    a, b = HalfSeries(TAB, 2, {0: x, -1: y}), HalfSeries(TAB, 3, {0: 1, 1: 1})
    _same(a * b, reference_mul(a, b))

