"""The packed Laurent kernel against the tuple kernel it replaced.

Each operation of the packed kernel (tests/tuple_kernel.py keeps the tuple
one verbatim) runs on tables of width 0 to 5, with exponents both small and
within a few steps of the layout's bound H = 2^14: _d_mul, _d_add,
_binomial_divides and _d_divexact (its two-term pass too) on dicts, and
LaurentPoly.shift, rename_signed, evaluate and tddt.  Where the tuple
result keeps every exponent in [-H, H), the packed one must be the same;
where it leaves that range, the packed one must raise UsageError, never
wrap.  Key order must be lex order on the exponent tuples.
"""

import sys
from fractions import Fraction
from functools import partial

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import tuple_kernel as ref  # noqa: E402
from qfock.laurent import (  # noqa: E402
    InternalInvariantError,
    LaurentPoly,
    UsageError,
    VarTable,
    _H,
    _binomial_divides,
    _d_add,
    _d_div_binomial,
    _d_divexact,
    _d_mul,
    _layout,
    _pack,
    _packed,
    _tuples,
    poly_divexact,
)

SETTINGS = settings(max_examples=60, deadline=None)
WIDTHS = st.integers(0, 5)
# small exponents, and exponents a few steps inside either bound
EXPS = st.one_of(st.integers(-3, 3), st.integers(_H - 4, _H - 1),
                 st.integers(1 - _H, 4 - _H))
COEFFS = st.one_of(st.integers(-5, 5).filter(bool),
                   st.builds(Fraction, st.integers(-5, 5).filter(bool),
                             st.integers(2, 4)))


def dicts(w, exps=EXPS, max_size=4):
    return st.dictionaries(st.tuples(*(exps for _ in range(w))), COEFFS,
                           max_size=max_size)


def polys(w, exps=EXPS):
    return dicts(w, exps).map(lambda d: LaurentPoly(VarTable.make(w), d))


def in_range(d):
    return all(-_H <= x < _H for e in d for x in e)


def agrees(want, run):
    """run() gives want when want's exponents fit the layout, and raises
    UsageError when they do not."""
    if in_range(want):
        assert run() == want
    else:
        with pytest.raises(UsageError):
            run()


@SETTINGS
@given(WIDTHS.flatmap(lambda w: st.tuples(st.just(w), dicts(w), dicts(w))))
def test_mul_and_add(args):
    w, a, b = args
    pa, pb = _packed(a), _packed(b)
    agrees(ref._d_mul(a, b),
           lambda: _tuples(_d_mul(pa, pb, _layout(w)[0]), w))
    assert _tuples(_d_add(pa, pb), w) == ref._d_add(a, b)


@SETTINGS
@given(WIDTHS.flatmap(lambda w: st.tuples(st.just(w), dicts(w))))
def test_key_order_is_lex_order(args):
    w, a = args
    keys = list(_packed(a))
    assert [e for e, _ in LaurentPoly(VarTable.make(w), a).items()] == \
        sorted(a)
    assert _tuples(dict.fromkeys(sorted(keys)), w) == dict.fromkeys(sorted(a))


# exact division takes operands without monomial content in practice;
# exponents near H stay in the quotient, so every product fits the layout
SMALL = st.integers(0, 3)
QUOTIENT = st.one_of(st.integers(0, 3), st.integers(_H - 8, _H - 5))


@SETTINGS
@given(WIDTHS.flatmap(lambda w: st.tuples(
    st.just(w), dicts(w, SMALL, 3).filter(bool),
    dicts(w, QUOTIENT, 3).filter(bool), dicts(w, SMALL, 1))))
def test_divexact(args):
    check_divexact(*args)


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda w: st.tuples(
    st.just(w), dicts(w, SMALL, 2).filter(lambda d: len(d) == 2),
    dicts(w, QUOTIENT, 4).filter(bool), dicts(w, SMALL, 1))))
def test_divexact_by_two_terms(args):
    # the linear pass of _d_div_binomial, over Z and over Q
    check_divexact(*args)


def check_divexact(w, den, quo, extra):
    num = ref._d_mul(den, quo)
    assume(num)
    got = _d_divexact(_packed(num), _packed(den), w)
    assert _tuples(got, w) == ref._d_divexact(num, den)
    assert list(got) == sorted(got, reverse=True)
    # with a remainder both refuse, and in the same way
    num = ref._d_add(num, extra)
    assume(num)
    try:
        want = ref._d_divexact(num, den)
    except InternalInvariantError:
        with pytest.raises(InternalInvariantError):
            _d_divexact(_packed(num), _packed(den), w)
    else:
        assert _tuples(_d_divexact(_packed(num), _packed(den), w), w) == want


def lines_run(fn, code) -> int:
    """The number of line events of code while fn() runs; fn must raise
    InternalInvariantError."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    outer = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code is code else None)
    try:
        with pytest.raises(InternalInvariantError):
            fn()
    finally:
        sys.settrace(outer)
    return count


@pytest.mark.parametrize("num, den", [
    ({(1, 5): 1, (0, 0): 1}, {(0, 1): 1, (0, 0): -1}),   # x0 x1^5 + 1, x1 - 1
    ({(1, 0): 1}, {(0, 1): 1, (0, 0): -1}),              # x0, x1 - 1
    # x0^3, x0 - x1^6000: the quotient x1^12000 is above 2^14 - 1 - 6000
    ({(3, 0): 1}, {(1, 0): 1, (0, 6000): -1}),
])
def test_a_non_exact_two_term_division_stops_at_the_degree_bounds(num, den):
    # a lex-only bound would walk the chain of carries x0 x1^k, k = 4, 3,
    # ..., down toward the guard bits, about 2^14 steps
    run = partial(_d_divexact, _packed(num), _packed(den), 2)
    assert lines_run(run, _d_div_binomial.__code__) < 200
    with pytest.raises(InternalInvariantError):
        poly_divexact(LaurentPoly(VarTable.make(2), num),
                      LaurentPoly(VarTable.make(2), den))


@st.composite
def binomials(draw, w):
    """(p, q, c): p, q disjoint 0/1 vectors, p nonzero and lex above q."""
    roles = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=w,
                          max_size=w).filter(any))
    p = tuple(int(r == 1) for r in roles)
    q = tuple(int(r == 2) for r in roles)
    return (p, q) if p > q else (q, p), draw(st.sampled_from((1, -1)))


# a product with a binomial (0/1 exponents) keeps these inside the bound
INNER = st.one_of(st.integers(-3, 3), st.integers(_H - 4, _H - 2),
                  st.integers(1 - _H, 4 - _H))


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda w: st.tuples(
    binomials(w), dicts(w, INNER))))
def test_binomial_divides(args):
    ((p, q), c), g = args
    # g itself, and g times the binomial, which it then divides
    for f in (g, ref._d_mul(g, {p: 1, q: -c})):
        assert _binomial_divides(_packed(f), _pack(p), _pack(q), c) == \
            ref._binomial_divides(f, p, q, c)


@SETTINGS
@given(WIDTHS.flatmap(lambda w: st.tuples(
    polys(w), st.tuples(*(EXPS for _ in range(w))))))
def test_shift(args):
    p, exps = args
    agrees(ref.TuplePoly.of(p).shift(exps).terms,
           lambda: dict(p.shift(exps).items()))


@st.composite
def renamings(draw):
    """A polynomial over width 0..5 and images in a table of width 0..5,
    each up to two signed targets, so a target may sum several sources."""
    w, nw = draw(WIDTHS), draw(WIDTHS)
    signed = st.tuples(st.integers(0, max(nw - 1, 0)), st.sampled_from((1, -1)))
    images = [tuple(draw(st.lists(signed, max_size=2))) if nw else ()
              for _ in range(w)]
    return draw(polys(w)), VarTable.make(nw), images


@SETTINGS
@given(renamings())
def test_rename_signed(args):
    p, table, mapping = args
    agrees(ref.TuplePoly.of(p).rename_signed(table, mapping).terms,
           lambda: dict(p.rename_signed(table, mapping).items()))


VALUES = st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-3, 2)))


@SETTINGS
@given(WIDTHS.flatmap(lambda w: st.tuples(
    polys(w), st.dictionaries(st.integers(0, w - 1), VALUES)
    if w else st.just({}))))
def test_evaluate(args):
    p, point = args
    got = p.evaluate(point)
    assert got.table == p.table.without(point)
    assert dict(got.items()) == ref.TuplePoly.of(p).evaluate(point).terms


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda w: st.tuples(
    polys(w), st.integers(0, w - 1))))
def test_tddt(args):
    p, var = args
    assert dict(p.tddt(var).items()) == ref.TuplePoly.of(p).tddt(var).terms


# ---------------------------------------------------------------------------
# Overflow is refused, never wrapped
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("e", [_H, -_H, _H + 5, -_H - 5, 2 ** 40])
def test_the_constructor_refuses_an_exponent_out_of_range(e):
    tab = VarTable.make(3)
    for exps in ((e, 0, 0), (0, e, 0), (0, 0, e)):
        with pytest.raises(UsageError, match=str(_H)):
            LaurentPoly(tab, {exps: 1})
    with pytest.raises(UsageError, match=str(_H)):
        LaurentPoly.monomial(tab, {1: e})
    assert LaurentPoly(tab, {(_H - 1, 1 - _H, 0): 1}).items() == \
        [((_H - 1, 1 - _H, 0), 1)]


@pytest.mark.parametrize("exps", [(3, 0, 0), (0, -5, 0), (0, 0, 7),
                                  (5, -7, 1), (-1, 1, -1)])
def test_squaring_a_monomial_past_the_bound_raises(exps):
    tab = VarTable.make(3)
    m = LaurentPoly(tab, {exps: 1})
    want = list(exps)
    while all(-_H <= x < _H for x in want):
        assert m.items() == [(tuple(want), 1)]
        square = [2 * x for x in want]
        if all(-_H <= x < _H for x in square):
            m = m * m
        else:
            with pytest.raises(UsageError, match=str(_H)):
                m * m
            with pytest.raises(UsageError, match=str(_H)):
                # a second term keeps the product off the monomial path
                m * (m + LaurentPoly.one(tab))
        want = square


def test_shifts_and_renamings_past_the_bound_raise():
    tab = VarTable.make(2)
    p = LaurentPoly(tab, {(_H - 1, 0): 1, (0, 1 - _H): 2})
    with pytest.raises(UsageError):
        p.shift((1, 0))
    with pytest.raises(UsageError):
        p.shift((0, -2))
    # two sources onto one target, and three (which takes the checked path)
    p = p + LaurentPoly(tab, {(_H - 1, 1 - _H): 1})
    for mapping in ([((0, 1),), ((0, -1),)], [((0, 1), (0, 1)), ((0, -1),)]):
        with pytest.raises(UsageError):
            p.rename_signed(VarTable.make(1), mapping)
