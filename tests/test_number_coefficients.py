"""The coefficient domain of a HalfSeries is set by its table.

Over the table with no variables a coefficient is a number in the kernel's
representation (an int when integral, else a Fraction); over any other
table it is a RatFunc.  The number arithmetic is checked against the same
series carried as RatFunc constants over a one-variable table, and every
function that returns a variable-free series is checked for the domain.
Renaming onto a bound table must give the bytes of renaming onto the
unbound table and then evaluating at the point.
"""

import json
from fractions import Fraction

import pytest

from qfock.cli import series_to_json
from qfock.correlation import (
    _f_bo_generic,
    d_sum_function,
    d_twisted_function,
    fock_trace_closed,
    gl_function,
    irreducible_function,
)
from qfock.fock import FockSpace, extract_module_function
from qfock.laurent import EvaluationPointError, LaurentPoly, VarTable
from qfock.qdim import QDimForm, q_minus, q_plus, qdim_irreducible
from qfock.ratfunc import RatFunc
from qfock.series import HalfSeries
from qfock.special import f_bo, theta
from qfock.verify import random_point
from qfock.weylb import BLabel

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import plain_trace  # noqa: E402

T0 = VarTable.make(0)
T1 = VarTable.make(1)


def assert_domain(s: HalfSeries) -> None:
    """Numbers in canonical form over the table with no variables, RatFuncs
    over that table anywhere else."""
    for _, c in s.items():
        if len(s.table):
            assert isinstance(c, RatFunc) and c.table == s.table
        else:
            assert type(c) is int or (type(c) is Fraction
                                      and c.denominator != 1), repr(c)


def numbers(s: HalfSeries):
    assert s.table == T0
    assert_domain(s)
    return s.trunc2, dict(s.items())


def constants(s: HalfSeries):
    """The RatFunc-constant series mapped back to numbers."""
    assert s.table == T1
    return s.trunc2, {e: c.constant_value() for e, c in s.items()}


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def series_pairs(draw, lo=-3):
    """The same random rational series over T0 and as constants over T1."""
    trunc2 = draw(st.integers(lo, 6))
    terms = draw(st.dictionaries(st.integers(lo, trunc2), rationals,
                                 max_size=5))
    return HalfSeries(T0, trunc2, terms), HalfSeries(T1, trunc2, terms)


@settings(max_examples=150, deadline=None)
@given(series_pairs(), series_pairs(), rationals)
def test_number_arithmetic_matches_ratfunc_constants(a, b, c):
    (a0, a1), (b0, b1) = a, b
    assert numbers(a0) == constants(a1)
    for got, want in ((a0 * b0, a1 * b1), (a0 + b0, a1 + b1),
                      (a0 - b0, a1 - b1), (-a0, -a1),
                      (a0 + c, a1 + c), (a0 - c, a1 - c), (c - a0, c - a1),
                      (a0.scale(c), a1.scale(c))):
        assert numbers(got) == constants(want)
    for t2 in range(a0.trunc2 - 3, a0.trunc2 + 1):
        assert numbers(a0.truncate(t2)) == constants(a1.truncate(t2))
    if not a0.is_zero():
        assert numbers(a0.inverse()) == constants(a1.inverse())
    m0, m1 = a0.first_mismatch(b0), a1.first_mismatch(b1)
    assert (m0 is None) == (m1 is None)
    if m0 is not None:
        assert m0 == (m1[0], m1[1].constant_value(), m1[2].constant_value())
        assert_domain(HalfSeries(T0, m0[0], {m0[0]: m0[1]}))
    assert a0.coeff(a0.trunc2) == a1.coeff(a1.trunc2).constant_value()


@pytest.mark.parametrize("table", [T0, T1], ids=["numbers", "ratfuncs"])
def test_a_constant_beyond_the_truncation_leaves_the_series(table):
    # 1/q is exact only through q^(-1), so q^0 lies beyond its truncation
    s = HalfSeries(table, 2, {2: 1}).inverse()
    assert s.trunc2 == -2 and s.floor2() == -2
    assert s + 1 == s
    assert s - 1 == s
    assert 1 - s == -s
    assert s + Fraction(1, 2) == s


def _bound(n: int, z: int = 0, seed: int = 3) -> VarTable:
    return VarTable.make(n, z).bind(random_point(tuple(range(n)), seed))


TI = (0, 1)

# eval mode at seed 3's point, and the q-dimensions
VARIABLE_FREE = {
    "d_sum_function": lambda: d_sum_function(
        (1,), 1, 2, 6, "convolved", _bound(2), TI),
    "d_twisted_function": lambda: d_twisted_function(
        (1,), 1, 2, 6, "convolved", _bound(2), TI),
    "irreducible_function": lambda: irreducible_function(
        BLabel((1,), True), 1, 2, 6, "convolved", _bound(2), TI),
    "gl_function": lambda: gl_function((1,), 1, 2, 6, _bound(2), TI),
    "f_bo": lambda: f_bo(2, 6, _bound(2), TI),
    "theta": lambda: theta(_bound(1), 6, ((0, 1),)),
    "oracle_trace": lambda: plain_trace(FockSpace(0), 6, _bound(2), TI),
    "oracle_trace without insertions": lambda: plain_trace(
        FockSpace(0), 6, T0),
    "extract_module_function": lambda: extract_module_function(
        plain_trace(FockSpace(1), 6, _bound(2, 1), TI, z_indices=(2,)),
        (1,), 1),
    "q_plus": lambda: q_plus((1,), 2, 8),
    "q_minus": lambda: q_minus((1,), 2, 8, QDimForm("product", "as-printed")),
    "qdim_irreducible": lambda: qdim_irreducible(BLabel((1,), True), 2, 8),
}


@pytest.mark.parametrize("name", VARIABLE_FREE)
def test_variable_free_series_hold_canonical_numbers(name):
    series = VARIABLE_FREE[name]()
    assert series.table == T0 and not series.is_zero()
    assert_domain(series)


def test_a_series_with_variables_left_holds_ratfuncs():
    s = fock_trace_closed(2, 6, _bound(2, 1), (0, 1), 2)
    assert len(s.table) == 1 and not s.is_zero()
    assert_domain(s)


# -- renaming onto a bound table --------------------------------------------

S3 = VarTable.make(3)
# images of three source variables among four t-variables: signed single
# variables, and the products that theta_deriv and the kernel renamings use
MAPPINGS = {
    "signed variables": [((0, 1),), ((1, -1),), ((2, 1),)],
    "products": [((0, 1), (2, 1)), ((1, -1),), ((1, 1), (3, 1))],
}
# every t-variable bound (a z-variable left free), and t4 left free: the
# "products" images then use a free variable, so the series is renamed
# symbolically before the rule takes it at the point
TABLES = {
    "all bound": lambda seed: VarTable.make(4, 1).bind(
        random_point(range(4), seed)),
    "t4 free": lambda seed: VarTable.make(4).bind(
        random_point(range(3), seed)),
}


def _outcome(fn):
    """The JSON bytes of fn's series, or the exception it raises."""
    try:
        return json.dumps(series_to_json(fn()))
    except (EvaluationPointError, ZeroDivisionError) as exc:
        return type(exc).__name__


def assert_renames_like_the_unbound_table(s, table, mapping):
    # over the unbound copy of the table, then at the point
    unbound = table.without(())
    want = _outcome(lambda: s.rename_signed(unbound, mapping).evaluate(
        dict(table.values)))
    assert _outcome(lambda: s.rename_signed(table, mapping)) == want


@st.composite
def binomial_series(draw):
    """A series over S3 whose denominators are products of binomials
    x^p - c*x^q, p and q disjoint 0/1 exponent vectors."""
    terms = {}
    for e2 in draw(st.sets(st.integers(-2, 4), min_size=1, max_size=3)):
        den = LaurentPoly.one(S3)
        for _ in range(draw(st.integers(1, 2))):
            roles = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=3,
                                  max_size=3).filter(any))
            den = den * LaurentPoly(S3, {
                tuple(int(r == 1) for r in roles): 1,
                tuple(int(r == 2) for r in roles):
                    -draw(st.sampled_from((1, -1)))})
        num = LaurentPoly(S3, {
            tuple(draw(st.integers(-2, 2)) for _ in range(3)): draw(rationals)
            for _ in range(draw(st.integers(1, 3)))})
        terms[e2] = RatFunc(num, den)
    return HalfSeries(S3, 4, terms)


@pytest.mark.parametrize("mapping", MAPPINGS)
@pytest.mark.parametrize("table", TABLES)
@pytest.mark.parametrize("seed", (3, 20, 31))
def test_the_kernel_renames_onto_a_bound_table_like_the_unbound_one(
        seed, table, mapping):
    assert_renames_like_the_unbound_table(
        _f_bo_generic(3, 4), TABLES[table](seed), MAPPINGS[mapping])


@settings(max_examples=30, deadline=None)
@given(binomial_series(), st.sampled_from(sorted(TABLES)),
       st.sampled_from(sorted(MAPPINGS)), st.sampled_from((3, 20, 31)))
def test_a_series_renames_onto_a_bound_table_like_the_unbound_one(
        s, table, mapping, seed):
    assert_renames_like_the_unbound_table(s, TABLES[table](seed),
                                          MAPPINGS[mapping])
