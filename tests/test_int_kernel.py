"""Integer coefficients in the LaurentPoly kernel.

A coefficient is an int when it is integral and a Fraction only when it is
not.  Every kernel operation must give the same values as on inputs whose
coefficients are all Fractions (the representation the kernel had before
ints), and every coefficient it produces, and every coefficient of the
RatFuncs built by a closed form and by the eval-mode oracle, must be an int
or a non-integral Fraction: never a float, never a whole Fraction."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import clear_caches  # noqa: E402
from qfock.correlation import d_sum_function  # noqa: E402
from qfock.fock import (  # noqa: E402
    FockSpace,
    apply_D,
    fock_state,
    oracle_trace,
    vacuum,
)
from qfock.laurent import (  # noqa: E402
    InternalInvariantError,
    LaurentPoly,
    VarTable,
    _d_divexact,
    _packed,
    _tuples,
    poly_divexact,
    poly_gcd,
)
from qfock.ratfunc import RatFunc  # noqa: E402
from qfock.verify import suite_main_theorem  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None)
WIDTH = 3
TAB = VarTable.make(WIDTH)

rationals = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
nonzero = rationals.filter(bool)


@st.composite
def polys(draw, min_size=0):
    terms = draw(st.dictionaries(
        st.tuples(*(st.integers(-2, 2) for _ in range(WIDTH))),
        nonzero, min_size=min_size, max_size=4))
    return LaurentPoly(TAB, terms)


def _as_fractions(p: LaurentPoly) -> LaurentPoly:
    """p with every coefficient a Fraction, as the kernel stored it before."""
    return LaurentPoly(p.table, {e: Fraction(c) for e, c in p.terms.items()},
                       _clean=True)


def _values(p: LaurentPoly) -> dict:
    return {e: Fraction(c) for e, c in p.terms.items()}


def _check_coefficients(p: LaurentPoly) -> None:
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), \
            f"coefficient {c!r} of {p}"


def _ops(a: LaurentPoly, b: LaurentPoly, s: Fraction, shift, point):
    """(name, thunk) for every operation under test, on a and b."""
    yield "add", lambda a, b: a + b
    yield "sub", lambda a, b: a - b
    yield "mul", lambda a, b: a * b
    yield "scalar", lambda a, b: a * s
    yield "shift", lambda a, b: a.shift(shift)
    for v in range(WIDTH):
        yield f"tddt{v}", lambda a, b, v=v: a.tddt(v)
    yield "evaluate", lambda a, b: a.evaluate(point)
    if not b.is_zero():
        yield "divexact", lambda a, b: poly_divexact(a * b, b)
        if not a.is_zero():
            yield "gcd", lambda a, b: poly_gcd(a, b)


@SETTINGS
@given(polys(), polys(), rationals,
       st.tuples(*(st.integers(-2, 2) for _ in range(WIDTH))),
       st.dictionaries(st.integers(0, WIDTH - 1), nonzero, min_size=1))
def test_int_kernel_agrees_with_fraction_inputs(a, b, s, shift, point):
    _check_coefficients(a)
    _check_coefficients(b)
    fa, fb = _as_fractions(a), _as_fractions(b)
    for name, op in _ops(a, b, s, shift, point):
        got, want = op(a, b), op(fa, fb)
        assert _values(got) == _values(want), name
        _check_coefficients(got)


@pytest.mark.parametrize("run", [
    lambda: d_sum_function((1,), 1, 2, 4),
    lambda: suite_main_theorem(trunc2=6, mode="eval", seed=11,
                               l_values=(1,), n_values=(1,)),
], ids=["d_sum_function", "main_theorem_eval_cell"])
def test_every_ratfunc_coefficient_is_int_or_proper_fraction(run, monkeypatch):
    seen = []
    init = RatFunc.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen.append(self)

    monkeypatch.setattr(RatFunc, "__init__", recording)
    clear_caches()
    result = run()
    if isinstance(result, list):
        assert all(c.passed or c.informational for c in result)
    kinds = set()
    for r in seen:
        for p in (r.num, r.den):
            _check_coefficients(p)
            kinds.update(type(c) for c in p.terms.values())
    assert kinds == {int, Fraction}  # both representations were exercised


def test_divexact_over_q_on_mixed_coefficients():
    # (x + 1/2) / (2x + 1) = 1/2: an int step whose quotient is not integral
    def divexact(num, den):
        return _tuples(_d_divexact(_packed(num), _packed(den), 1), 1)

    num = {(1,): 1, (0,): Fraction(1, 2)}
    assert divexact(num, {(1,): 2, (0,): 1}) == {(0,): Fraction(1, 2)}
    assert divexact({(1,): Fraction(1, 2), (0,): 1}, {(1,): 1, (0,): 2}) \
        == {(0,): Fraction(1, 2)}
    with pytest.raises(InternalInvariantError):
        divexact({(2,): 1, (0,): Fraction(1, 2)}, {(1,): 1, (0,): -1})


def test_constant_value_of_int_constants_is_a_fraction():
    for c in (0, 3, -4):
        v = RatFunc.const(TAB, c).constant_value()
        assert type(v) is Fraction and v == c
    v = (RatFunc.const(TAB, 3) / RatFunc.const(TAB, 4)).constant_value()
    assert v == Fraction(3, 4)


def test_apply_D_at_an_integral_point_gives_fraction_weights():
    space = FockSpace(1, True)
    tab = VarTable.make(1)
    st_ = fock_state(((1,), (), ()))
    for state in (vacuum(space), st_):
        out = apply_D(state, space, tab.bind({0: 2}), 0)
        assert out
        assert all(type(c) is Fraction for c in out.values())


def test_oracle_levels_at_an_integral_point_are_normalized():
    # at v = 2 most weights are whole Fractions (2^k, the central 3*2/3)
    even, odd = oracle_trace(FockSpace(1, True), 4,
                             VarTable.make(1, 1).bind({0: 2}), (0,),
                             z_indices=(1,))
    kinds = set()
    for trace in (even, odd, even + odd):
        for c in trace.terms.values():
            _check_coefficients(c.num)
            kinds.update(type(v) for v in c.num.terms.values())
    assert int in kinds
