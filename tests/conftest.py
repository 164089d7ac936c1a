"""Shared test helpers."""

from fractions import Fraction
from typing import Sequence

from qfock import correlation, special
from qfock.fock import oracle_trace
from qfock.laurent import (
    Exps,
    LaurentPoly,
    UsageError,
    VarTable,
    _d_shift,
    _d_strip_monomial,
    _ig_primitive,
    _ig_prs_fallback,
    _integerize,
)
from qfock.ratfunc import RatFunc
from qfock.series import HalfSeries

# The six module-level caches of the closed forms.
CACHES = (correlation._fbo_generic_cache, correlation._fbo_eval_cache,
          correlation._pair_block_cache, correlation._vacuum_cache,
          correlation._one_point_cache, special._theta_deriv_cache)


def clear_caches():
    """Empty every closed-form cache, so the next computation runs cold."""
    for c in CACHES:
        c.clear()


def plain_trace(*args, **kwargs) -> HalfSeries:
    """The oracle trace without a parity insertion: even + odd."""
    even, odd = oracle_trace(*args, **kwargs)
    return even + odd


def signed_trace(*args, **kwargs) -> HalfSeries:
    """The oracle trace with (-1)^parity inserted: even - odd."""
    even, odd = oracle_trace(*args, **kwargs)
    return even - odd


def prs_gcd(a, b):
    """The reference GCD of two nonzero polynomial dicts: the PRS fallback
    alone on the primitive integer parts without monomial content, times
    the common monomial.  No heuristic GCD runs."""
    (a, sa), (b, sb) = (_d_strip_monomial(_integerize(x)) for x in (a, b))
    g = _ig_prs_fallback(_ig_primitive(a), _ig_primitive(b))
    return _d_shift(g, tuple(map(min, sa, sb)))


# ---------------------------------------------------------------------------
# The monomial substitutions that LaurentPoly.rename_signed replaced, kept as
# references for it: LaurentPoly.subst sent one variable to a monomial in
# the others, and theta_deriv sent the one scratch variable to a monomial
# through _scratch_subst and _distribute.
# ---------------------------------------------------------------------------

def subst(self: LaurentPoly, var: int,
          target: Sequence[tuple[int, int]]) -> LaurentPoly:
    """Replace var by a monomial in other variables.

    target is a sequence of (variable index, +1/-1) pairs; the empty
    sequence substitutes the constant 1.  An occurrence with stored
    exponent e contributes e*sign to each target variable.
    """
    for j, s in target:
        if j == var:
            raise UsageError("substitution target may not involve the variable itself")
        if s not in (1, -1):
            raise UsageError("target exponents must be +1 or -1")
    out: dict[Exps, Fraction] = {}
    for e, c in self.items():
        ne = list(e)
        ev = ne[var]
        ne[var] = 0
        for j, s in target:
            ne[j] += ev * s
        ne = tuple(ne)
        s2 = out.get(ne, 0) + c
        if s2:
            out[ne] = s2
        else:
            out.pop(ne, None)
    return LaurentPoly(self.table, out)  # normalizes


def scratch_subst(series: HalfSeries, table: VarTable,
                  arg: Sequence[tuple[int, int]]) -> HalfSeries:
    """Substitute the scratch variable by the monomial arg (empty arg -> 1)."""
    out: dict[int, RatFunc] = {}
    for e2, c in series.terms.items():
        num = distribute(c.num, table, arg)
        den = distribute(c.den, table, arg)
        if den.is_zero():
            raise ZeroDivisionError("theta substitution annihilated a denominator")
        nc = RatFunc(num, den)
        if not nc.is_zero():
            out[e2] = nc
    return HalfSeries(table, series.trunc2, out, _clean=True)


def distribute(p: LaurentPoly, table: VarTable,
               arg: Sequence[tuple[int, int]]) -> LaurentPoly:
    terms: dict[tuple[int, ...], int | Fraction] = {}
    w = len(table)
    for e, c in p.items():
        ne = [0] * w
        for i, s in arg:
            ne[i] = e[0] * s
        ne = tuple(ne)
        terms[ne] = terms.get(ne, 0) + c
    return LaurentPoly(table, terms)  # drops zeros, normalizes
