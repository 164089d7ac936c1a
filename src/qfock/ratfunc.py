"""Field of fractions of the Laurent polynomial ring.

A RatFunc is a reduced pair num/den of LaurentPoly.  Canonical form:

  * num and den share no polynomial factor;
  * den is an honest polynomial with componentwise-minimal exponent 0
    (any monomial factor is a unit and lives in num, which may be Laurent);
  * den has integer, globally coprime coefficients and positive
    lex-leading coefficient.

Equality of canonical forms is structural, and doubles as the
cross-multiplication test.

Each RatFunc also carries dfac, the factor record of its denominator: a
sorted tuple of ((p, q, c), m) whose product of binomials (x^p - c*x^q)^m
is exactly den, or None when den does not split so (the empty tuple for
den = 1).  The binomials are laurent's: p, q the packed keys of disjoint
0/1 exponent vectors, p lex above q, c = +-1.  Each is irreducible,
integer-primitive, with lead coefficient 1 and no monomial content, so by
Gauss's lemma their product already is the canonical den.  The record
never enters equality, hashing or output.  With it, cancellation is trial
division by the few known factors: in a product a factor of one den can
divide only the other num, and in a sum only a factor that both dens hold
equally often can divide the new numerator.  A sum or product with a denominator outside the
binomial basis goes through the generic constructor, whose one
multivariate GCD (laurent's heuristic GCD) reduces the cross products.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .laurent import (
    Binomial,
    EvaluationPointError,
    LaurentPoly,
    UsageError,
    VarTable,
    _binomial_divides,
    _binomial_split,
    _d_divexact,
    _d_gcd,
    _d_mul,
    _d_strip,
    _d_strip_monomial,
    _ig_primitive,
    _integerize,
    _pack,
    _tuples,
    _unpack,
    poly_divexact,
)

Factors = tuple[tuple[Binomial, int], ...]

# default for a denominator whose factors are not known yet: split it
_UNSPLIT = object()


class RatFunc:
    """A rational function num/den in canonical form, with den's factor
    record dfac."""

    __slots__ = ("num", "den", "dfac")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None,
                 *, dfac=_UNSPLIT, _canonical: bool = False):
        """Reduce num/den.  A known split of den (up to a constant and a
        monomial; None when den does not split) is passed as dfac, else den
        is split here.  With _canonical the pair is taken as it is and dfac
        is den's factor record."""
        if den is None:
            den, dfac = LaurentPoly.one(num.table), ()
        if _canonical:
            self.num = num
            self.den = den
            self.dfac = (_split(den.terms, len(den.table)) if dfac is _UNSPLIT
                         else dfac)
            return
        if num.table != den.table:
            raise UsageError("num and den use different variable tables")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den, self.dfac = _reduce(num, den, dfac)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "RatFunc":
        return cls(LaurentPoly.zero(table), _canonical=True)

    @classmethod
    def one(cls, table: VarTable) -> "RatFunc":
        return cls(LaurentPoly.one(table), _canonical=True)

    @classmethod
    def const(cls, table: VarTable, c) -> "RatFunc":
        return cls(LaurentPoly.const(table, c), _canonical=True)

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "RatFunc":
        return cls(p, _canonical=True)

    @property
    def table(self) -> VarTable:
        return self.num.table

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> "RatFunc":
        other = self._coerce(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        f1, f2 = self.dfac, other.dfac
        if f1 is None or f2 is None:
            # binomials are irreducible, so d1*d2 does not split either
            return RatFunc(self.num * other.den + other.num * self.den,
                           self.den * other.den, dfac=None)
        # over L = lcm(d1, d2), each factor at its larger multiplicity:
        # t = n1 (L/d1) + n2 (L/d2), cofactors multiplied out of binomials
        m1, m2 = dict(f1), dict(f2)
        cof1 = tuple((b, m - m1.get(b, 0)) for b, m in f2 if m > m1.get(b, 0))
        cof2 = tuple((b, m - m2.get(b, 0)) for b, m in f1 if m > m2.get(b, 0))
        e1 = _expand(self.table, cof1) if cof1 else None
        t = ((self.num if e1 is None else self.num * e1)
             + (other.num * _expand(self.table, cof2) if cof2 else other.num))
        if t.is_zero():
            return RatFunc.zero(self.table)
        # a factor held more often by d2 divides n1 (L/d1) but neither n2
        # nor L/d2, so it cannot divide t; only equal holdings can cancel
        shared = tuple((b, m) for b, m in f1 if m2.get(b) == m)
        t, kept = _cancel(t, shared)
        if kept is not shared:
            # L = d1 (L/d1), less what cancelled
            left = dict(kept)
            dfac = _merge(f1, cof1, tuple((b, left.get(b, 0) - m)
                                          for b, m in shared))
            den = _expand(self.table, dfac)
        elif not cof1:
            den, dfac = self.den, f1
        elif not cof2:
            den, dfac = other.den, f2
        else:
            den, dfac = self.den * e1, _merge(f1, cof1)  # L = d1 (L/d1)
        return RatFunc(t, den, _canonical=True, dfac=dfac)

    def __radd__(self, other) -> "RatFunc":
        return self + other

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, _canonical=True, dfac=self.dfac)

    def __sub__(self, other) -> "RatFunc":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RatFunc":
        return (-self) + other

    def __mul__(self, other) -> "RatFunc":
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return RatFunc.zero(self.table)
        f1, f2 = self.dfac, other.dfac
        # by a constant: only the numerator scales
        if f2 == () and other.num.is_constant():
            return RatFunc(self.num * other.num, self.den, _canonical=True,
                           dfac=f1)
        if f1 == () and self.num.is_constant():
            return RatFunc(self.num * other.num, other.den, _canonical=True,
                           dfac=f2)
        if f1 is None or f2 is None:
            return RatFunc(self.num * other.num, self.den * other.den,
                           dfac=None)
        # cross-cancellation: with both inputs reduced, a factor of one den
        # can divide only the other num
        n1, kept2 = _cancel(self.num, f2)
        n2, kept1 = _cancel(other.num, f1)
        if kept1 is f1 and kept2 is f2 and not (f1 and f2):
            den, dfac = (other.den, f2) if f2 else (self.den, f1)
        elif kept1 is f1 and kept2 is f2:
            den, dfac = self.den * other.den, _merge(f1, f2)
        else:
            dfac = _merge(kept1, kept2)
            den = _expand(self.table, dfac)
        return RatFunc(n1 * n2, den, _canonical=True, dfac=dfac)

    def __rmul__(self, other) -> "RatFunc":
        return self * other

    def __truediv__(self, other) -> "RatFunc":
        other = self._coerce(other)
        return self * other.inverse()

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # num and den are coprime already: only the new den is normalized
        return RatFunc(*_finalize(self.den, self.num), _canonical=True)

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            if other.table != self.table:
                raise UsageError("operands use different variable tables")
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.table, other)
        if isinstance(other, LaurentPoly):
            return RatFunc.from_poly(other)
        raise UsageError(f"cannot combine RatFunc with {type(other).__name__}")

    # -- evaluation and monomial maps ---------------------------------------------

    def evaluate(self, assignment, new_table: VarTable | None = None) -> "RatFunc":
        den = self.den.evaluate(assignment, new_table)
        if den.is_zero():
            raise EvaluationPointError(
                "denominator vanished at the evaluation point")
        num = self.num.evaluate(assignment, den.table)
        return RatFunc(num, den)

    def rename_signed(self, new_table: VarTable, mapping) -> "RatFunc":
        """The monomial map of LaurentPoly.rename_signed on num and den;
        ZeroDivisionError when it sends den to 0."""
        num = self.num.rename_signed(new_table, mapping)
        den = self.den.rename_signed(new_table, mapping)
        if (any(len(image) != 1 for image in mapping)
                or len({image[0][0] for image in mapping}) < len(mapping)):
            return RatFunc(num, den)
        # a renaming (each variable to its own signed variable) is a ring
        # isomorphism onto its image, so num and den stay coprime and each
        # binomial factor maps to one binomial
        dfac = self.dfac and _rename_factors(self.dfac, len(new_table),
                                             mapping)
        return RatFunc(*_finalize(num, den), _canonical=True, dfac=dfac)

    def tddt(self, var: int) -> "RatFunc":
        """t d/dt by the quotient rule."""
        if self.den.is_one():
            return RatFunc(self.num.tddt(var), self.den, _canonical=True,
                           dfac=())
        dn = self.num.tddt(var) * self.den - self.num * self.den.tddt(var)
        dfac = self.dfac and _merge(self.dfac, self.dfac)
        return RatFunc(dn, self.den * self.den, dfac=dfac)

    def constant_value(self) -> Fraction:
        if not (self.num.is_constant() and self.den.is_constant()):
            raise UsageError("not a constant")
        return Fraction(self.num.constant_value(), self.den.constant_value())

    # -- equality / display --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = self._coerce(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.den.is_one():
            return f"RatFunc({self.num})"
        return f"RatFunc(({self.num}) / ({self.den}))"

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"


def _finalize(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Normalize a pair already in lowest terms: fold the denominator's
    monomial content into the numerator and scale the denominator to coprime
    integer coefficients with positive lead."""
    table = num.table
    if num.is_zero():
        return LaurentPoly.zero(table), LaurentPoly.one(table)
    dd, sd = _d_strip(den.terms, len(table))
    den_p = _ig_primitive(_integerize(dd))
    e = next(iter(dd))
    num = num * Fraction(den_p[e], dd[e])
    return num._moved(-sd), LaurentPoly(table, den_p, _clean=True)


def _reduce(num: LaurentPoly, den: LaurentPoly, split=_UNSPLIT
            ) -> tuple[LaurentPoly, LaurentPoly, Factors | None]:
    """Canonicalize num/den and give den's factor record.  split is den's
    binomial split up to a constant and a monomial (None if den does not
    split); by default den is split here.  A split den cancels by trial
    division, any other by the GCD."""
    table = num.table
    w = len(table)
    if num.is_zero():
        return LaurentPoly.zero(table), LaurentPoly.one(table), ()
    dd, sd = _d_strip(den.terms, w)
    if split is _UNSPLIT:
        split = _split(dd, w)
    if split is not None:
        # den = k * x^sd * (product of split), and that product has lead 1
        num_p, dfac = _cancel(num, split)
        k = dd[max(dd)]
        if dfac is split and k == 1 and not sd:
            return num_p, den, dfac
        num_p = (num_p * Fraction(1, k))._moved(-sd)
        return num_p, _expand(table, dfac), dfac
    # the generic GCD works on exponent tuples
    g = _d_gcd(_d_strip_monomial(_tuples(num.terms, w))[0], _tuples(dd, w))
    if g == {(0,) * w: 1}:
        return (*_finalize(num, den), None)
    g = LaurentPoly(table, g)
    num, den = _finalize(poly_divexact(num, g), poly_divexact(den, g))
    return num, den, _split(den.terms, w)  # what is left may split


def _split(p: Mapping, w: int) -> Factors | None:
    """The sorted binomial factors of p (a packed dict over a table of width
    w, without monomial content) up to a constant, or None when p is not
    such a product."""
    if len(p) == 1:
        return ()
    split = _binomial_split(_integerize(p), w)
    return None if split is None else tuple(sorted(split))


def _cancel(num: LaurentPoly, factors: Factors) -> tuple[LaurentPoly, Factors]:
    """Divide num by each binomial factor as often as it goes, at most to
    the factor's multiplicity, as _binomial_divides (its +-1 test first)
    decides.  Returns the quotient and the factors left over (factors
    itself when none divides).  Each exact division raises on a remainder."""
    if not factors or len(num.terms) == 1:
        return num, factors  # a binomial never divides a monomial
    # the divisibility test takes Laurent exponents; the division does not
    w = len(num.table)
    f = ints = _integerize(num.terms)
    shift = None
    kept = []
    values: dict = {}  # f at the +-1 test points, shared by the factors
    for b, m in factors:
        p, q, c = b
        k = 0
        while k < m and _binomial_divides(f, p, q, c, values):
            if shift is None:
                f, shift = _d_strip(f, w)
            f = _d_divexact(f, {p: 1, q: -c}, w)
            values.clear()
            k += 1
        if k < m:
            kept.append((b, m - k))
    if f is ints:
        return num, factors
    quo = LaurentPoly(num.table, f, _clean=True)
    if ints is not num.terms:
        e = next(iter(ints))
        quo = quo * Fraction(num.terms[e], ints[e])
    return quo._moved(shift), tuple(kept)


def _expand(table: VarTable, factors: Factors) -> LaurentPoly:
    """The product of the binomial factors."""
    off = table.packing[0]
    out = None
    for (p, q, c), m in factors:
        for _ in range(m):
            out = ({p: 1, q: -c} if out is None else
                   _d_mul(out, {p: 1, q: -c}, off))
    return LaurentPoly(table, out or {off: 1}, _clean=True)


def _merge(*records: Factors) -> Factors:
    """The factor record of a product of factored polynomials (a negative
    multiplicity divides)."""
    out: dict[Binomial, int] = {}
    for record in records:
        for f, m in record:
            out[f] = out.get(f, 0) + m
    return tuple(sorted((f, m) for f, m in out.items() if m))


def _rename_factors(dfac: Factors, width: int, mapping) -> Factors:
    """The factor record of a denominator after a renaming onto a table of
    the given width that sends variable j to its own variable t raised to
    s, mapping[j] = ((t, s),), or to 1, mapping[j] = (), when no factor
    holds it.

    x^p - c*x^q becomes y^a - c*y^b up to a monomial, where a collects the
    images of p's variables kept in sign and of q's flipped, and b the
    rest; when a is lex below b it is -c*(y^b - c*y^a), and the unit is
    left to the caller's normalization."""
    out = []
    for (p, q, c), m in dfac:
        p, q = _unpack(p, len(mapping)), _unpack(q, len(mapping))
        a, b = [0] * width, [0] * width
        for j, image in enumerate(mapping):
            if p[j]:
                (t, s), = image
                (a if s > 0 else b)[t] = 1
            elif q[j]:
                (t, s), = image
                (b if s > 0 else a)[t] = 1
        a, b = _pack(a), _pack(b)
        out.append(((a, b, c) if a > b else (b, a, c), m))
    return tuple(sorted(out))
