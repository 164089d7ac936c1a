"""Truncated formal series in q with exponents in (1/2)Z.

A HalfSeries stores coefficients keyed by doubled q-exponents and a doubled
truncation order trunc2: the series is known exactly for every exponent
e2 <= trunc2.  Exponents may be negative (the floor is tracked from the
stored support).

The table sets the coefficient domain.  Over a table with variables a
coefficient is a RatFunc.  Over the table with no variables it is a
rational number in the kernel's representation (laurent._coef): an int
when integral, else a Fraction, several times cheaper to multiply, add and
invert than a RatFunc constant.  Either way a coefficient is nonzero
exactly when it is truthy, and the two render alike with str().

Eval mode is resolved here, once for every function.  A series built over a
bound table (VarTable.bind) lives over table.free(), and a LaurentPoly or
RatFunc coefficient over the bound table is taken at the table's point.  A
series renamed onto a bound table that binds every image variable is
evaluated at the images instead.  So a function given a bound table
computes at the point with no code of its own.

Truncation propagates conservatively through multiplication: the product of
series exact to Na and Nb with supports starting at ma and mb is exact to
min(Na + mb, Nb + ma), so no retained coefficient is ever approximate.

A sum of series and products (plus; + and * are its two-part cases) puts
unreduced numerators into one bucket per exponent and denominator factor
record, and reduces each bucket once by trial division (the GCD without a
record).  The canonical form is unique and the record exact, so each
coefficient has the bytes that reducing every product and sum gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Callable, Iterable, Iterator, Mapping

from .laurent import (
    LaurentPoly,
    UsageError,
    VarTable,
    _checked,
    _coef,
    _d_mul,
    _whole,
    format_exponent,
)
from .ratfunc import RatFunc, _merge

Coeff = RatFunc | int | Fraction


def _collect(table: VarTable, t2: int, terms) -> dict[int, Coeff]:
    """The nonzero coefficients up to q^(t2/2) of the sum of q^(e/2) a*b over
    terms (e, a, b), b None for a alone; a lone a*b is RatFunc's product."""
    out: dict[int, Coeff] = {}
    buckets: dict = {}  # (e, record or den) -> lone (a, b) or [num, den, record]
    dens: dict = {}  # (records, or dens without both) -> the product's
    off = table.packing[0]
    for e, a, b in terms:
        if e > t2:
            continue
        den, dfac = a.den, a.dfac
        if b is not None:
            split = dfac is not None and b.dfac is not None
            key = (dfac, b.dfac) if split else (den, b.den)
            if key not in dens:
                dens[key] = den * b.den, _merge(dfac, b.dfac) if split else None
            den, dfac = dens[key]
        key = e, den if dfac is None else dfac
        acc = buckets.get(key)
        if acc is None:
            buckets[key] = a, b
            continue
        if acc.__class__ is tuple:  # a*b in place, a alone as a*1
            a1, b1 = acc
            acc = buckets[key] = [_d_mul(a1.num.terms, b1.num.terms if b1
                                         else {off: 1}, off, {}), den, dfac]
        _d_mul(a.num.terms, b.num.terms if b else {off: 1}, off, acc[0])
    for (e, _), acc in buckets.items():
        if acc.__class__ is tuple:
            c = acc[0] if acc[1] is None else acc[0] * acc[1]
        elif acc[0]:
            num = _whole(_checked(acc[0], off))  # see laurent._d_mul
            c = RatFunc(LaurentPoly(table, num, _clean=True), acc[1], dfac=acc[2])
        else:
            continue
        out[e] = out[e] + c if e in out else c
    return {e: c for e, c in out.items() if c}


def _product_trunc2(x: "HalfSeries", y: "HalfSeries") -> int:
    """The doubled order to which x*y is exact (see the module docstring)."""
    return min(x.trunc2 + y.floor2(), y.trunc2 + x.floor2())


def _over_lcm(terms: Mapping[int, int | Fraction]) -> tuple[dict[int, int], int]:
    """Numbers as integer numerators over their least common denominator."""
    d = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (d // c.denominator)
            for e, c in terms.items()}, d


class HalfSeries:
    """Truncated q-series over a shared VarTable, with RatFunc coefficients
    (numbers over the table with no variables); built over a bound table,
    or renamed onto one, it lives over table.free()."""

    __slots__ = ("table", "trunc2", "terms")

    def __init__(self, table: VarTable, trunc2: int,
                 terms: Mapping[int, Coeff] | None = None,
                 *, _clean: bool = False):
        self.table = table.free() if table.values else table
        self.trunc2 = trunc2
        if terms is None:
            self.terms: dict[int, Coeff] = {}
        elif _clean:
            self.terms = dict(terms)
        else:
            clean: dict[int, Coeff] = {}
            for e2, c in terms.items():
                if e2 > trunc2:
                    raise UsageError(
                        f"stored exponent {format_exponent(e2)} exceeds the "
                        f"truncation order {format_exponent(trunc2)}")
                c = self._coerce_coeff(c)
                if c:
                    clean[e2] = c
            self.terms = clean

    def _coerce_coeff(self, c) -> Coeff:
        """c in the table's coefficient domain; a polynomial or rational
        function over a bound table is taken at the table's point."""
        if isinstance(c, (LaurentPoly, RatFunc)) and c.table.values:
            c = c.evaluate(dict(c.table.values))
        if isinstance(c, LaurentPoly):
            c = RatFunc.from_poly(c)
        if isinstance(c, RatFunc):
            if c.table != self.table:
                raise UsageError("coefficient uses a different variable table")
            return c if len(self.table) else _coef(c.constant_value())
        if isinstance(c, (int, Fraction)):
            return RatFunc.const(self.table, c) if len(self.table) else _coef(c)
        raise UsageError(f"bad coefficient type {type(c).__name__}")

    @classmethod
    def _of(cls, table: VarTable, trunc2: int,
            terms: dict[int, Coeff]) -> "HalfSeries":
        """The series of nonzero terms in table's domain, except that number
        terms may be whole Fractions (made ints here)."""
        return cls(table, trunc2, terms if len(table) else _whole(terms),
                   _clean=True)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable, trunc2: int) -> "HalfSeries":
        return cls(table, trunc2, {}, _clean=True)

    @classmethod
    def one(cls, table: VarTable, trunc2: int) -> "HalfSeries":
        return cls(table, trunc2, {0: 1})

    @classmethod
    def q_power(cls, table: VarTable, trunc2: int, e2: int) -> "HalfSeries":
        """q^(e2/2)."""
        return cls(table, trunc2, {e2: 1})

    # -- inspection ----------------------------------------------------------------

    def floor2(self) -> int:
        """A doubled lower bound for the support (trunc2+1 for the zero series)."""
        return min(self.terms) if self.terms else self.trunc2 + 1

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, e2: int) -> Coeff:
        if e2 > self.trunc2:
            raise UsageError(
                f"coefficient q^{format_exponent(e2)} is beyond the truncation")
        return self.terms.get(e2) or self._coerce_coeff(0)

    def items(self) -> Iterator[tuple[int, Coeff]]:
        return iter(sorted(self.terms.items()))

    # -- arithmetic -------------------------------------------------------------------

    def _check(self, other: "HalfSeries") -> None:
        if self.table != other.table:
            raise UsageError("series use different variable tables")

    def truncate(self, trunc2: int) -> "HalfSeries":
        if trunc2 >= self.trunc2:
            if trunc2 == self.trunc2:
                return self
            raise UsageError("cannot extend a truncated series")
        return HalfSeries(self.table, trunc2,
                          {e: c for e, c in self.terms.items() if e <= trunc2},
                          _clean=True)

    def __add__(self, other) -> "HalfSeries":
        if not isinstance(other, HalfSeries):
            # a constant lies beyond a series exact only below q^0
            other = HalfSeries(self.table, max(self.trunc2, 0), {0: other})
        return self.plus((other,))

    def plus(self, parts: Iterable) -> "HalfSeries":
        """self plus every part, a series or a pair (x, y) for the product
        x*y, exact to the least of their truncations; each coefficient is
        reduced once (see the module docstring)."""
        t2, numbers, live = self.trunc2, not len(self.table), [(self, None)]
        for x in parts:
            x, y = x if isinstance(x, tuple) else (x, None)
            self._check(x)
            if y is not None:
                self._check(y)
                if numbers:  # each product on its own path
                    x, y = x * y, None
            t2 = min(t2, x.trunc2 if y is None else _product_trunc2(x, y))
            live.append((x, y))
        parts = [(x, y) for x, y in live if x.terms and (y is None or y.terms)]
        if len(parts) == 1 and parts[0][1] is None:  # one series: no sum
            return parts[0][0].truncate(t2)
        if not numbers:  # x alone is x times 1*q^0
            return HalfSeries._of(self.table, t2, _collect(self.table, t2, (
                (e1 + e2, c1, c2) for x, y in parts for e1, c1 in x.terms.items()
                for e2, c2 in (y.terms.items() if y else ((0, None),)))))
        out: dict[int, Coeff] = {}
        for x, _ in parts:
            for e, c in x.terms.items():
                if e <= t2:
                    out[e] = out[e] + c if e in out else c
        return HalfSeries._of(self.table, t2, {e: c for e, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self) -> "HalfSeries":
        return HalfSeries(self.table, self.trunc2,
                          {e: -c for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other) -> "HalfSeries":
        return self + (-other)

    def __rsub__(self, other) -> "HalfSeries":
        return (-self) + other

    def scale(self, c) -> "HalfSeries":
        c = self._coerce_coeff(c)
        if not c:
            return HalfSeries.zero(self.table, self.trunc2)
        return HalfSeries._of(self.table, self.trunc2,
                              {e: v * c for e, v in self.terms.items()})

    def __mul__(self, other) -> "HalfSeries":
        if not isinstance(other, HalfSeries):
            return self.scale(other)
        self._check(other)
        t2 = _product_trunc2(self, other)
        if len(self.table):
            return HalfSeries.zero(self.table, t2).plus([(self, other)])
        # numbers: integer numerators over each factor's common denominator
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

    __rmul__ = __mul__

    def inverse(self) -> "HalfSeries":
        """Multiplicative inverse.

        Requires a nonzero lowest-order coefficient; the result has lowest
        exponent -floor2 and truncation trunc2 - 2*floor2.

        In shifted coordinates (A_j = a_{m+j}, B_j = b_{-m+j}) the inverse
        solves B_0 = 1/A_0 and B_k = -(sum_{0<j<=k} A_j B_{k-j})/A_0.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero series")
        m2 = self.floor2()
        t2 = self.trunc2 - 2 * m2
        kmax = t2 + m2  # shifted top index so that -m2 + k <= t2
        shifted_a = {e - m2: c for e, c in self.terms.items()}
        lead = self.terms[m2]
        inv_lead = (lead.inverse() if isinstance(lead, RatFunc)
                    else _coef(Fraction(1, lead)))
        out = {-m2: inv_lead}
        shifted_b: dict[int, Coeff] = {0: inv_lead}
        for k in range(1, kmax + 1):
            pairs = [(aj, shifted_b[k - j]) for j, aj in shifted_a.items()
                     if 0 < j <= k and (k - j) in shifted_b]
            acc = (_collect(self.table, 0, ((0, a, b) for a, b in pairs)).get(0)
                   if len(self.table) else sum(a * b for a, b in pairs))
            if acc:
                bk = -(acc * inv_lead)
                shifted_b[k] = bk
                out[-m2 + k] = bk
        return HalfSeries._of(self.table, t2, out)

    # -- coefficient-wise structure maps ----------------------------------------------

    def map_coeffs(self, fn: Callable[[RatFunc], RatFunc],
                   table: VarTable | None = None) -> "HalfSeries":
        """fn on every RatFunc coefficient, into table (default: this one);
        onto the table with no variables the results become numbers.  The
        numbers of a variable-free series are constants, which evaluation
        and renaming leave as they are."""
        table = table if table is not None else self.table
        if not len(self.table):
            return HalfSeries(table, self.trunc2, self.terms)
        return HalfSeries(table, self.trunc2,
                          {e: fn(c) for e, c in self.terms.items()})

    def tddt(self, var: int) -> "HalfSeries":
        return self.map_coeffs(lambda c: c.tddt(var))

    def evaluate(self, assignment: Mapping[int, Fraction]) -> "HalfSeries":
        """Evaluate variables at square-root values (possibly partially)."""
        new_table = self.table.without(assignment)
        return self.map_coeffs(lambda c: c.evaluate(assignment, new_table),
                               table=new_table)

    def rename_signed(self, new_table: VarTable, mapping) -> "HalfSeries":
        """The monomial map of LaurentPoly.rename_signed on every
        coefficient; onto a table whose point binds every image variable,
        the series at the images u_j = prod v_i^s, over new_table.free()."""
        bound = dict(new_table.values)
        if bound and all(i in bound for image in mapping for i, _ in image):
            return HalfSeries(new_table, self.trunc2, self.evaluate({
                j: prod((bound[i] ** s for i, s in image), start=Fraction(1))
                for j, image in enumerate(mapping)}).terms)
        return self.map_coeffs(lambda c: c.rename_signed(new_table, mapping),
                               table=new_table)

    # -- comparison / display ------------------------------------------------------------

    def eq_upto(self, other: "HalfSeries", upto2: int | None = None) -> bool:
        """Exact equality of all coefficients up to the common truncation."""
        return self.first_mismatch(other, upto2) is None

    def first_mismatch(self, other: "HalfSeries",
                       upto2: int | None = None) -> tuple[int, Coeff, Coeff] | None:
        """Lowest q-order where the two series differ, with both coefficients."""
        self._check(other)
        t2 = min(self.trunc2, other.trunc2)
        if upto2 is not None:
            t2 = min(t2, upto2)
        zero = self._coerce_coeff(0)
        for e in sorted(set(self.terms) | set(other.terms)):
            if e > t2:
                continue
            a = self.terms.get(e, zero)
            b = other.terms.get(e, zero)
            if a != b:
                return e, a, b
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, HalfSeries):
            return NotImplemented
        return (self.table == other.table and self.trunc2 == other.trunc2
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.table, self.trunc2, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"HalfSeries({self}, order {format_exponent(self.trunc2)})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            cs = str(c)
            if e == 0:
                bits.append(cs)
            else:
                q = "q" if e == 2 else f"q^{{{format_exponent(e)}}}"
                bits.append(f"({cs})*{q}")
        return " + ".join(bits)

