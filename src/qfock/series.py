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
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Callable, Iterator, Mapping

from .laurent import (
    LaurentPoly,
    UsageError,
    VarTable,
    _coef,
    _whole,
    format_exponent,
)
from .ratfunc import RatFunc

Coeff = RatFunc | int | Fraction


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
            acc = None
            for j, aj in shifted_a.items():
                if 0 < j <= k and (k - j) in shifted_b:
                    p = aj * shifted_b[k - j]
                    acc = p if acc is None else acc + p
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

