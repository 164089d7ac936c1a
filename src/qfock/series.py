"""Truncated formal series in q with exponents in (1/2)Z.

A HalfSeries stores RatFunc coefficients keyed by doubled q-exponents and a
doubled truncation order trunc2: the series is known exactly for every
exponent e2 <= trunc2.  Exponents may be negative (the floor is tracked from
the stored support).

Truncation propagates conservatively through multiplication: the product of
series exact to Na and Nb with supports starting at ma and mb is exact to
min(Na + mb, Nb + ma), so no retained coefficient is ever approximate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, Mapping

from .laurent import (
    LaurentPoly,
    UsageError,
    VarTable,
    _d_strip_monomial,
    format_exponent,
    poly_gcd,
)
from .ratfunc import RatFunc, _finalize, _merge, _split


class HalfSeries:
    """Truncated q-series with RatFunc coefficients over a shared VarTable."""

    __slots__ = ("table", "trunc2", "terms")

    def __init__(self, table: VarTable, trunc2: int,
                 terms: Mapping[int, RatFunc] | None = None,
                 *, _clean: bool = False):
        self.table = table
        self.trunc2 = trunc2
        if terms is None:
            self.terms: dict[int, RatFunc] = {}
        elif _clean:
            self.terms = dict(terms)
        else:
            clean: dict[int, RatFunc] = {}
            for e2, c in terms.items():
                if e2 > trunc2:
                    raise UsageError(
                        f"stored exponent {format_exponent(e2)} exceeds the "
                        f"truncation order {format_exponent(trunc2)}")
                c = self._coerce_coeff(c)
                if not c.is_zero():
                    clean[e2] = c
            self.terms = clean

    def _coerce_coeff(self, c) -> RatFunc:
        if isinstance(c, RatFunc):
            if c.table != self.table:
                raise UsageError("coefficient uses a different variable table")
            return c
        if isinstance(c, LaurentPoly):
            return RatFunc.from_poly(c)
        if isinstance(c, (int, Fraction)):
            return RatFunc.const(self.table, c)
        raise UsageError(f"bad coefficient type {type(c).__name__}")

    # -- constructors ------------------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable, trunc2: int) -> "HalfSeries":
        return cls(table, trunc2, {}, _clean=True)

    @classmethod
    def one(cls, table: VarTable, trunc2: int) -> "HalfSeries":
        return cls(table, trunc2, {0: RatFunc.one(table)}, _clean=True)

    @classmethod
    def const(cls, table: VarTable, trunc2: int, c) -> "HalfSeries":
        s = cls(table, trunc2)
        return s + cls(table, trunc2, {0: c})

    @classmethod
    def q_power(cls, table: VarTable, trunc2: int, e2: int, c=1) -> "HalfSeries":
        """c * q^(e2/2)."""
        return cls(table, trunc2, {e2: c})

    # -- inspection ----------------------------------------------------------------

    def floor2(self) -> int:
        """A doubled lower bound for the support (trunc2+1 for the zero series)."""
        return min(self.terms) if self.terms else self.trunc2 + 1

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, e2: int) -> RatFunc:
        if e2 > self.trunc2:
            raise UsageError(
                f"coefficient q^{format_exponent(e2)} is beyond the truncation")
        return self.terms.get(e2, RatFunc.zero(self.table))

    def items(self) -> Iterator[tuple[int, RatFunc]]:
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
        if isinstance(other, (int, Fraction, RatFunc, LaurentPoly)):
            other = HalfSeries(self.table, self.trunc2, {0: other})
        self._check(other)
        t2 = min(self.trunc2, other.trunc2)
        out = {e: c for e, c in self.terms.items() if e <= t2}
        for e, c in other.terms.items():
            if e > t2:
                continue
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return HalfSeries(self.table, t2, out, _clean=True)

    __radd__ = __add__

    def __neg__(self) -> "HalfSeries":
        return HalfSeries(self.table, self.trunc2,
                          {e: -c for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other) -> "HalfSeries":
        if isinstance(other, (int, Fraction, RatFunc, LaurentPoly)):
            other = HalfSeries(self.table, self.trunc2, {0: other})
        return self + (-other)

    def __rsub__(self, other) -> "HalfSeries":
        return (-self) + other

    def scale(self, c) -> "HalfSeries":
        c = self._coerce_coeff(c)
        if c.is_zero():
            return HalfSeries.zero(self.table, self.trunc2)
        return HalfSeries(self.table, self.trunc2,
                          {e: v * c for e, v in self.terms.items()}, _clean=True)

    def __mul__(self, other) -> "HalfSeries":
        if isinstance(other, (int, Fraction, RatFunc, LaurentPoly)):
            return self.scale(other)
        self._check(other)
        t2 = min(self.trunc2 + other.floor2(), other.trunc2 + self.floor2())
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
            if acc is not None and not acc.is_zero():
                out[e] = acc
        return HalfSeries(self.table, t2, out, _clean=True)

    __rmul__ = __mul__

    def shift_q(self, e2: int) -> "HalfSeries":
        """Multiply by q^(e2/2)."""
        return HalfSeries(self.table, self.trunc2 + e2,
                          {e + e2: c for e, c in self.terms.items()}, _clean=True)

    def inverse(self) -> "HalfSeries":
        """Multiplicative inverse.

        Requires a nonzero lowest-order coefficient; the result has lowest
        exponent -floor2 and truncation trunc2 - 2*floor2.

        In shifted coordinates (A_j = a_{m+j}, B_j = b_{-m+j}) the inverse
        solves B_0 = 1/A_0 and B_k = -(sum_{0<j<=k} A_j B_{k-j})/A_0.  When
        every coefficient is polynomial the recursion is run on polynomial
        numerators C_k with B_k = C_k / A_0^(k+1), so each coefficient costs
        a single reduction instead of one per intermediate sum.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero series")
        m2 = self.floor2()
        lead = self.terms[m2]
        t2 = self.trunc2 - 2 * m2
        kmax = t2 + m2  # shifted top index so that -m2 + k <= t2
        shifted_a = {e - m2: c for e, c in self.terms.items()}
        if all(c.is_poly() for c in self.terms.values()):
            a0 = lead.num
            apoly = {j: c.num for j, c in shifted_a.items()}
            one = LaurentPoly.one(self.table)
            a0_pows = [one, a0]

            def a0pow(k: int) -> LaurentPoly:
                while len(a0_pows) <= k:
                    a0_pows.append(a0_pows[-1] * a0)
                return a0_pows[k]

            # A_0's binomial factors, split once: each C_k / A_0^(k+1) then
            # cancels by trial division against them
            split = _split(_d_strip_monomial(a0.terms)[0])

            def over_a0pow(num: LaurentPoly, k: int) -> RatFunc:
                if split is not None:
                    return RatFunc(num, a0pow(k), dfac=_merge(*[split] * k))
                # coprime to A_0 means coprime to its powers: one cheap gcd
                if poly_gcd(num, a0).is_one():
                    return RatFunc(*_finalize(num, a0pow(k)), _canonical=True,
                                   dfac=None)
                return RatFunc(num, a0pow(k), dfac=None)

            # C_k = -sum_{0<j<=k} A_j C_{k-j} A_0^(j-1), C_0 = 1
            cpoly: dict[int, LaurentPoly] = {0: one}
            out = {-m2: over_a0pow(one, 1)}
            for k in range(1, kmax + 1):
                acc = None
                for j, aj in apoly.items():
                    if 0 < j <= k and (k - j) in cpoly:
                        term = aj * cpoly[k - j] * a0pow(j - 1)
                        acc = term if acc is None else acc + term
                if acc is None or acc.is_zero():
                    continue
                ck = -acc
                cpoly[k] = ck
                rf = over_a0pow(ck, k + 1)
                if not rf.is_zero():
                    out[-m2 + k] = rf
            return HalfSeries(self.table, t2, out, _clean=True)
        inv_lead = lead.inverse()
        out = {-m2: inv_lead}
        shifted_b: dict[int, RatFunc] = {0: inv_lead}
        for k in range(1, kmax + 1):
            acc = None
            for j, aj in shifted_a.items():
                if 0 < j <= k and (k - j) in shifted_b:
                    p = aj * shifted_b[k - j]
                    acc = p if acc is None else acc + p
            if acc is not None and not acc.is_zero():
                bk = -(acc * inv_lead)
                if not bk.is_zero():
                    shifted_b[k] = bk
                    out[-m2 + k] = bk
        return HalfSeries(self.table, t2, out, _clean=True)

    # -- coefficient-wise structure maps ----------------------------------------------

    def map_coeffs(self, fn: Callable[[RatFunc], RatFunc],
                   table: VarTable | None = None,
                   trunc2: int | None = None) -> "HalfSeries":
        table = table if table is not None else self.table
        trunc2 = trunc2 if trunc2 is not None else self.trunc2
        out: dict[int, RatFunc] = {}
        for e, c in self.terms.items():
            nc = fn(c)
            if not nc.is_zero():
                out[e] = nc
        return HalfSeries(table, trunc2, out, _clean=True)

    def subst_monomial(self, var: int, target) -> "HalfSeries":
        """Replace a variable by a +/-1-exponent monomial in other variables
        (empty target substitutes 1) in every coefficient."""
        return self.map_coeffs(lambda c: c.subst(var, target))

    def tddt(self, var: int) -> "HalfSeries":
        return self.map_coeffs(lambda c: c.tddt(var))

    def evaluate(self, assignment: Mapping[int, Fraction]) -> "HalfSeries":
        """Evaluate variables at square-root values (possibly partially)."""
        new_table = self.table.without(assignment)
        return self.map_coeffs(lambda c: c.evaluate(assignment, new_table),
                               table=new_table)

    def rename_signed(self, new_table: VarTable, mapping) -> "HalfSeries":
        return self.map_coeffs(lambda c: c.rename_signed(new_table, mapping),
                               table=new_table)

    # -- comparison / display ------------------------------------------------------------

    def eq_upto(self, other: "HalfSeries", upto2: int | None = None) -> bool:
        """Exact equality of all coefficients up to the common truncation."""
        self._check(other)
        t2 = min(self.trunc2, other.trunc2)
        if upto2 is not None:
            t2 = min(t2, upto2)
        for e in set(self.terms) | set(other.terms):
            if e > t2:
                continue
            if self.terms.get(e) != other.terms.get(e):
                a, b = self.terms.get(e), other.terms.get(e)
                if (a or RatFunc.zero(self.table)) != (b or RatFunc.zero(self.table)):
                    return False
        return True

    def first_mismatch(self, other: "HalfSeries",
                       upto2: int | None = None) -> tuple[int, RatFunc, RatFunc] | None:
        """Lowest q-order where the two series differ, with both coefficients."""
        self._check(other)
        t2 = min(self.trunc2, other.trunc2)
        if upto2 is not None:
            t2 = min(t2, upto2)
        zero = RatFunc.zero(self.table)
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

