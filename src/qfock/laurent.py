"""Sparse exact Laurent polynomials in several variables.

Every exponent in this library lives in (1/2)Z and is stored *doubled*, so a
stored integer e represents the true exponent e/2.  Equivalently, a t-variable
is represented through its square root u = t^(1/2): the stored integer is the
honest integer exponent of u.  Coefficients are exact rationals: an int
when the value is integral, a fractions.Fraction (denominator > 1) only
when it is not.  Integer arithmetic is several times faster, and most
coefficients the library meets are integers.  Sums and products of ints
stay ints; every operation that can produce a whole Fraction turns it back
into an int.  Since 3 == Fraction(3), with equal hashes and equal str(),
the representation never shows in equality or output.

A polynomial is a dict mapping exponent tuples (one doubled exponent per
variable) to nonzero coefficients; the zero polynomial stores no terms.

  t1^(1/2) - (1/2)*t1^(-1/2)   over  VarTable(("t1", "t2"))
      ->  {(1, 0): 1, (-1, 0): Fraction(-1, 2)}

Monomial order, where one is needed (exact division, canonical forms), is lex
on the exponent tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations, product
from math import gcd, isqrt
from operator import mul, sub
from fractions import Fraction
from typing import Container, Mapping, Sequence

Exps = tuple[int, ...]

T_KIND = "t"
Z_KIND = "z"

ZERO = 0
ONE = 1


class UsageError(ValueError):
    """Caller broke a precondition (mismatched tables, bad variable kind...)."""


class InternalInvariantError(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input."""


class EvaluationPointError(ArithmeticError):
    """A denominator vanished at the requested evaluation point."""


@dataclass(frozen=True)
class VarTable:
    """Ordered, immutable list of variable descriptors.

    Each variable has a name and a kind: "t" for correlation variables
    (exponents in (1/2)Z, stored via their square roots) and "z" for charge
    variables (same storage convention).  q is not a table entry; it is the
    series grading variable of HalfSeries.
    """

    names: tuple[str, ...]
    kinds: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.kinds):
            raise UsageError("names and kinds must have equal length")
        if len(set(self.names)) != len(self.names):
            raise UsageError(f"duplicate variable names: {self.names}")
        for k in self.kinds:
            if k not in (T_KIND, Z_KIND):
                raise UsageError(f"unknown variable kind {k!r}")

    @classmethod
    def make(cls, n_t: int, n_z: int = 0, t_prefix: str = "t",
             z_prefix: str = "z") -> "VarTable":
        names = tuple(f"{t_prefix}{i + 1}" for i in range(n_t)) + tuple(
            f"{z_prefix}{i + 1}" for i in range(n_z))
        kinds = (T_KIND,) * n_t + (Z_KIND,) * n_z
        return cls(names, kinds)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UsageError(f"no variable named {name!r}") from None

    def t_indices(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k == T_KIND)

    def z_indices(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k == Z_KIND)

    def without(self, indices: Container[int]) -> "VarTable":
        """The table with the variables at the given indices removed (the
        same table when none of them is here)."""
        keep = [i for i in range(len(self)) if i not in indices]
        if len(keep) == len(self):
            return self
        return VarTable(tuple(self.names[i] for i in keep),
                        tuple(self.kinds[i] for i in keep))


Coeff = int | Fraction


def _fr(x) -> Fraction:
    """An evaluation-point value as a Fraction (so that powers with
    negative exponents and quotients stay exact)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise UsageError(f"coefficient must be rational, got {type(x).__name__}")


def _coef(x) -> Coeff:
    """A coefficient in the kernel's representation: int when integral."""
    if isinstance(x, (int, Fraction)):
        return x.numerator if x.denominator == 1 else x
    raise UsageError(f"coefficient must be rational, got {type(x).__name__}")


def _whole(terms: dict) -> dict:
    """Turn every integral Fraction value of terms back into an int, in
    place; returns terms."""
    for e, c in terms.items():
        if c.__class__ is not int and c.denominator == 1:
            terms[e] = c.numerator
    return terms


class LaurentPoly:
    """Sparse Laurent polynomial over a VarTable with rational (int or
    Fraction) coefficients."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[Exps, Coeff] | None = None,
                 *, _clean: bool = False):
        """With _clean, terms is taken as it is: nonzero coefficients, each
        an int or a non-integral Fraction."""
        self.table = table
        if terms is None:
            self.terms: dict[Exps, Coeff] = {}
        elif _clean:
            self.terms = dict(terms)
        else:
            w = len(table)
            clean: dict[Exps, Coeff] = {}
            for e, c in terms.items():
                if len(e) != w:
                    raise UsageError(
                        f"exponent tuple {e} has wrong width (table has {w} variables)")
                c = _coef(c)
                if c != 0:
                    clean[tuple(e)] = c
            self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "LaurentPoly":
        return cls(table, {}, _clean=True)

    @classmethod
    def const(cls, table: VarTable, c) -> "LaurentPoly":
        c = _coef(c)
        if c == 0:
            return cls.zero(table)
        return cls(table, {(0,) * len(table): c}, _clean=True)

    @classmethod
    def one(cls, table: VarTable) -> "LaurentPoly":
        return cls.const(table, 1)

    @classmethod
    def monomial(cls, table: VarTable, exps: Mapping[int, int], c=1) -> "LaurentPoly":
        """c times the product of var_i^(exps[i]/2) (exponents doubled)."""
        c = _coef(c)
        if c == 0:
            return cls.zero(table)
        e = [0] * len(table)
        for i, v in exps.items():
            e[i] = v
        return cls(table, {tuple(e): c}, _clean=True)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * len(self.table): ONE}

    def is_constant(self) -> bool:
        z = (0,) * len(self.table)
        return not self.terms or (len(self.terms) == 1 and z in self.terms)

    def constant_value(self) -> Coeff:
        if not self.is_constant():
            raise UsageError("not a constant polynomial")
        return self.terms.get((0,) * len(self.table), ZERO)

    def coeff(self, exps: Exps) -> Coeff:
        return self.terms.get(tuple(exps), ZERO)

    def min_exps(self) -> Exps:
        """Componentwise minimum exponent over the support (requires nonzero)."""
        if not self.terms:
            raise UsageError("zero polynomial has no support")
        w = len(self.table)
        return tuple(min(e[i] for e in self.terms) for i in range(w))

    def degrees(self) -> Exps:
        if not self.terms:
            raise UsageError("zero polynomial has no support")
        w = len(self.table)
        return tuple(max(e[i] for e in self.terms) for i in range(w))

    def variables_used(self) -> tuple[int, ...]:
        w = len(self.table)
        return tuple(i for i in range(w)
                     if any(e[i] != 0 for e in self.terms))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if self.table is not other.table and self.table != other.table:
            raise UsageError("operands use different variable tables")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly(self.table, _whole(out), _clean=True)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.table, {e: -c for e, c in self.terms.items()},
                           _clean=True)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            c = _coef(other)
            if c == 0:
                return LaurentPoly.zero(self.table)
            if c == 1:
                return self  # nothing mutates .terms in place
            return LaurentPoly(self.table,
                               _whole({e: v * c for e, v in self.terms.items()}),
                               _clean=True)
        self._check(other)
        out: dict[Exps, Coeff] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly(self.table, _whole(out), _clean=True)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise UsageError("negative powers are RatFunc territory")
        result = LaurentPoly.one(self.table)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shift(self, exps: Exps) -> "LaurentPoly":
        """Multiply by the monomial with the given (doubled) exponents."""
        if not any(exps):
            return self
        return LaurentPoly(self.table,
                           {tuple(a + b for a, b in zip(e, exps)): c
                            for e, c in self.terms.items()}, _clean=True)

    # -- the t d/dt operator ------------------------------------------------

    def tddt(self, var: int) -> "LaurentPoly":
        """Apply t d/dt in the given variable.

        A monomial with stored exponent e (true exponent e/2) is an
        eigenvector with eigenvalue e/2.
        """
        if self.table.kinds[var] != T_KIND:
            raise UsageError("tddt applies to t-type variables only")
        out: dict[Exps, Coeff] = {}
        for e, c in self.terms.items():
            k = e[var]
            if k:
                out[e] = c * Fraction(k, 2) if k & 1 else c * (k >> 1)
        return LaurentPoly(self.table, _whole(out), _clean=True)

    # -- substitution and evaluation ----------------------------------------

    def subst(self, var: int, target: Sequence[tuple[int, int]]) -> "LaurentPoly":
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
        for e, c in self.terms.items():
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
        return LaurentPoly(self.table, _whole(out), _clean=True)

    def evaluate(self, assignment: Mapping[int, Fraction],
                 new_table: VarTable | None = None) -> "LaurentPoly":
        """Evaluate the given variables at square-root values.

        assignment maps variable index -> value of the variable's square
        root (so a stored exponent e contributes value**e).  Unassigned
        variables survive into the result, which lives over new_table (the
        table with assigned variables removed; built here if not supplied).
        """
        point = [(i, _fr(v)) for i, v in assignment.items()]
        if any(v == 0 for _, v in point):
            raise EvaluationPointError("square-root values must be nonzero")
        keep = [i for i in range(len(self.table)) if i not in assignment]
        if new_table is None:
            new_table = self.table.without(assignment)
        out: dict[Exps, Coeff] = {}
        for e, c in self.terms.items():
            val = c
            for i, v in point:
                if e[i]:
                    val *= v ** e[i]
            ne = tuple(e[i] for i in keep)
            s = out.get(ne, 0) + val
            if s:
                out[ne] = s
            else:
                out.pop(ne, None)
        return LaurentPoly(new_table, _whole(out), _clean=True)

    def rename_signed(self, new_table: VarTable,
                      mapping: Sequence[tuple[int, int]]) -> "LaurentPoly":
        """Send variable j to new_table variable mapping[j][0], raised to the
        sign mapping[j][1] (so exponents flip for -1 targets)."""
        if len(mapping) != len(self.table):
            raise UsageError("mapping must cover every source variable")
        w = len(new_table)
        out: dict[Exps, Coeff] = {}
        for e, c in self.terms.items():
            ne = [0] * w
            for j, (tgt, sgn) in enumerate(mapping):
                if e[j]:
                    ne[tgt] += e[j] * sgn
            ne = tuple(ne)
            s = out.get(ne, 0) + c
            if s:
                out[ne] = s
            else:
                out.pop(ne, None)
        return LaurentPoly(new_table, _whole(out), _clean=True)

    # -- ordering helpers -----------------------------------------------------

    def lead(self) -> tuple[Exps, Coeff]:
        """Lex-leading (exponents, coefficient)."""
        if not self.terms:
            raise UsageError("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    # -- equality / display ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        return hash((self.table, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)})"

    def __str__(self) -> str:
        return format_poly(self)


def format_exponent(e2: int) -> str:
    """Render a doubled exponent as its true value: 3 -> '3/2', 4 -> '2'."""
    if e2 % 2 == 0:
        return str(e2 // 2)
    return f"{e2}/2"


def format_poly(p: LaurentPoly) -> str:
    if not p.terms:
        return "0"
    bits = []
    for e in sorted(p.terms, reverse=True):
        c = p.terms[e]
        factors = []
        for i, v in enumerate(e):
            if v == 0:
                continue
            if v == 2:
                factors.append(p.table.names[i])
            else:
                factors.append(f"{p.table.names[i]}^{{{format_exponent(v)}}}")
        mono = "*".join(factors)
        if not mono:
            bits.append(str(c))
        elif c == 1:
            bits.append(mono)
        elif c == -1:
            bits.append(f"-{mono}")
        else:
            bits.append(f"{c}*{mono}")
    out = " + ".join(bits)
    return out.replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Polynomial GCD (heuristic GCD; the subresultant PRS as a fallback)
# ---------------------------------------------------------------------------
#
# These helpers work on raw dicts {exps: coeff} whose exponents are all
# nonnegative (callers strip monomial content first).  The "main variable"
# view keeps full-width tuples and treats one slot as the polynomial variable,
# so coefficient-ring arithmetic is the same dict arithmetic.
#
# Every gcd takes one path.  Both operands are scaled to integer
# coefficients (gcds over the rational field are only defined up to units,
# so clearing denominators is free), stripped of their monomial content and
# made primitive.  GCDHEU (Char, Geddes & Gonnet, "GCDHEU: Heuristic
# polynomial GCD algorithm based on integer GCD computation", J. Symb.
# Comp. 7(1), 1989) runs on what is left: it evaluates one variable at an
# integer xi > 2*min(|a|, |b|) + 2 (max norms of the primitive operands),
# recurses down to an integer gcd, and rebuilds a candidate xi-adically
# from symmetric remainders.  By their theorem a candidate that divides
# both operands exactly is the gcd, so the two exact divisions certify it,
# the coprime case (candidate 1) included; otherwise a larger xi is tried.
# Only when no xi tried gives a certified candidate does the recursive
# subresultant PRS run, on the same primitive integer operands.
#
# Binomial factors.  Every denominator the library builds is a product of
# binomials x^p - c*x^q with p, q disjoint 0/1 vectors of stored exponents
# and c = +-1 (u_S -+ 1 and their Weyl-denominator relatives; z_i - z_j is
# (u_i - u_j)(u_i + u_j) in the stored square roots).  Such a binomial is
# irreducible: p - q is primitive, so a unimodular change of variables
# makes it y - c.  Distinct (p, q, c) with p lex above q are not associate.
# _binomial_split finds such a factorization by trial division;
# divisibility by one binomial is a linear substitution test (x^p = c*x^q),
# and each exact division raises on a remainder.  RatFunc keeps each
# denominator's split (ratfunc's factor record), so its arithmetic cancels
# by the substitution test and exact division alone; only a denominator
# that does not split comes to the gcd.

_Dict = dict


def _d_add(a: _Dict, b: _Dict) -> _Dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _d_neg(a: _Dict) -> _Dict:
    return {e: -c for e, c in a.items()}


def _d_mul(a: _Dict, b: _Dict) -> _Dict:
    out: _Dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _d_pow(a: _Dict, n: int, width: int) -> _Dict:
    out: _Dict = {(0,) * width: 1}
    for _ in range(n):
        out = _d_mul(out, a)
    return out


def _d_divexact(num: _Dict, den: _Dict) -> _Dict:
    """Exact division in lex order; raises if not exact.

    Heap-ordered (Monagan & Pearce, "Sparse polynomial division using a
    heap", J. Symb. Comp. 46(7), 2011): the remainder is never stored.  A
    heap yields the next lex-largest monomial of num - quo*den by merging
    num with the products quo_j*den_i, each quotient term advancing along
    den one term at a time, so a step costs O(log #quo) instead of a scan
    of the whole remainder.  Exponents are packed into one int per
    monomial (mixed radix, first variable most significant, so int order
    is lex order); the quotient exponents are range-checked against the
    degree bounds an exact quotient obeys, which keeps every packed
    product inside the radix.  Quotient terms come out in decreasing lex
    order.

    When every coefficient of num and den is an int, the division is over
    Z and a quotient coefficient that is not an integer raises; otherwise
    it is over Q, with coefficients in the kernel's representation.
    """
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    if not num:
        return {}
    over_z = all(c.__class__ is int for d in (num, den) for c in d.values())
    w = len(next(iter(num)))
    ncols, dcols = list(zip(*num)), list(zip(*den))
    tops = list(map(max, ncols))
    # an exact quotient has degree deg(num) - deg(den) in every variable
    his = list(map(sub, tops, map(max, dcols)))
    if any(h < 0 for h in his):
        raise InternalInvariantError("non-exact polynomial division")
    los = list(map(min, map(min, ncols), map(min, dcols)))
    radix = [1] * w
    for v in range(w - 2, -1, -1):
        radix[v] = radix[v + 1] * (tops[v + 1] - los[v + 1] + 1)
    off = sum(map(mul, los, radix))
    fs = sorted(((sum(map(mul, e, radix)) - off, c) for e, c in num.items()),
                reverse=True)
    gs = sorted(((sum(map(mul, e, radix)) - off, e, c)
                 for e, c in den.items()), reverse=True)
    glead_p, glead, glc = gs[0]
    gp = [g[0] for g in gs]
    gc = [g[2] for g in gs]
    ng, nf = len(gs), len(fs)
    qp: list[int] = []
    qc: list = []
    quo: _Dict = {}
    heap: list[int] = []          # negated packed monomials, each once
    chains: dict[int, list] = {}  # monomial -> (j, i) pairs quo_j*den_i
    fi = 0
    while True:
        if heap and (fi == nf or -heap[0] >= fs[fi][0]):
            m = -heappop(heap)
            if fi < nf and fs[fi][0] == m:
                c = fs[fi][1]
                fi += 1
            else:
                c = 0
            for j, i in chains.pop(m):
                c -= qc[j] * gc[i]
                i += 1
                if i < ng:
                    mm = qp[j] + gp[i]
                    ch = chains.get(mm)
                    if ch is None:
                        chains[mm] = [(j, i)]
                        heappush(heap, -mm)
                    else:
                        ch.append((j, i))
        elif fi < nf:
            m, c = fs[fi]
            fi += 1
        else:
            return quo
        if not c:
            continue
        qe = []
        r = m
        for v in range(w):
            d, r = divmod(r, radix[v])
            x = d + los[v] - glead[v]
            if x < 0 or x > his[v]:
                raise InternalInvariantError("non-exact polynomial division")
            qe.append(x)
        if over_z:
            qcoef, r = divmod(c, glc)
            if r:
                raise InternalInvariantError("non-exact coefficient division")
        else:
            qcoef = _coef(Fraction(c) / glc)
        quo[tuple(qe)] = qcoef
        j = len(qp)
        qp.append(m - glead_p)
        qc.append(qcoef)
        if ng > 1:
            mm = qp[j] + gp[1]
            ch = chains.get(mm)
            if ch is None:
                chains[mm] = [(j, 1)]
                heappush(heap, -mm)
            else:
                ch.append((j, 1))


def _d_deg(a: _Dict, v: int) -> int:
    return max((e[v] for e in a), default=-1)


def _d_coeff_of(a: _Dict, v: int, d: int) -> _Dict:
    """Coefficient of x_v^d as a polynomial with slot v zeroed."""
    out: _Dict = {}
    for e, c in a.items():
        if e[v] == d:
            ne = list(e)
            ne[v] = 0
            out[tuple(ne)] = c
    return out


def _d_lc(a: _Dict, v: int) -> _Dict:
    return _d_coeff_of(a, v, _d_deg(a, v))


def _d_mul_var_pow(a: _Dict, v: int, k: int) -> _Dict:
    out: _Dict = {}
    for e, c in a.items():
        ne = list(e)
        ne[v] += k
        out[tuple(ne)] = c
    return out


def _d_prem(f: _Dict, g: _Dict, v: int) -> _Dict:
    """Pseudo-remainder of f by g in variable v: lc(g)^(df-dg+1) f mod g."""
    dg = _d_deg(g, v)
    lg = _d_lc(g, v)
    r = dict(f)
    e = _d_deg(f, v) - dg + 1
    while r:
        dr = _d_deg(r, v)
        if dr < dg:
            break
        lr = _d_lc(r, v)
        r = _d_add(_d_mul(lg, r),
                   _d_neg(_d_mul(_d_mul_var_pow(lr, v, dr - dg), g)))
        e -= 1
    if e > 0 and r:
        width = len(next(iter(r)))
        r = _d_mul(r, _d_pow(lg, e, width))
    return r


def _d_strip_monomial(a: _Dict) -> tuple[_Dict, Exps]:
    """Factor out the componentwise-minimal monomial; returns (stripped, shift)."""
    if not a:
        return a, ()
    mins = tuple(map(min, zip(*a)))
    if not any(mins):
        return a, mins
    return ({tuple(x - m for x, m in zip(e, mins)): c for e, c in a.items()},
            mins)


def _integerize(a: _Dict) -> _Dict:
    """Scale a Fraction- or int-coefficient dict to coprime integer
    coefficients (same signs); a itself when it already has them."""
    den_lcm = 1
    ints = True
    for c in a.values():
        if c.__class__ is not int:
            ints = False
            d = c.denominator
            if d != 1:
                den_lcm = den_lcm * d // gcd(den_lcm, d)
    if not ints:
        a = {e: c.numerator * (den_lcm // c.denominator)
             for e, c in a.items()}
    num_gcd = gcd(*a.values())
    if num_gcd > 1:
        a = {e: c // num_gcd for e, c in a.items()}
    return a


def _ig_primitive(a: _Dict) -> _Dict:
    """Integer content 1, positive lex-leading coefficient."""
    if not a:
        return {}
    g = 0
    for c in a.values():
        g = gcd(g, c)
    if a[max(a)] < 0:
        g = -g
    if g == 1:
        return dict(a)
    return {e: c // g for e, c in a.items()}


def _ig_content(a: _Dict, v: int) -> _Dict:
    """GCD of the x_v-coefficients (integer dicts)."""
    cont: _Dict = {}
    w = len(next(iter(a)))
    unit_exps = (0,) * w
    for d in sorted({e[v] for e in a}, reverse=True):
        cont = _ig_gcd(cont, _d_coeff_of(a, v, d))
        if len(cont) == 1 and unit_exps in cont and cont[unit_exps] == 1:
            break
    return cont


def _d_mul_var_pow_multi(a: _Dict, shift: Exps) -> _Dict:
    return {tuple(x + s for x, s in zip(e, shift)): c for e, c in a.items()}


def _d_gcd(a: _Dict, b: _Dict) -> _Dict:
    """GCD of polynomials with nonnegative exponents and int or Fraction
    coefficients: integer-primitive, with positive lex-leading coefficient.
    GCDHEU first; the PRS only when GCDHEU certifies no candidate."""
    return _ig_gcd(_integerize(a), _integerize(b))


# more variables than this, and _binomial_split gives up
# (3^k - 1 candidate binomials in k variables)
_SPLIT_MAX_VARS = 5

Binomial = tuple[Exps, Exps, int]  # (p, q, c) for x^p - c*x^q, p lex above q


def _binomial_split(f: _Dict) -> list[tuple[Binomial, int]] | None:
    """Factor f (no monomial content) into binomials with multiplicities,
    or None if f is not such a product times a constant.

    A factor's p divides the lex-leading monomial of f and its q the
    lex-trailing one, which bounds the candidates tried.  Once what is left
    is itself one binomial, it is taken as found.
    """
    lead, trail = max(f), min(f)
    if abs(f[lead]) != abs(f[trail]):
        return None  # in such a product they agree up to sign
    ps = [v for v, x in enumerate(lead) if x]
    qs = [v for v, x in enumerate(trail) if x]
    if len(set(ps) | set(qs)) > _SPLIT_MAX_VARS:
        return None
    factors = []
    for (p, q), c in product(_binomial_supports(len(lead), ps, qs), (1, -1)):
        if len(f) == 1 or (len(f) == 2 and max(lead + trail) == 1):
            break
        m = 0
        while (all(x <= y for x, y in zip(p, lead))
               and all(x <= y for x, y in zip(q, trail))
               and _binomial_divides(f, p, q, c)):
            f = _d_divexact(f, {p: 1, q: -c})
            lead, trail = next(iter(f)), next(reversed(f))
            m += 1
        if m:
            factors.append(((p, q, c), m))
    if len(f) == 2 and max(lead + trail) == 1:
        # no factor found so far divides it, so it is a new one
        factors.append(((lead, trail, -f[trail] // f[lead]), 1))
    elif len(f) > 1:
        return None
    return factors


def _binomial_supports(w: int, ps: list[int], qs: list[int]):
    """0/1 vectors p, q of width w with p inside ps, q inside qs, disjoint,
    p nonzero and lex above q."""
    for r in range(1, len(ps) + 1):
        for pset in combinations(ps, r):
            p = tuple(1 if v in pset else 0 for v in range(w))
            rest = [v for v in qs if v not in pset and v > pset[0]]
            for s in range(len(rest) + 1):
                for qset in combinations(rest, s):
                    yield p, tuple(1 if v in qset else 0 for v in range(w))


def _binomial_divides(f: _Dict, p: Exps, q: Exps, c: int) -> bool:
    """Whether x^p - c*x^q divides f, by substituting x^p = c*x^q.

    With j the first variable of p and d = p - q (so d_j = 1), the monomial
    x^e becomes c^(e_j) x^(e - e_j*d), whose j-th exponent is 0; those
    monomials are independent modulo the binomial, so it divides f exactly
    when every class sums to zero.  A binomial without monomial content
    divides f in the polynomial ring as soon as it does in the Laurent ring.
    """
    j = p.index(1)
    # quick necessary condition: f vanishes at x_j = c, all else 1, a point
    # on the binomial's zero set
    if c > 0:
        if sum(f.values()):
            return False
    elif sum(-a if e[j] & 1 else a for e, a in f.items()):
        return False
    d = tuple(x - y for x, y in zip(p, q))
    acc: _Dict = {}
    for e, a in f.items():
        k = e[j]
        if k:
            e = tuple(x - k * y for x, y in zip(e, d))
            if c < 0 and k & 1:
                a = -a
        acc[e] = acc.get(e, 0) + a
    return not any(acc.values())


def _ig_gcd(a: _Dict, b: _Dict) -> _Dict:
    if not a:
        return _ig_primitive(b)
    if not b:
        return _ig_primitive(a)
    a, sa = _d_strip_monomial(a)
    b, sb = _d_strip_monomial(b)
    w = len(next(iter(a)))
    common = tuple(min(x, y) for x, y in zip(sa, sb)) if sa else (0,) * w
    g = _ig_gcd_core(_ig_primitive(a), _ig_primitive(b))
    if any(common):
        g = _d_mul_var_pow_multi(g, common)
    return g


def _ig_gcd_core(a: _Dict, b: _Dict) -> _Dict:
    """GCD of primitive integer dicts without monomial content."""
    if a == b:
        return dict(a)
    if len(a) == 1 or len(b) == 1:
        # after monomial stripping, a single term means a unit
        return {(0,) * len(next(iter(a))): 1}
    g = _heu_gcd(a, b)
    return _ig_prs_fallback(a, b) if g is None else g


# values of xi that GCDHEU tries at each level before it gives up
_HEU_TRIES = 6


def _heu_gcd(a: _Dict, b: _Dict) -> _Dict | None:
    """GCDHEU on nonzero integer dicts: their gcd, or None when no xi tried
    gives a candidate that divides both.

    The integer content is carried through the recursion: the result is
    gcd(cont a, cont b) times the primitive, positive-leading candidate, so
    the gcd of primitive operands comes out normalized.  A factor in the
    variable evaluated here is only integer content in the images, so an
    inner level that dropped its content would lose it.
    """
    g = gcd(gcd(*a.values()), gcd(*b.values()))
    w = len(next(iter(a)))
    v = next((v for v in range(w)
              if any(e[v] for e in a) or any(e[v] for e in b)), None)
    if v is None:
        return {(0,) * w: g}
    a, b = _ig_primitive(a), _ig_primitive(b)
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 3
    for _ in range(_HEU_TRIES):
        fa, fb = _d_at(a, v, xi), _d_at(b, v, xi)
        if fa and fb:
            h = _heu_gcd(fa, fb)
            if h is None:
                return None
            h = _ig_primitive(_xi_adic(h, v, xi))
            if _divides(a, h) and _divides(b, h):
                return {e: g * c for e, c in h.items()} if g > 1 else h
        # grow xi by a factor of about 2.7 * xi^(1/4), as sympy does
        xi = xi * isqrt(isqrt(xi)) * 73794 // 27011
    return None


def _d_at(a: _Dict, v: int, x: int) -> _Dict:
    """a with x_v set to the integer x (slot v becomes 0)."""
    out: _Dict = {}
    for e, c in a.items():
        k = e[v]
        if k:
            e = e[:v] + (0,) + e[v + 1:]
            c *= x ** k
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _xi_adic(h: _Dict, v: int, xi: int) -> _Dict:
    """The polynomial whose x_v-coefficients are the symmetric base-xi
    digits of h's coefficients (h has slot v 0, xi >= 3): it gives back a
    from _d_at(a, v, xi) when every coefficient of a is below xi/2 in
    size."""
    out: _Dict = {}
    half = xi // 2
    for e, c in h.items():
        k = 0
        while c:
            r = c % xi
            if r > half:
                r -= xi
            if r:
                out[e[:v] + (k,) + e[v + 1:]] = r
            c = (c - r) // xi
            k += 1
    return out


def _divides(a: _Dict, h: _Dict) -> bool:
    try:
        _d_divexact(a, h)
    except InternalInvariantError:
        return False
    return True


def _ig_prs_fallback(a: _Dict, b: _Dict) -> _Dict:
    """GCD of primitive integer dicts without monomial content by a content
    split and the subresultant PRS, checked by dividing both inputs.  The
    tests take it as their reference."""
    w = len(next(iter(a)))
    va = {i for e in a for i in range(w) if e[i]}
    vb = {i for e in b for i in range(w) if e[i]}
    both = va & vb
    if not both:
        return {(0,) * w: 1}
    # main variable: smallest combined degree keeps remainders small
    v = min(both, key=lambda i: _d_deg(a, i) + _d_deg(b, i))
    ca, cb = _ig_content(a, v), _ig_content(b, v)
    pg = _ig_prs_gcd(_d_divexact(a, ca), _d_divexact(b, cb), v)
    g = _ig_primitive(_d_mul(_ig_gcd(ca, cb), pg))
    # safety net: a gcd must divide both inputs
    if not (_divides(a, g) and _divides(b, g)):
        raise InternalInvariantError("PRS produced a non-divisor; gcd bug")
    return g


def _ig_prs_gcd(f: _Dict, g: _Dict, v: int) -> _Dict:
    """Subresultant PRS on primitive integer inputs; primitive gcd part."""
    w = len(next(iter(f)))
    unit = {(0,) * w: 1}
    if _d_deg(f, v) < _d_deg(g, v):
        f, g = g, f
    r_prev, r_cur = f, g
    first = True
    psi: _Dict = {(0,) * w: -1}
    delta_prev = 0
    delta = _d_deg(r_prev, v) - _d_deg(r_cur, v)
    while True:
        rem = _d_prem(r_prev, r_cur, v)
        if not rem:
            break
        if first:
            beta: _Dict = {(0,) * w: (-1) ** (delta + 1)}
            first = False
        else:
            lc_prev = _d_lc(r_prev, v)
            # psi = (-lc)^delta_prev / psi^(delta_prev - 1)
            num = _d_pow(_d_neg(lc_prev), delta_prev, w)
            if delta_prev >= 1:
                psi = _d_divexact(num, _d_pow(psi, delta_prev - 1, w))
            else:
                psi = _d_mul(num, _d_pow(psi, 1 - delta_prev, w))
            beta = _d_neg(_d_mul(lc_prev, _d_pow(psi, delta, w)))
        rem = _d_divexact(rem, beta)
        delta_prev = delta
        r_prev, r_cur = r_cur, rem
        d_new = _d_deg(r_cur, v)
        if d_new == 0:
            return unit
        delta = _d_deg(r_prev, v) - d_new
    if _d_deg(r_cur, v) == 0:
        return unit
    cont = _ig_content(r_cur, v)
    return _d_divexact(r_cur, cont)


# -- public wrappers ---------------------------------------------------------

def lp_tddt(a: LaurentPoly, var: int) -> LaurentPoly:
    return a.tddt(var)


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """GCD of the polynomial parts (monomial content handled by the caller).

    Inputs may be Laurent; each is shifted to have min exponent 0 first, and
    the returned gcd is a polynomial with min exponent 0 (monomial factors of
    a Laurent polynomial are units in the Laurent ring).
    """
    if a.table != b.table:
        raise UsageError("operands use different variable tables")
    da, _ = _d_strip_monomial(dict(a.terms))
    db, _ = _d_strip_monomial(dict(b.terms))
    return LaurentPoly(a.table, _d_gcd(da, db), _clean=True)


def poly_divexact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division in the Laurent ring; raises InternalInvariantError."""
    if num.table != den.table:
        raise UsageError("operands use different variable tables")
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero(num.table)
    dn, sn = _d_strip_monomial(num.terms)
    dd, sd = _d_strip_monomial(den.terms)
    # divide the primitive integer parts: by Gauss's lemma an exact quotient
    # of primitive polynomials is primitive, with integer coefficients
    ni, di = _integerize(dn), _integerize(dd)
    q = LaurentPoly(num.table, _d_divexact(ni, di), _clean=True)
    if ni is not dn or di is not dd:
        e, f = next(iter(dn)), next(iter(dd))
        q = q * (Fraction(dn[e], ni[e]) * Fraction(di[f], dd[f]))
    return q.shift(tuple(a - b for a, b in zip(sn, sd)))
