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

A polynomial is a dict mapping packed monomial keys to nonzero
coefficients; the zero polynomial stores no terms.  A key packs the doubled
exponents of one monomial into one int (Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007): over a table of width w, variable i owns the 16-bit field at bit
16*(w-1-i), which holds e_i + 2^14.  Variable 0 is most significant, so int
order on the keys is lex order on the exponent tuples.  The key of the
monomial 1, OFF (2^14 in every field), depends only on the width, and a
monomial product is one addition, k1 + k2 - OFF.  The top bit of each field
is a guard bit: no valid key sets one, and a product or shift whose
exponent leaves [-2^14, 2^14) does, so it raises UsageError instead of
wrapping into a wrong polynomial.  Every doubled exponent given to the
kernel must have absolute value below 2^14; a computed one may also reach
-2^14, which the layout still holds.  Only this module builds keys:
the constructor takes exponent tuples, items() gives them back, and
VarTable.key packs one monomial.  Outside it a key is only compared
through a mask of whole fields, VarTable.field_mask.

  t1^(1/2) - (1/2)*t1^(-1/2)   over  VarTable(("t1", "t2"))
      items():  [((-1, 0), Fraction(-1, 2)), ((1, 0), 1)]
      terms:    {0x40014000: 1, 0x3fff4000: Fraction(-1, 2)}

Monomial order, where one is needed (exact division, canonical forms), is lex
on the exponent tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from heapq import heappop, heappush
from itertools import combinations, compress, product, repeat
from math import gcd, isqrt
from operator import add, and_, mul, or_, sub
from fractions import Fraction
from typing import Container, Iterable, Mapping, Sequence

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

    In eval mode a table binds some t-variables to square-root values
    (values: (index, value) pairs, empty for an ordinary table).  A function
    given a bound table computes at that point, and its result lives over
    free(), the table with the bound variables removed: HalfSeries applies
    this rule to every series built over a bound table or renamed onto
    one.
    """

    names: tuple[str, ...]
    kinds: tuple[str, ...]
    values: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self) -> None:
        if len(self.names) != len(self.kinds):
            raise UsageError("names and kinds must have equal length")
        if len(set(self.names)) != len(self.names):
            raise UsageError(f"duplicate variable names: {self.names}")
        for k in self.kinds:
            if k not in (T_KIND, Z_KIND):
                raise UsageError(f"unknown variable kind {k!r}")
        # the packed monomial layout of this width, (OFF, shifts)
        object.__setattr__(self, "packing", _layout(len(self.names)))

    @classmethod
    def make(cls, n_t: int, n_z: int = 0) -> "VarTable":
        names = tuple(f"t{i + 1}" for i in range(n_t)) + tuple(
            f"z{i + 1}" for i in range(n_z))
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

    def check_vars(self, kind: str, indices: Sequence[int], n: int) -> tuple[int, ...]:
        """indices as a tuple; UsageError unless n distinct kind-variables."""
        indices = tuple(indices)
        if len(indices) != n:
            raise UsageError(f"need {n} {kind}-variables, got {len(indices)}")
        if len(set(indices)) != n:
            raise UsageError(f"repeated {kind}-variable in {indices}")
        for i in indices:
            if not (0 <= i < len(self) and self.kinds[i] == kind):
                raise UsageError(f"no {kind}-variable at index {i}")
        return indices

    def key(self, exps: Mapping[int, int]) -> int:
        """The packed key (see LaurentPoly) of the monomial with the given
        doubled exponents, 0 for every variable not in exps."""
        e = [0] * len(self)
        for i, v in exps.items():
            e[i] = v
        return _pack(e)

    def field_mask(self, indices: Iterable[int]) -> int:
        """The bits of a packed key that hold the fields of the variables at
        indices: key & field_mask(indices) determines their exponents."""
        shifts = self.packing[1]
        return sum(_MASK << shifts[i] for i in indices)

    def without(self, indices: Container[int]) -> "VarTable":
        """The unbound table with the variables at the given indices removed
        (the same table when none of them is here)."""
        keep = [i for i in range(len(self)) if i not in indices]
        if len(keep) == len(self) and not self.values:
            return self
        return VarTable(tuple(self.names[i] for i in keep),
                        tuple(self.kinds[i] for i in keep))

    def drop_images(self, indices: Container[int]
                    ) -> list[tuple[tuple[int, int], ...]]:
        """The rename_signed images onto without(indices): each kept
        variable to itself there, each removed one to 1."""
        keep = [i for i in range(len(self)) if i not in indices]
        pos = {i: j for j, i in enumerate(keep)}
        return [((pos[i], 1),) if i in pos else () for i in range(len(self))]

    def bind(self, point: Mapping[int, Fraction]) -> "VarTable":
        """The table with the t-variables at point's indices bound to
        point's square-root values (the same table for an empty point)."""
        if not point:
            return self
        for i, v in point.items():
            self.check_vars(T_KIND, (i,), 1)
            if v == 0:
                raise EvaluationPointError("square-root values must be nonzero")
        return VarTable(self.names, self.kinds,
                        tuple(sorted((i, _fr(v)) for i, v in point.items())))

    def free(self) -> "VarTable":
        """The table a result over this one lives on: the bound variables
        removed."""
        return self.without(dict(self.values))


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


# -- packed monomial keys ------------------------------------------------------

_F = 16                # bits per variable
_H = 1 << (_F - 2)     # the bias: a field holds e + _H
_MASK = (1 << _F) - 1


@cache
def _layout(w: int) -> tuple[int, tuple[int, ...]]:
    """(OFF, shifts) for tables of width w: OFF is the key of the monomial
    1 and shifts[i] the lowest bit of variable i's field.  OFF << 1 sets
    exactly the guard bits."""
    shifts = tuple(_F * (w - 1 - i) for i in range(w))
    return sum(_H << s for s in shifts), shifts


def _range_error() -> UsageError:
    return UsageError(f"exponent out of range: every doubled exponent must "
                      f"be an int of absolute value below {_H}")


def _pack(e: Sequence[int], lo: int = 1 - _H) -> int:
    """The key of an exponent vector over a table of width len(e), each
    exponent in [lo, 2^14): (-2^14, 2^14) for exponents given to the
    kernel, and lo = -2^14 for a computed one, which may reach it."""
    key = 0
    for x in e:
        if not (isinstance(x, int) and lo <= x < _H):
            raise _range_error()
        key = key << _F | x + _H
    return key


def _unpack(key: int, w: int) -> Exps:
    return tuple((key >> s & _MASK) - _H for s in _layout(w)[1])


def _checked(terms: dict, off: int) -> dict:
    """terms, once no key sets a guard bit (which an exponent that left
    the range sets); off is the table's OFF."""
    if terms and reduce(or_, terms) & off << 1:
        raise _range_error()
    return terms


class LaurentPoly:
    """Sparse Laurent polynomial over a VarTable with rational (int or
    Fraction) coefficients, keyed by packed monomials."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[Exps, Coeff] | None = None,
                 *, _clean: bool = False):
        """terms maps exponent tuples (one doubled exponent per variable) to
        coefficients.  With _clean, terms is taken as it is, not copied: a
        dict that nothing mutates afterwards, with packed keys and nonzero
        coefficients, each an int or a non-integral Fraction."""
        self.table = table
        if terms is None:
            self.terms: dict[int, Coeff] = {}
        elif _clean:
            self.terms = terms
        else:
            w = len(table)
            clean: dict[int, Coeff] = {}
            for e, c in terms.items():
                if not isinstance(e, tuple) or len(e) != w:
                    raise UsageError(f"exponent key {e!r} is not a tuple of "
                                     f"{w} exponents (one per table variable)")
                c = _coef(c)
                if c != 0:
                    clean[_pack(e)] = c
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
        return cls(table, {table.packing[0]: c}, _clean=True)

    @classmethod
    def one(cls, table: VarTable) -> "LaurentPoly":
        return cls.const(table, 1)

    @classmethod
    def monomial(cls, table: VarTable, exps: Mapping[int, int], c=1) -> "LaurentPoly":
        """c times the product of var_i^(exps[i]/2) (exponents doubled)."""
        c = _coef(c)
        if c == 0:
            return cls.zero(table)
        return cls(table, {table.key(exps): c}, _clean=True)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return (len(self.terms) == 1
                and self.terms.get(self.table.packing[0]) == ONE)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and
                                  self.table.packing[0] in self.terms)

    def constant_value(self) -> Coeff:
        if not self.is_constant():
            raise UsageError("not a constant polynomial")
        return self.terms.get(self.table.packing[0], ZERO)

    def variables_used(self) -> tuple[int, ...]:
        off, shifts = self.table.packing
        used = reduce(or_, (k ^ off for k in self.terms), 0)
        return tuple(i for i, s in enumerate(shifts) if used >> s & _MASK)

    def items(self) -> list[tuple[Exps, Coeff]]:
        """The (exponent tuple, coefficient) pairs, in lex order of the
        exponents."""
        shifts = self.table.packing[1]
        return [(tuple((k >> s & _MASK) - _H for s in shifts), c)
                for k, c in sorted(self.terms.items())]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if self.table is not other.table and self.table != other.table:
            raise UsageError("operands use different variable tables")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        return LaurentPoly(self.table, _d_add(self.terms, other.terms),
                           _clean=True)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.table, {e: -c for e, c in self.terms.items()},
                           _clean=True)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            c = _coef(other)
            return self._moved(0, c) if c else LaurentPoly.zero(self.table)
        self._check(other)
        p, m = (other, self) if len(self.terms) == 1 else (self, other)
        off = self.table.packing[0]
        if len(m.terms) == 1:
            # by a monomial: a scalar, or a shift of every key
            (k, c), = m.terms.items()
            return p._moved(k - off, c)
        return LaurentPoly(self.table, _whole(_d_mul(p.terms, m.terms, off)),
                           _clean=True)

    __rmul__ = __mul__

    def _moved(self, d: int, c: Coeff = ONE) -> "LaurentPoly":
        """self times c*x^m, with d the key of m less OFF (a nonzero int or
        non-integral Fraction c; each exponent of m in (-2^14, 2^14])."""
        if d:
            terms = ({k + d: v for k, v in self.terms.items()} if c == 1 else
                     _whole({k + d: v * c for k, v in self.terms.items()}))
            _checked(terms, self.table.packing[0])
        elif c == 1:
            return self  # nothing mutates .terms in place
        else:
            terms = _whole({k: v * c for k, v in self.terms.items()})
        return LaurentPoly(self.table, terms, _clean=True)

    def shift(self, exps: Exps) -> "LaurentPoly":
        """Multiply by the monomial with the given (doubled) exponents."""
        if len(exps) != len(self.table):
            raise UsageError("shift needs one exponent per table variable")
        return self._moved(_pack(exps) - self.table.packing[0])

    # -- the t d/dt operator ------------------------------------------------

    def tddt(self, var: int) -> "LaurentPoly":
        """Apply t d/dt in the given variable.

        A monomial with stored exponent e (true exponent e/2) is an
        eigenvector with eigenvalue e/2.
        """
        if self.table.kinds[var] != T_KIND:
            raise UsageError("tddt applies to t-type variables only")
        s = self.table.packing[1][var]
        out: dict[int, Coeff] = {}
        for key, c in self.terms.items():
            k = (key >> s & _MASK) - _H
            if k:
                out[key] = c * Fraction(k, 2) if k & 1 else c * (k >> 1)
        return LaurentPoly(self.table, _whole(out), _clean=True)

    # -- evaluation and monomial maps -----------------------------------------

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
        if new_table is None:
            new_table = self.table.without(assignment)
        images = self.table.drop_images(assignment)
        if len(new_table) != sum(map(bool, images)):
            raise UsageError("new_table must hold the unassigned variables")
        shifts = self.table.packing[1]
        # each variable's powers, once per call: with v = a/b and lo, hi
        # the least and greatest exponent of v in use, v^k is the integer
        # a^(k-lo) * b^(hi-k) times a^lo / b^hi, so every term takes integer
        # products, and the common scale multiplies each result once, after
        # the renaming that drops the assigned variables sums the terms; a
        # variable that does not occur is only dropped.  Powers are keyed
        # by the field, e + 2^14, which differences leave unchanged.
        powers = []
        scale = Fraction(1)
        for i, v in point:
            s = shifts[i]
            ks = {k >> s & _MASK for k in self.terms}
            if ks and ks != {_H}:
                lo, hi = min(ks), max(ks)
                a, b = v.numerator, v.denominator
                powers.append(
                    (s, {k: a ** (k - lo) * b ** (hi - k) for k in ks}))
                scale *= Fraction(a) ** (lo - _H) / Fraction(b) ** (hi - _H)
        terms: dict[int, Coeff] = {}
        for k, c in self.terms.items():
            for s, pw in powers:
                c *= pw[k >> s & _MASK]
            terms[k] = c
        if not len(new_table):  # a number: no renaming needed to sum it
            return LaurentPoly.const(new_table, sum(terms.values()) * scale)
        return LaurentPoly(self.table, _whole(terms), _clean=True
                           ).rename_signed(new_table, images) * scale

    def rename_signed(self, new_table: VarTable,
                      mapping: Sequence[Sequence[tuple[int, int]]]
                      ) -> "LaurentPoly":
        """Send variable j to the monomial of new_table variables given by
        mapping[j]: a sequence of (target, +1/-1) pairs, each target raised
        to its sign (the constant 1 for an empty sequence).  A stored
        exponent e of variable j adds e*sign to each target's exponent."""
        if len(mapping) != len(self.table):
            raise UsageError("mapping must cover every source variable")
        noff, nshifts = new_table.packing
        out: dict[int, Coeff] = {}
        targets = [t for image in mapping for t, _ in image]
        if (len(set(targets)) < len(targets)
                and max(map(targets.count, targets)) > 2):
            # a target field summing three or more exponents could carry
            # past its guard bit: each monomial goes through its tuple
            for e, c in self.items():
                ne = [0] * len(new_table)
                for x, image in zip(e, mapping):
                    for tgt, sgn in image:
                        ne[tgt] += x * sgn
                k = _pack(ne, -_H)
                c += out.get(k, 0)
                if c:
                    out[k] = c
                else:
                    del out[k]
            return LaurentPoly(new_table, _whole(out), _clean=True)
        # a target field sums at most two exponents, in (-2^15, 2^15], so
        # its guard bit is set whenever the sum leaves the range
        moves = []
        for s, image in zip(self.table.packing[1], mapping):
            d = sum(sgn * (1 << nshifts[tgt]) for tgt, sgn in image)
            if d:
                moves.append((s, d))
        for k, c in self.terms.items():
            nk = noff
            for s, d in moves:
                nk += ((k >> s & _MASK) - _H) * d
            c += out.get(nk, 0)
            if c:
                out[nk] = c
            else:
                del out[nk]
        return LaurentPoly(new_table, _whole(_checked(out, noff)), _clean=True)

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
    for e, c in reversed(p.items()):
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
# The packed kernel: dicts {key: coeff} over one table
# ---------------------------------------------------------------------------

_Dict = dict


def _d_add(a: _Dict, b: _Dict) -> _Dict:
    """a + b, each new sum in the kernel's representation."""
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if not s:
            del out[e]
        elif s.__class__ is int or s.denominator != 1:
            out[e] = s
        else:
            out[e] = s.numerator
    return out


def _d_neg(a: _Dict) -> _Dict:
    return {e: -c for e, c in a.items()}


def _d_mul(a: _Dict, b: _Dict, off: int, out: _Dict | None = None) -> _Dict:
    """The product of packed dicts over a table whose OFF is off; given out,
    added to it in place, range unchecked (_checked) and maybe whole."""
    if out is None:
        return _checked(_d_mul(a, b, off, {}), off)
    get = out.get
    for k1, c1 in a.items():
        k1 -= off
        for k2, c2 in b.items():
            k = k1 + k2
            s = get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _d_divexact(num: _Dict, den: _Dict, w: int) -> _Dict:
    """Exact division of packed dicts over a table of width w, in lex
    order; raises if not exact.

    Heap-ordered (Monagan & Pearce, "Sparse polynomial division using a
    heap", J. Symb. Comp. 46(7), 2011): the remainder is never stored.  A
    heap yields the next lex-largest monomial of num - quo*den by merging
    num with the products quo_j*den_i, each quotient term advancing along
    den one term at a time, so a step costs O(log #quo) instead of a scan
    of the whole remainder.  The heap does not run on the stored keys:
    each call repacks the exponents into one int per monomial in a mixed
    radix as tight as the operands allow (first variable most
    significant, so int order is still lex order), which keeps the heap's
    ints small.  The quotient exponents are range-checked against the
    degree bounds an exact quotient obeys, which keeps every repacked
    product inside the radix.  Quotient terms come out in decreasing lex
    order; a two-term divisor takes the linear pass _d_div_binomial.

    When every coefficient of num and den is an int, the division is over
    Z and a quotient coefficient that is not an integer raises; otherwise
    it is over Q, with coefficients in the kernel's representation.
    """
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    if not num:
        return {}
    over_z = {*map(type, num.values()), *map(type, den.values())} == {int}
    if len(den) == 2:
        return _d_div_binomial(num, den, over_z, w)
    off, shifts = _layout(w)
    # each variable's exponent field (e + 2^14) term by term
    ncols = [[k >> s & _MASK for k in num] for s in shifts]
    dcols = [[k >> s & _MASK for k in den] for s in shifts]
    tops = list(map(max, ncols))
    # an exact quotient has degree deg(num) - deg(den) in every variable
    his = list(map(sub, tops, map(max, dcols)))
    if any(h < 0 for h in his):
        raise InternalInvariantError("non-exact polynomial division")
    los = list(map(min, map(min, ncols), map(min, dcols)))
    radix = [1] * w
    for v in range(w - 2, -1, -1):
        radix[v] = radix[v + 1] * (tops[v + 1] - los[v + 1] + 1)
    roff = sum(map(mul, los, radix))
    nrows = zip(*ncols) if w else [()] * len(num)
    drows = zip(*dcols) if w else [()] * len(den)
    fs = sorted(((sum(map(mul, e, radix)) - roff, c)
                 for e, c in zip(nrows, num.values())), reverse=True)
    gs = sorted(((sum(map(mul, e, radix)) - roff, e, c)
                 for e, c in zip(drows, den.values())), reverse=True)
    glead_p, glead, glc = gs[0]
    gp = [g[0] for g in gs]
    gc = [g[2] for g in gs]
    ng, nf = len(gs), len(fs)
    qp: list[int] = []
    qc: list = []
    quo: _Dict = {}
    heap: list[int] = []          # negated repacked monomials, each once
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
        qk = off
        r = m
        for v in range(w):
            d, r = divmod(r, radix[v])
            x = d + los[v] - glead[v]
            if x < 0 or x > his[v]:
                raise InternalInvariantError("non-exact polynomial division")
            qk += x << shifts[v]
        if over_z:
            qcoef, r = divmod(c, glc)
            if r:
                raise InternalInvariantError("non-exact coefficient division")
        else:
            qcoef = _coef(Fraction(c) / glc)
        quo[qk] = qcoef
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


def _d_div_binomial(num: _Dict, den: _Dict, over_z: bool, w: int) -> _Dict:
    """_d_divexact by den = a*x^P + b*x^Q, P lex above Q, in one pass: the
    remainder's leading term c*x^m leaves -(c/a)*b at x^(m - P + Q), below
    every key carried before, so num's keys merge with a FIFO of carried
    keys.  A quotient exponent below 0 (the heap path's bound: it ends a
    non-exact chain of carries) or above 2^14 - 1 - deg(den) raises."""
    (pk, a), (qk, b) = sorted(den.items(), reverse=True)
    off, shifts = _layout(w)
    guard = off << 1
    # each field of m - P is in (-2^15, 2^15): lo - m sets a guard bit for
    # a negative exponent of x^(m - P), and m - hi one for one too large
    lo = pk - guard - 1
    hi = pk - sum(max(pk >> s & _MASK, qk >> s & _MASK) << s for s in shifts)
    qd, cd, nb = pk - off, pk - qk, -b
    unit = over_z and a == 1
    keys = sorted(num, reverse=True) + [-1]  # -1: below every key
    ck, cc, quo = [], [], {}  # the FIFO: carried keys and coefficients
    fi = ci = 0
    while True:
        nk = keys[fi]
        if ci < len(ck) and ck[ci] >= nk:
            m, c = ck[ci], cc[ci]
            ci += 1
        elif nk < 0:
            return quo
        else:
            m, c = nk, 0
        if m == nk:
            fi += 1
            c += num[m]
            if not c:
                continue
        if ((lo - m) | (m - hi)) & guard:
            raise InternalInvariantError("non-exact polynomial division")
        if unit:
            q = c
        elif over_z:
            q, r = divmod(c, a)
            if r:
                raise InternalInvariantError("non-exact coefficient division")
        else:
            q = _coef(Fraction(c) / a)
        quo[m - qd] = q
        ck.append(m - cd)
        cc.append(nb * q)


def _d_strip(a: _Dict, w: int) -> tuple[_Dict, int]:
    """Factor out the componentwise-minimal monomial m of a packed dict over
    a table of width w: (a / x^m, key of m less OFF)."""
    if not a:
        return a, 0
    off, shifts = _layout(w)
    d = sum(min(k >> s & _MASK for k in a) << s for s in shifts) - off
    if not d:
        return a, 0
    return _checked({k - d: c for k, c in a.items()}, off), d


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
    """Integer content 1, positive lex-leading coefficient (packed or
    tuple keys: both order lex)."""
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


# ---------------------------------------------------------------------------
# Binomial factors
# ---------------------------------------------------------------------------
#
# Every denominator the library builds is a product of binomials
# x^p - c*x^q with p, q disjoint 0/1 vectors of stored exponents and
# c = +-1 (u_S -+ 1 and their Weyl-denominator relatives; z_i - z_j is
# (u_i - u_j)(u_i + u_j) in the stored square roots).  Such a binomial is
# irreducible: p - q is primitive, so a unimodular change of variables
# makes it y - c.  Distinct (p, q, c) with p lex above q are not associate.
# A binomial is held as the packed keys of p and q with c.  _binomial_split
# finds such a factorization by trial division; divisibility by one
# binomial is a linear substitution test (x^p = c*x^q), and each exact
# division raises on a remainder.  RatFunc keeps each denominator's split
# (ratfunc's factor record), so its arithmetic cancels by the substitution
# test and exact division alone; only a denominator that does not split
# comes to the gcd.

# more variables than this, and _binomial_split gives up
# (3^k - 1 candidate binomials in k variables)
_SPLIT_MAX_VARS = 5

Binomial = tuple[int, int, int]  # (p, q, c) for x^p - c*x^q, p lex above q


def _binomial_split(f: _Dict, w: int) -> list[tuple[Binomial, int]] | None:
    """Factor f (packed over a table of width w, no monomial content) into
    binomials with multiplicities, or None if f is not such a product times
    a constant.

    A factor's p divides the lex-leading monomial of f and its q the
    lex-trailing one, which bounds the candidates tried.  Once what is left
    is itself one binomial, it is taken as found.
    """
    lead, trail = max(f), min(f)
    if abs(f[lead]) != abs(f[trail]):
        return None  # in such a product they agree up to sign
    le, te = _unpack(lead, w), _unpack(trail, w)
    ps = [v for v, x in enumerate(le) if x]
    qs = [v for v, x in enumerate(te) if x]
    if len(set(ps) | set(qs)) > _SPLIT_MAX_VARS:
        return None
    factors = []
    for (p, q), c in product(_binomial_supports(w, ps, qs), (1, -1)):
        if len(f) == 1 or (len(f) == 2 and max(le + te) == 1):
            break
        pk, qk = _pack(p), _pack(q)
        m = 0
        while (all(x <= y for x, y in zip(p, le))
               and all(x <= y for x, y in zip(q, te))
               and _binomial_divides(f, pk, qk, c)):
            f = _d_divexact(f, {pk: 1, qk: -c}, w)
            lead, trail = next(iter(f)), next(reversed(f))
            le, te = _unpack(lead, w), _unpack(trail, w)
            m += 1
        if m:
            factors.append(((pk, qk, c), m))
    if len(f) == 2 and max(le + te) == 1:
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


def _binomial_divides(f: _Dict, p: int, q: int, c: int,
                      values: dict | None = None) -> bool:
    """Whether x^p - c*x^q divides the packed dict f, by substituting
    x^p = c*x^q.  values, when given, holds f's values at the quick test's
    points across calls; the caller empties it when f changes.

    With j the first variable of p and d = p - q (so d_j = 1), the monomial
    x^e becomes c^(e_j) x^(e - e_j*d), whose j-th exponent is 0; those
    monomials are independent modulo the binomial, so it divides f exactly
    when every class sums to zero.  On keys the substitution is
    key - e_j*(p - q).  A field may leave its range there, but each stays
    within a window of 2^16 values, so distinct classes keep distinct
    keys.  A binomial without monomial content divides f in the polynomial
    ring as soon as it does in the Laurent ring.
    """
    # the lowest bit of variable j's field: p and q differ in the fields of
    # their variables, and j is the first of them
    s = (p ^ q).bit_length() - 1
    # quick necessary condition: f vanishes at x_j = c, all else 1, a point
    # on the binomial's zero set; 2^14 is even, so bit s is e_j's parity,
    # and at c = -1 the terms of odd e_j change sign
    point = 0 if c > 0 else 1 << s
    v = None if values is None else values.get(point)
    if v is None:
        v = sum(f.values())
        if point:
            v -= 2 * sum(compress(f.values(), map(and_, f, repeat(point))))
        if values is not None:
            values[point] = v
    if v:
        return False
    d = p - q
    acc: _Dict = {}
    for k, a in f.items():
        n = (k >> s & _MASK) - _H
        if n:
            k -= n * d
            if c < 0 and n & 1:
                a = -a
        acc[k] = acc.get(k, 0) + a
    return not any(acc.values())


# ---------------------------------------------------------------------------
# Polynomial GCD (heuristic GCD; the subresultant PRS as a fallback)
# ---------------------------------------------------------------------------
#
# These helpers work on raw dicts {exps: coeff} keyed by exponent tuples,
# whose exponents are all nonnegative (callers strip monomial content
# first); poly_gcd and ratfunc convert at this boundary.  The "main
# variable" view keeps full-width tuples and treats one slot as the
# polynomial variable, so coefficient-ring arithmetic is the same dict
# arithmetic; products and exact divisions go through the packed kernel.
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


def _tuples(a: _Dict, w: int) -> _Dict:
    """A packed dict over a table of width w, keyed by exponent tuples."""
    shifts = _layout(w)[1]
    return {tuple((k >> s & _MASK) - _H for s in shifts): c
            for k, c in a.items()}


def _packed(a: _Dict) -> _Dict:
    return {_pack(e): c for e, c in a.items()}


def _t_mul(a: _Dict, b: _Dict) -> _Dict:
    """The product of nonzero tuple-keyed dicts."""
    w = len(next(iter(a)))
    return _tuples(_d_mul(_packed(a), _packed(b), _layout(w)[0]), w)


def _t_divexact(num: _Dict, den: _Dict) -> _Dict:
    """_d_divexact on tuple-keyed dicts."""
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    w = len(next(iter(den)))
    return _tuples(_d_divexact(_packed(num), _packed(den), w), w)


def _d_pow(a: _Dict, n: int, width: int) -> _Dict:
    out: _Dict = {(0,) * width: 1}
    for _ in range(n):
        out = _t_mul(out, a)
    return out


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


def _d_shift(a: _Dict, shift: Exps) -> _Dict:
    """a times the monomial with the given exponents."""
    return {tuple(map(add, e, shift)): c for e, c in a.items()}


def _d_prem(f: _Dict, g: _Dict, v: int) -> _Dict:
    """Pseudo-remainder of f by g in variable v: lc(g)^(df-dg+1) f mod g."""
    dg = _d_deg(g, v)
    lg = _d_lc(g, v)
    r = dict(f)
    e = _d_deg(f, v) - dg + 1
    shift = [0] * len(next(iter(g)))
    while r:
        dr = _d_deg(r, v)
        if dr < dg:
            break
        shift[v] = dr - dg
        lr = _d_shift(_d_lc(r, v), tuple(shift))
        r = _d_add(_t_mul(lg, r), _d_neg(_t_mul(lr, g)))
        e -= 1
    if e > 0 and r:
        width = len(next(iter(r)))
        r = _t_mul(r, _d_pow(lg, e, width))
    return r


def _d_strip_monomial(a: _Dict) -> tuple[_Dict, Exps]:
    """Factor out the componentwise-minimal monomial; returns (stripped, shift)."""
    if not a:
        return a, ()
    mins = tuple(map(min, zip(*a)))
    if not any(mins):
        return a, mins
    return _d_shift(a, tuple(-m for m in mins)), mins


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


def _d_gcd(a: _Dict, b: _Dict) -> _Dict:
    """GCD of polynomials with nonnegative exponents and int or Fraction
    coefficients: integer-primitive, with positive lex-leading coefficient.
    GCDHEU first; the PRS only when GCDHEU certifies no candidate."""
    return _ig_gcd(_integerize(a), _integerize(b))


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
        g = _d_shift(g, common)
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
        _t_divexact(a, h)
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
    pg = _ig_prs_gcd(_t_divexact(a, ca), _t_divexact(b, cb), v)
    g = _ig_primitive(_t_mul(_ig_gcd(ca, cb), pg))
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
                psi = _t_divexact(num, _d_pow(psi, delta_prev - 1, w))
            else:
                psi = _t_mul(num, _d_pow(psi, 1 - delta_prev, w))
            beta = _d_neg(_t_mul(lc_prev, _d_pow(psi, delta, w)))
        rem = _t_divexact(rem, beta)
        delta_prev = delta
        r_prev, r_cur = r_cur, rem
        d_new = _d_deg(r_cur, v)
        if d_new == 0:
            return unit
        delta = _d_deg(r_prev, v) - d_new
    if _d_deg(r_cur, v) == 0:
        return unit
    cont = _ig_content(r_cur, v)
    return _t_divexact(r_cur, cont)


# -- public wrappers ---------------------------------------------------------

def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """GCD of the polynomial parts (monomial content handled by the caller).

    Inputs may be Laurent; each is shifted to have min exponent 0 first, and
    the returned gcd is a polynomial with min exponent 0 (monomial factors of
    a Laurent polynomial are units in the Laurent ring).
    """
    if a.table != b.table:
        raise UsageError("operands use different variable tables")
    w = len(a.table)
    da, _ = _d_strip_monomial(_tuples(a.terms, w))
    db, _ = _d_strip_monomial(_tuples(b.terms, w))
    return LaurentPoly(a.table, _d_gcd(da, db))


def poly_divexact(num: LaurentPoly, *dens: LaurentPoly) -> LaurentPoly:
    """Exact division by the product of dens in the Laurent ring, raising
    InternalInvariantError on a remainder.  Each operand is stripped and
    made primitive integer once, and by Gauss's lemma so is each quotient,
    which the next divisor divides; scale and monomial go on once."""
    w, off = len(num.table), num.table.packing[0]
    scale, shift, q = 1, [0] * w, None
    for sign, p in ((1, num), *((-1, den) for den in dens)):
        num._check(p)
        dp, sp = _d_strip(p.terms, w)
        ip = _integerize(dp)
        if ip is not dp:
            e = next(iter(dp))
            scale *= Fraction(dp[e], ip[e]) ** sign
        if sp:
            shift = [x + sign * y for x, y in zip(shift, _unpack(sp + off, w))]
        q = ip if q is None else _d_divexact(q, ip, w)
    # shift holds the result's least exponents (for a zero num, those of
    # 1/prod(dens)), so a result out of range fails _pack or sets a guard bit
    return LaurentPoly(num.table, q, _clean=True)._moved(
        _pack(shift, -_H) - off, _coef(scale))
