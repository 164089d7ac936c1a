"""The tuple-keyed Laurent kernel, kept verbatim as the reference for the
packed one.

Before monomials were packed into one int, a polynomial's terms were a dict
from exponent tuples (one doubled exponent per variable) to coefficients.
The dict functions and the LaurentPoly methods of that kernel are copied
here unchanged, except that the methods belong to TuplePoly, which holds
the same (table, terms) pair with tuple keys.  tests/test_packed_kernel.py
compares each with its packed counterpart; the other tests build their
tuple-keyed operands with these functions.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from operator import add, mul, sub
from typing import Mapping, Sequence

from qfock.laurent import (
    Coeff,
    EvaluationPointError,
    Exps,
    InternalInvariantError,
    LaurentPoly,
    T_KIND,
    UsageError,
    VarTable,
    _coef,
    _fr,
    _whole,
)

_Dict = dict


class TuplePoly:
    """A polynomial as the tuple kernel held it: table and tuple-keyed
    terms.  Without _clean, terms are normalized as the constructor did:
    each coefficient in the kernel's representation, zeros dropped."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[Exps, Coeff], *,
                 _clean: bool = False):
        self.table = table
        if _clean:
            self.terms = dict(terms)
        else:
            self.terms = {tuple(e): c for e, c in
                          ((e, _coef(c)) for e, c in terms.items()) if c != 0}

    @classmethod
    def of(cls, p: LaurentPoly) -> "TuplePoly":
        return cls(p.table, dict(p.items()), _clean=True)

    def shift(self, exps: Exps) -> "TuplePoly":
        """Multiply by the monomial with the given (doubled) exponents."""
        if not any(exps):
            return self
        return TuplePoly(self.table, _d_shift(self.terms, exps), _clean=True)

    def tddt(self, var: int) -> "TuplePoly":
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
        return TuplePoly(self.table, _whole(out), _clean=True)

    def evaluate(self, assignment: Mapping[int, Fraction],
                 new_table: VarTable | None = None) -> "TuplePoly":
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
        # each variable's powers, once per call: with v = a/b and lo, hi
        # the least and greatest exponent of v in use, v^k is the integer
        # a^(k-lo) * b^(hi-k) times a^lo / b^hi, so every term sums integer
        # products and the common scale multiplies each result once; a
        # variable that does not occur is only dropped
        powers = []
        scale = Fraction(1)
        for i, v in point:
            ks = {e[i] for e in self.terms}
            if any(ks):
                lo, hi = min(ks), max(ks)
                a, b = v.numerator, v.denominator
                powers.append(
                    (i, {k: a ** (k - lo) * b ** (hi - k) for k in ks}))
                scale *= Fraction(a) ** lo / Fraction(b) ** hi
        out: dict[Exps, Coeff] = {}
        for e, c in self.terms.items():
            for i, pw in powers:
                c *= pw[e[i]]
            ne = tuple(e[i] for i in keep)
            out[ne] = out.get(ne, 0) + c
        if scale != 1:
            out = {e: c * scale for e, c in out.items()}
        return TuplePoly(new_table, out)

    def rename_signed(self, new_table: VarTable,
                      mapping: Sequence[Sequence[tuple[int, int]]]
                      ) -> "TuplePoly":
        """Send variable j to the monomial of new_table variables given by
        mapping[j]: a sequence of (target, +1/-1) pairs, each target raised
        to its sign (the constant 1 for an empty sequence).  A stored
        exponent e of variable j adds e*sign to each target's exponent."""
        if len(mapping) != len(self.table):
            raise UsageError("mapping must cover every source variable")
        w = len(new_table)
        out: dict[Exps, Coeff] = {}
        for e, c in self.terms.items():
            ne = [0] * w
            for j, image in enumerate(mapping):
                if e[j]:
                    for tgt, sgn in image:
                        ne[tgt] += e[j] * sgn
            ne = tuple(ne)
            s = out.get(ne, 0) + c
            if s:
                out[ne] = s
            else:
                out.pop(ne, None)
        return TuplePoly(new_table, _whole(out), _clean=True)


def _d_add(a: _Dict, b: _Dict) -> _Dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


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


def _d_shift(a: _Dict, shift: Exps) -> _Dict:
    """a times the monomial with the given exponents."""
    return {tuple(map(add, e, shift)): c for e, c in a.items()}


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
