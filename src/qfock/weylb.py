"""Type-B combinatorics: partition checks, orthogonal-group labels, the Weyl
group W(B_l) as the orbit of rho, weight arithmetic, Weyl denominators, and
the odd-orthogonal character as an exact determinant ratio.

Weights are tuples of Fractions (half-integers appear through rho).  Every
sum over the hyperoctahedral group W(B_l) of signed permutations needs only
sigma(rho) and two characters of sigma, so weyl_orbit yields those and the
group is never composed or inverted.  The two characters are the full sign
character (-1)^(length), which equals the determinant of the signed
permutation matrix, and the permutation-only sign, which forgets the sign
flips.  The "minus" Weyl denominator is the alternating sum over the full
character; the "plus" variant alternates only over the permutation sign and
equals the determinant with + entries.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product as iproduct
from typing import Iterable, Iterator, Sequence

from .laurent import LaurentPoly, UsageError, VarTable, Z_KIND, poly_divexact
from .ratfunc import RatFunc
from .special import _det

Weight = tuple[Fraction, ...]


def check_partition(parts: Sequence[int], l: int | None = None,
                    allow_negative: bool = False) -> tuple[int, ...]:
    """Validate a weakly decreasing integer sequence; returns it as a tuple."""
    t = tuple(int(p) for p in parts)
    for a, b in zip(t, t[1:]):
        if a < b:
            raise UsageError(f"parts must be weakly decreasing: {t}")
    if not allow_negative and any(p < 0 for p in t):
        raise UsageError(f"parts must be nonnegative: {t}")
    if l is not None and len(t) > l:
        raise UsageError(f"partition {t} has more than {l} parts")
    return t


@dataclass(frozen=True)
class BLabel:
    """An irreducible label: a partition with at most l parts plus a det flag."""

    partition: tuple[int, ...]
    det: bool = False

    def __post_init__(self):
        check_partition(self.partition)


def _det_sector(plain, signed, det: bool):
    """One irreducible's function from the plain and the parity-signed
    functions of the two det-sectors' direct sum: their half sum, or half
    difference for the det sector."""
    return ((plain - signed) if det else (plain + signed)) * Fraction(1, 2)


def rho_B(l: int) -> Weight:
    """(l - 1/2, l - 3/2, ..., 1/2)."""
    if l < 0:
        raise UsageError("rank must be nonnegative")
    return tuple(Fraction(2 * (l - i) + 1, 2) for i in range(1, l + 1))


def sign_vectors(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """All vectors in {+1,-1}^n with their products."""
    for eps in iproduct((1, -1), repeat=n):
        p = 1
        for e in eps:
            p *= e
        yield eps, p


def weyl_orbit(l: int) -> Iterator[tuple[Weight, int, int]]:
    """(sigma(rho), full character, permutation sign) for each of the
    2^l l! signed permutations sigma, sigma(rho)_i = s_i rho_perm(i)."""
    rho = rho_B(l)
    for perm in permutations(range(l)):
        inversions = sum(a > b for i, a in enumerate(perm)
                         for b in perm[i + 1:])
        perm_sign = -1 if inversions % 2 else 1
        for signs, flips in sign_vectors(l):
            yield (tuple(s * rho[p] for s, p in zip(signs, perm)),
                   perm_sign * flips, perm_sign)


def pad_weight(parts: Sequence[int], l: int) -> Weight:
    t = tuple(Fraction(p) for p in parts) + (Fraction(0),) * (l - len(parts))
    if len(t) != l:
        raise UsageError(f"weight {parts} does not fit rank {l}")
    return t


def _z_vars(table: VarTable, l: int, z_indices: Sequence[int] | None) -> tuple[int, ...]:
    """The l distinct charge variables (default: every z-variable)."""
    return table.check_vars(
        Z_KIND, table.z_indices() if z_indices is None else z_indices, l)


def weyl_denominator_B(l: int, table: VarTable,
                       z_indices: Sequence[int] | None = None,
                       variant: str = "minus") -> LaurentPoly:
    """The signed sum over W(B_l) of z^(sigma(rho)).

    variant "minus" uses the full sign character (the type-B Weyl
    denominator); variant "plus" uses the permutation sign only (the
    alternant with + entries, used for twisted-trace extraction).
    """
    minus = _entry_sign(variant) < 0
    zi = _z_vars(table, l, z_indices)
    out = LaurentPoly.zero(table)
    for srho, full_char, perm_sign in weyl_orbit(l):
        exps = {z: int(2 * w) for z, w in zip(zi, srho)}
        out = out + LaurentPoly.monomial(
            table, exps, full_char if minus else perm_sign)
    return out


def extraction_charges(lam: Sequence[int], l: int, variant: str = "minus"
                       ) -> dict[tuple[int, ...], int]:
    """The charge vectors lam + rho - sigma(rho) over W(B_l), one per term
    of the variant's Weyl denominator, each with that term's sign: the
    coefficient of z^(lam+rho) in a trace times the denominator reads the
    trace at these charges only, each times its sign."""
    minus = _entry_sign(variant) < 0
    target = tuple(a + b for a, b in zip(pad_weight(lam, l), rho_B(l)))
    return {tuple(int(t - w) for t, w in zip(target, srho)):
            full_char if minus else perm_sign
            for srho, full_char, perm_sign in weyl_orbit(l)}


def extraction_sectors(lams: Iterable[Sequence[int]], l: int
                       ) -> frozenset[tuple[int, ...]]:
    """Every charge vector the extraction of some lam in lams reads, with
    either variant (both have the whole orbit as their support)."""
    return frozenset(c for lam in lams for c in extraction_charges(lam, l))


def weyl_denominator_det(l: int, table: VarTable,
                         z_indices: Sequence[int] | None = None,
                         variant: str = "minus") -> LaurentPoly:
    """det(z_j^(rho_i) -/+ z_j^(-rho_i)) expanded over the Laurent ring."""
    zi = _z_vars(table, l, z_indices)
    rho = rho_B(l)
    return _alternant_det(table, zi, rho, variant)


def _entry_sign(variant: str) -> int:
    """The sign of z^(-e) in an alternant entry: -1 for the "minus"
    variant, +1 for "plus"; any other variant is refused."""
    if variant not in ("minus", "plus"):
        raise UsageError(f"unknown denominator variant {variant!r}")
    return -1 if variant == "minus" else 1


def _alternant_det(table: VarTable, zi: Sequence[int], exps: Weight,
                   variant: str) -> LaurentPoly:
    """det(z_j^(e_i) -/+ z_j^(-e_i)) over the exponents e of exps."""
    sign = _entry_sign(variant)
    entries = []
    for e in exps:
        e2 = int(2 * e)
        entries.append([LaurentPoly.monomial(table, {z: e2})
                        + LaurentPoly.monomial(table, {z: -e2}, sign)
                        for z in zi])
    return _det(entries, LaurentPoly.one(table), operator.mul, operator.add,
                operator.neg) or LaurentPoly.zero(table)


def char_numerator_B(lam: Sequence[int], l: int, table: VarTable,
                     z_indices: Sequence[int] | None = None,
                     variant: str = "minus") -> LaurentPoly:
    """det(z_j^(lam_i+rho_i) -/+ z_j^(-(lam_i+rho_i)))."""
    zi = _z_vars(table, l, z_indices)
    lam = check_partition(lam, l)
    rho = rho_B(l)
    nu = tuple(Fraction(lam[i]) + rho[i] if i < len(lam) else rho[i]
               for i in range(l))
    return _alternant_det(table, zi, nu, variant)


def weyl_denominator_factors(l: int, table: VarTable,
                             z_indices: Sequence[int] | None = None
                             ) -> list[LaurentPoly]:
    """The l^2 binomials whose product is the type-B Weyl denominator:
    z_i - z_j and 1 - z_i^(-1) z_j^(-1) for i < j, then z_i^(1/2) -
    z_i^(-1/2) (in this order the quotients on the way stay smaller)."""
    zi = _z_vars(table, l, z_indices)
    pairs = [pq for a, b in combinations(zi, 2)
             for pq in (({a: 2}, {b: 2}), ({}, {a: -2, b: -2}))]
    return [LaurentPoly.monomial(table, p) - LaurentPoly.monomial(table, q)
            for p, q in pairs + [({z: 1}, {z: -1}) for z in zi]]


def char_B(lam: Sequence[int], l: int, table: VarTable | None = None,
           z_indices: Sequence[int] | None = None) -> RatFunc:
    """Odd-orthogonal character as the exact ratio of two determinants.

    Exact division by the Weyl denominator's binomial factors gives the
    quotient, a Laurent polynomial; a remainder raises InternalInvariantError.
    """
    if table is None:
        table = VarTable.make(0, l)
    num = char_numerator_B(lam, l, table, z_indices, "minus")
    return RatFunc.from_poly(poly_divexact(
        num, *weyl_denominator_factors(l, table, z_indices)))
