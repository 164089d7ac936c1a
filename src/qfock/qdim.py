"""Graded dimensions of the level-(l+1/2) irreducibles.

q_plus is the q-dimension of the direct sum of the two det-sectors, q_minus
the parity-signed version; qdim_irreducible takes the half sum/difference.

Each comes in a Weyl-sum form and an equivalent product form.  Two prefactor
readings are implemented:

  * "corrected": prefactors (-q^(+1/2);q)_inf (plus) and (q^(+1/2);q)_inf
    (minus); q_minus alternates over the permutation-only sign character and
    its product form carries (1 + q^(lam_i + l - i + 1/2)) factors.  This
    reading matches the Fock oracle and yields nonnegative irreducible
    coefficients.

  * "as-printed": prefactors with q^(-1/2), the full sign character and
    (1 - q^(...)) factors in both signs.  Kept so the verification suite can
    report the first failing coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .laurent import UsageError, VarTable
from .series import HalfSeries
from .special import pochhammer_inf, qq_inf
from .weylb import BLabel, _det_sector, check_partition, weyl_charges

FORMS = ("weyl-sum", "product")
READINGS = ("corrected", "as-printed")


@dataclass(frozen=True)
class QDimForm:
    form: str = "weyl-sum"
    reading: str = "corrected"

    def __post_init__(self):
        if self.form not in FORMS:
            raise UsageError(f"unknown form {self.form!r}")
        if self.reading not in READINGS:
            raise UsageError(f"unknown prefactor reading {self.reading!r}")


def _prefactor(table: VarTable, trunc2: int, twisted: bool,
               reading: str) -> HalfSeries:
    sign = 1 if twisted else -1
    poch = pochhammer_inf(table, trunc2 + 1, 1, coeff=sign)
    if reading == "corrected":
        return poch.truncate(trunc2)
    # as-printed: (sign*q^(-1/2); q)_inf = (1 - sign*q^(-1/2)) * (sign*q^(1/2); q)_inf
    factor = HalfSeries(table, trunc2 + 1,
                        {0: 1, -1: Fraction(-sign)}, _clean=False)
    return (factor * poch).truncate(trunc2)


def _qdim(lam: Sequence[int], l: int, trunc2: int, twisted: bool,
          form: QDimForm, table: VarTable) -> HalfSeries:
    lam = check_partition(lam, l)
    pref = _prefactor(table, trunc2, twisted, form.reading)
    if l:
        qq_inv = qq_inf(table, trunc2).inverse()
        for _ in range(l):
            pref = pref * qq_inv
    if form.form == "weyl-sum":
        body: dict[int, Fraction] = {}
        for full_char, perm_char, _mu, nrm2 in weyl_charges(lam, l):
            if nrm2 > trunc2:
                continue
            char = perm_char if (twisted and form.reading == "corrected") \
                else full_char
            body[nrm2] = body.get(nrm2, Fraction(0)) + char
        return pref * HalfSeries(table, trunc2, body)
    # product form
    lamv = list(lam) + [0] * (l - len(lam))
    nrm2 = sum(x * x for x in lamv)
    out = (HalfSeries.q_power(table, trunc2, nrm2) if nrm2 <= trunc2
           else HalfSeries.zero(table, trunc2))
    single_sign = 1 if (twisted and form.reading == "corrected") else -1
    for i in range(1, l + 1):
        e2 = 2 * lamv[i - 1] + 2 * (l - i) + 1
        out = out * HalfSeries(table, trunc2,
                               {0: 1, e2: single_sign} if e2 <= trunc2 else {0: 1})
    for i in range(1, l + 1):
        for j in range(i + 1, l + 1):
            for e2 in (2 * (lamv[i - 1] - lamv[j - 1] + j - i),
                       2 * (lamv[i - 1] + lamv[j - 1] + 2 * l - i - j + 1)):
                out = out * HalfSeries(table, trunc2,
                                       {0: 1, e2: -1} if e2 <= trunc2 else {0: 1})
    return pref * out


def q_plus(lam: Sequence[int], l: int, trunc2: int,
           form: QDimForm = QDimForm(),
           table: VarTable = VarTable.make(0)) -> HalfSeries:
    """q-dimension of the two det-sectors' direct sum."""
    return _qdim(lam, l, trunc2, False, form, table)


def q_minus(lam: Sequence[int], l: int, trunc2: int,
            form: QDimForm = QDimForm(),
            table: VarTable = VarTable.make(0)) -> HalfSeries:
    """Parity-signed q-dimension of the two det-sectors' direct sum."""
    return _qdim(lam, l, trunc2, True, form, table)


def qdim_irreducible(label: BLabel, l: int, trunc2: int,
                     table: VarTable = VarTable.make(0)) -> HalfSeries:
    """Graded dimension of one irreducible (corrected reading)."""
    form = QDimForm("weyl-sum", "corrected")
    plus = q_plus(label.partition, l, trunc2, form, table)
    minus = q_minus(label.partition, l, trunc2, form, table)
    return _det_sector(plus, minus, label.det)
