"""Graded dimensions of the level-(l+1/2) irreducibles.

q_plus is the q-dimension of the direct sum of the two det-sectors, q_minus
the parity-signed version; qdim_irreducible takes the half sum/difference.

A q-dimension is the trace with no insertions, so the Weyl-sum form is the
0-point function: d_sum_function, d_twisted_function or irreducible_function
at n = 0.  The product form is computed on its own, as a cross-check.  Two
prefactor readings are implemented:

  * "corrected": prefactors (-q^(+1/2);q)_inf (plus) and (q^(+1/2);q)_inf
    (minus); q_minus alternates over the permutation-only sign character and
    its product form carries (1 + q^(lam_i + l - i + 1/2)) factors.  This
    reading matches the Fock oracle and yields nonnegative irreducible
    coefficients.

  * "as-printed": prefactors (s q^(-1/2);q)_inf, s = 1 (minus) or -1 (plus),
    the full sign character and (1 - q^(...)) factors in both signs.  As
    (s q^(-1/2);q)_inf = (1 - s q^(-1/2)) (s q^(1/2);q)_inf, the Weyl sum is
    (1 - s q^(-1/2)) times the "printed" structure at n = 0, exact to one
    half-step less.  Kept so the verification suite can report the first
    failing coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .correlation import (
    d_sum_function,
    d_twisted_function,
    irreducible_function,
)
from .laurent import UsageError, VarTable
from .series import HalfSeries
from .special import pochhammer_inf, qq_inf
from .weylb import BLabel, check_partition

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


def _qdim(lam: Sequence[int], l: int, trunc2: int, twisted: bool,
          form: QDimForm, table: VarTable) -> HalfSeries:
    printed = form.reading == "as-printed"
    s = 1 if twisted else -1
    if form.form == "weyl-sum":
        fn = d_twisted_function if twisted else d_sum_function
        out = fn(lam, l, 0, trunc2, "printed" if printed else "convolved", table)
    else:
        lamv = list(check_partition(lam, l)) + [0] * (l - len(lam))
        nrm2 = sum(x * x for x in lamv)
        out = (HalfSeries.q_power(table, trunc2, nrm2) if nrm2 <= trunc2
               else HalfSeries.zero(table, trunc2))
        single_sign = 1 if (twisted and not printed) else -1
        for i in range(1, l + 1):
            e2 = 2 * lamv[i - 1] + 2 * (l - i) + 1
            out = out * HalfSeries(table, trunc2, {0: 1, e2: single_sign}
                                   if e2 <= trunc2 else {0: 1})
        for i in range(1, l + 1):
            for j in range(i + 1, l + 1):
                for e2 in (2 * (lamv[i - 1] - lamv[j - 1] + j - i),
                           2 * (lamv[i - 1] + lamv[j - 1] + 2 * l - i - j + 1)):
                    out = out * HalfSeries(table, trunc2, {0: 1, e2: -1}
                                           if e2 <= trunc2 else {0: 1})
        # (s q^(1/2);q)_inf (q;q)_inf^-l
        out = out * pochhammer_inf(table, trunc2, 1, coeff=s)
        if l:
            qq_inv = qq_inf(table, trunc2).inverse()
            for _ in range(l):
                out = out * qq_inv
    if not printed:
        return out
    # (s q^(-1/2);q)_inf = (1 - s q^(-1/2)) (s q^(1/2);q)_inf
    return HalfSeries(table, trunc2 + 1, {0: 1, -1: -s}) * out


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
    return irreducible_function(label, l, 0, trunc2, table=table)
