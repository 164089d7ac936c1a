"""q-dimension tests, with an independent partition-counting oracle and
the q-dimensions' own sum over W(B_l) as a reference."""

import json
from fractions import Fraction
from typing import Sequence

import pytest

from qfock.cli import series_to_json
from qfock.laurent import UsageError, VarTable
from qfock.series import HalfSeries
from qfock.special import pochhammer_inf, qq_inf
from qfock.weylb import BLabel, _det_sector, check_partition
from qfock.qdim import QDimForm, q_minus, q_plus, qdim_irreducible
from test_determinant_engine import weyl_charges

TAB = VarTable.make(0)


def count_distinct_halfodd(max2: int):
    """Counts of partitions into distinct half-odd parts by doubled energy,
    split by parity of the part count.  Independent brute force."""
    even = {0: 1}
    odd = {}
    parts = list(range(1, max2 + 1, 2))

    def rec(i, total, count):
        for j in range(i, len(parts)):
            p = parts[j]
            if total + p > max2:
                break
            tgt = odd if (count + 1) % 2 else even
            tgt[total + p] = tgt.get(total + p, 0) + 1
            rec(j + 1, total + p, count + 1)

    rec(0, 0, 0)
    return even, odd


class TestRankZero:
    def test_plus_counts_all_partitions(self):
        even, odd = count_distinct_halfodd(9)
        total = {e: even.get(e, 0) + odd.get(e, 0) for e in range(10)}
        total = {e: v for e, v in total.items() if v}
        got = q_plus((), 0, 9)
        assert {e2: c for e2, c in got.items()} == \
            {e: Fraction(v) for e, v in total.items()}

    def test_minus_signs_by_parity(self):
        even, odd = count_distinct_halfodd(9)
        want = {e: even.get(e, 0) - odd.get(e, 0) for e in range(10)}
        want = {e: Fraction(v) for e, v in want.items() if v}
        got = q_minus((), 0, 9)
        assert {e2: c for e2, c in got.items()} == want

    def test_irreducible_counts(self):
        even, odd = count_distinct_halfodd(9)
        plain = qdim_irreducible(BLabel((), False), 0, 9)
        det = qdim_irreducible(BLabel((), True), 0, 9)
        assert {e2: c for e2, c in plain.items()} == \
            {e: Fraction(v) for e, v in even.items() if v}
        assert {e2: c for e2, c in det.items()} == \
            {e: Fraction(v) for e, v in odd.items() if v}

    def test_parity_split_of_exponents(self):
        plus = q_plus((), 0, 8)
        minus = q_minus((), 0, 8)
        s = plus + minus
        d = plus - minus
        assert all(e2 % 2 == 0 for e2, _ in s.items())
        assert all(e2 % 2 == 1 for e2, _ in d.items())


class TestForms:
    @pytest.mark.parametrize("l,lam", [
        (0, ()), (1, ()), (1, (1,)), (1, (2,)),
        (2, ()), (2, (1,)), (2, (2,)), (2, (1, 1)), (2, (2, 1)), (2, (2, 2)),
    ])
    def test_sum_equals_product(self, l, lam):
        for fn in (q_plus, q_minus):
            a = fn(lam, l, 12, QDimForm("weyl-sum", "corrected"), TAB)
            b = fn(lam, l, 12, QDimForm("product", "corrected"), TAB)
            assert a.eq_upto(b), (fn.__name__, a.first_mismatch(b))

    def test_as_printed_forms_are_selfconsistent(self):
        # the rejected reading still satisfies its own sum=product identity
        for fn in (q_plus, q_minus):
            a = fn((1,), 1, 10, QDimForm("weyl-sum", "as-printed"), TAB)
            b = fn((1,), 1, 10, QDimForm("product", "as-printed"), TAB)
            assert a.eq_upto(b)

    def test_as_printed_minus_has_negative_exponent(self):
        s = q_minus((), 0, 6, QDimForm("weyl-sum", "as-printed"), TAB)
        assert s.floor2() == -1

    def test_halves_sum_to_plus(self):
        for l, lam in ((1, ()), (1, (2,)), (2, (1, 1))):
            a = qdim_irreducible(BLabel(lam, False), l, 10)
            b = qdim_irreducible(BLabel(lam, True), l, 10)
            assert (a + b).eq_upto(q_plus(lam, l, 10))

    def test_nonnegative_integer_coefficients(self):
        for l, lam in ((1, ()), (1, (1,)), (2, (2, 1))):
            for det in (False, True):
                h = qdim_irreducible(BLabel(lam, det), l, 12)
                for _, c in h.items():
                    assert c.denominator == 1 and c >= 0

    def test_arity_guard(self):
        with pytest.raises(UsageError):
            q_plus((1, 1), 1, 6)


# The Weyl-sum form as a sum of its own over W(B_l), with the prefactors
# written out (the form qdim computed before it became the 0-point function).

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
    body: dict[int, Fraction] = {}
    for full_char, perm_char, _mu, nrm2 in weyl_charges(lam, l):
        if nrm2 > trunc2:
            continue
        char = perm_char if (twisted and form.reading == "corrected") \
            else full_char
        body[nrm2] = body.get(nrm2, Fraction(0)) + char
    return pref * HalfSeries(table, trunc2, body)


def _bytes(s):
    return json.dumps(series_to_json(s), sort_keys=True)


LAMS = [(), (1,), (2,), (1, 1), (2, 1), (3, 2, 1), (5,)]
ORDERS = [0, 1, 2, 3, 4, 7, 10]


@pytest.mark.parametrize("l", range(4))
def test_zero_point_function_matches_the_weyl_sum(l):
    """The Weyl-sum form, computed as the 0-point function, is the group
    sum byte for byte (truncation order included), in both sectors and both
    readings; so are both det-sectors of the irreducible."""
    for lam in (lam for lam in LAMS if len(lam) <= l):
        for trunc2 in ORDERS:
            ref = {}
            for twisted, fn in ((False, q_plus), (True, q_minus)):
                for reading in ("corrected", "as-printed"):
                    form = QDimForm("weyl-sum", reading)
                    want = ref[twisted, reading] = _qdim(
                        lam, l, trunc2, twisted, form, TAB)
                    assert _bytes(fn(lam, l, trunc2, form)) == _bytes(want), \
                        (fn.__name__, lam, trunc2, reading)
            for det in (False, True):
                want = _det_sector(ref[False, "corrected"],
                                   ref[True, "corrected"], det)
                got = qdim_irreducible(BLabel(lam, det), l, trunc2)
                assert _bytes(got) == _bytes(want), (lam, trunc2, det)
