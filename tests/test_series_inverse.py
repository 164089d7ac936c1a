"""The series inverse has one recurrence, B_k = -(sum A_j B_(k-j)) / A_0.

The reference below is the polynomial-numerator recursion it replaced,
kept verbatim: when every coefficient is a polynomial it ran on numerators
C_k with B_k = C_k / A_0^(k+1).  Every series the library inverts in a few
cold closed-form computations is inverted both ways and compared as
`series_to_json` bytes, so the truncation order is compared too.
"""

import json

import pytest

from conftest import clear_caches
from qfock.cli import series_to_json
from qfock.correlation import d_sum_function
from qfock.laurent import LaurentPoly, _d_strip, poly_gcd
from qfock.qdim import qdim_irreducible
from qfock.ratfunc import RatFunc, _finalize, _merge, _split
from qfock.series import HalfSeries
from qfock.special import f_bo
from qfock.weylb import BLabel


def polynomial_numerator_inverse(self: HalfSeries) -> HalfSeries:
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
    if all(c.den.is_one() for c in self.terms.values()):
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
        w = len(a0.table)
        split = _split(_d_strip(a0.terms, w)[0], w)

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


@pytest.fixture
def inverted(monkeypatch):
    """Every (series, inverse) pair HalfSeries.inverse produces, from cold
    caches."""
    seen = []
    inverse = HalfSeries.inverse

    def recording(self):
        out = inverse(self)
        seen.append((self, out))
        return out

    clear_caches()
    monkeypatch.setattr(HalfSeries, "inverse", recording)
    yield seen
    clear_caches()


def _bytes(s: HalfSeries) -> str:
    return json.dumps(series_to_json(s), sort_keys=True)


def as_ratfuncs(s: HalfSeries) -> HalfSeries:
    """s with the numbers of a variable-free series carried as RatFunc
    constants, the coefficients the reference was written for."""
    if len(s.table):
        return s
    return HalfSeries(s.table, s.trunc2,
                      {e: RatFunc.const(s.table, c) for e, c in s.items()},
                      _clean=True)


@pytest.mark.parametrize("compute", [
    lambda: d_sum_function((1,), 1, 3, 6),
    lambda: f_bo(4, 4),
    lambda: qdim_irreducible(BLabel((1,), True), 3, 8),
], ids=["d-sum", "f_bo", "qdim"])
def test_matches_the_polynomial_numerator_recursion(inverted, compute):
    compute()
    assert inverted
    for s, got in inverted:
        assert _bytes(got) == \
            _bytes(polynomial_numerator_inverse(as_ratfuncs(s))), s
    # the reference's own path ran on polynomial series
    assert any(all(c.den.is_one() for c in as_ratfuncs(s).terms.values())
               for s, _ in inverted)
