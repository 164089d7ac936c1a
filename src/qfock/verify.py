"""Identity suites: every closed formula checked against an independent
computation, most of them against the brute-force Fock oracle.

Each suite returns a list of Check records; a Check may be a hard assertion
(passed must be True for the suite to pass) or an informational finding
(reading selections, first failing coefficients of rejected readings).
A comparison of two series (_cmp) also compares their truncation orders: a
series that claims more exact terms than it holds fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .laurent import VarTable, format_exponent
from .series import HalfSeries
from .weylb import (
    _det_sector,
    extraction_sectors,
    weyl_denominator_B,
    weyl_denominator_det,
)
from .correlation import (
    ONE_POINT_READINGS,
    d_half_vacuum,
    d_sum_function,
    d_twisted_function,
    fock_trace_at_sign,
    fock_trace_closed,
    vacuum_one_point_series,
)
from .qdim import QDimForm, q_minus, q_plus
from .fock import FockSpace, extract_module_function, oracle_trace


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""
    informational: bool = False

    def line(self) -> str:
        status = "PASS" if self.passed else ("NOTE" if self.informational else "FAIL")
        out = f"{status}  {self.name}"
        if self.detail:
            out += f"  [{self.detail}]"
        return out


def suite_passed(checks: Iterable[Check]) -> bool:
    return all(c.passed or c.informational for c in checks)


def first_failure(checks: Iterable[Check]) -> Check | None:
    for c in checks:
        if not c.passed and not c.informational:
            return c
    return None


def _mismatch_detail(a: HalfSeries, b: HalfSeries) -> str:
    """The first coefficient where a and b differ, "" when they agree."""
    mm = a.first_mismatch(b)
    if mm is None:
        return ""
    e2, ca, cb = mm
    return f"q^{format_exponent(e2)}: {ca} vs {cb}"


def _cmp(name: str, a: HalfSeries, b: HalfSeries) -> Check:
    detail = _mismatch_detail(a, b)
    if not detail and a.trunc2 != b.trunc2:
        detail = (f"order {format_exponent(a.trunc2)} vs "
                  f"{format_exponent(b.trunc2)}")
    return Check(name, not detail, detail)


def _reading(subject: str, a: HalfSeries, b: HalfSeries,
             agrees: str = "agrees") -> Check:
    """An informational finding on a reading: it agrees, or it is rejected
    with its first failing coefficient."""
    detail = _mismatch_detail(a, b)
    if not detail:
        return Check(f"{subject} {agrees}", True, informational=True)
    return Check(f"{subject} rejected", True, f"first fails at {detail}",
                 informational=True)


def random_point(t_indices: Sequence[int], seed: int):
    """Small random rational square-root values, avoiding the unit circle.

    No such point is a pole, so no suite ever needs a second point: the
    closed forms are built from the kernel F_bo at the values and their
    inverses, whose reduced denominators are products of u_j - 1 and
    u_j + 1, and the oracle's central scalar has v^2 - 1.  A product of
    several values may still be 1; Theta vanishes there, but the reduced
    kernel has no pole."""
    rng = random.Random(1000003 * seed)
    asn = {}
    for i in t_indices:
        while True:
            num = rng.choice([-1, 1]) * rng.randint(2, 9)
            den = rng.randint(1, 4)
            v = Fraction(num, den)
            if abs(v) != 1:
                break
        asn[i] = v
    return asn


def _traces(projections: tuple[HalfSeries, HalfSeries]
            ) -> tuple[HalfSeries, HalfSeries]:
    """The plain and the parity-signed traces from the parity projections
    (even, odd) that one oracle_trace pass returns."""
    even, odd = projections
    return even + odd, even - odd


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_vacuum_recursion(n_max: int = 3, trunc2: int = 6,
                           mode: str = "symbolic", seed: int = 7) -> list[Check]:
    """The subset-convolution identity for the level-1/2 vacuum functions,
    twisted and untwisted, formula vs the one-pair and neutral oracles."""
    checks: list[Check] = []
    for n in range(0, n_max + 1):
        use_eval = mode == "eval" or (mode == "auto" and n >= 3)
        table = VarTable.make(n)
        ti = tuple(range(n))
        at = table.bind(random_point(ti, seed)) if use_eval else table
        # indexed by twisted: the plain and the parity-signed traces
        pair = _traces(oracle_trace(FockSpace(1, neutral=False), trunc2, at,
                                    ti))
        if n <= 2:
            neutral = _traces(oracle_trace(FockSpace(0, neutral=True), trunc2,
                                           table, ti))
        for twisted in (False, True):
            lab = "twisted" if twisted else "untwisted"
            sign = -1 if twisted else 1
            rhs = None
            for r in range(n + 1):
                for I in combinations(range(n), r):
                    Ic = tuple(i for i in ti if i not in I)
                    term = d_half_vacuum(len(I), trunc2, twisted, at, I) * \
                        d_half_vacuum(len(Ic), trunc2, twisted, at, Ic)
                    rhs = term if rhs is None else rhs + term
            closed = fock_trace_at_sign(n, trunc2, sign, at, ti)
            oracle = pair[twisted]
            checks.append(_cmp(f"subset identity n={n} {lab}: closed z-sum == pair oracle",
                               closed, oracle))
            checks.append(_cmp(f"subset identity n={n} {lab}: pair oracle == vacuum convolution",
                               oracle, rhs))
            # the vacuum functions themselves against the neutral oracle
            if n <= 2:
                vac = d_half_vacuum(n, trunc2, twisted, table, ti)
                checks.append(_cmp(f"vacuum recursion n={n} {lab} == neutral oracle",
                                   vac, neutral[twisted]))
    return checks


def suite_onepoint(trunc2: int = 6) -> list[Check]:
    """Disambiguate the classical twisted-vacuum one-point prefactor."""
    checks: list[Check] = []
    table = VarTable.make(1)
    oracle = _traces(oracle_trace(FockSpace(0, True), trunc2, table, (0,)))[1]
    rec = d_half_vacuum(1, trunc2, True, table, (0,))
    checks.append(_cmp("twisted vacuum one-point recursion == neutral oracle",
                       rec, oracle))
    matching = []
    for reading in ONE_POINT_READINGS:
        s = vacuum_one_point_series(trunc2, reading, table, 0)
        check = _reading(f"classical one-point reading {reading!r}", s,
                         oracle, agrees="matches oracle")
        if not check.detail:
            matching.append(reading)
        checks.append(check)
    checks.append(Check(
        f"exactly one classical one-point reading matches (selected: {matching})",
        len(matching) == 1))
    if matching:
        s = vacuum_one_point_series(trunc2, matching[0], table, 0)
        checks.append(_cmp(f"selected reading {matching[0]!r} == oracle", s, oracle))
    return checks


def _main_grid(l_values=(0, 1), n_values=(1, 2)):
    for l in l_values:
        lams = [()] if l == 0 else [(), (1,), (2,)]
        for lam in lams:
            for n in n_values:
                yield l, lam, n


def suite_main_theorem(trunc2: int = 6, mode: str = "symbolic",
                       seed: int = 11,
                       l_values=(0, 1), n_values=(1, 2)) -> list[Check]:
    """Level-(l+1/2) n-point closed forms against oracle extraction, plus the
    per-irreducible functions via parity projectors.  The printed compact
    structure's divergence is reported informationally.

    Each cell computes the plain and the parity-signed function once; the
    irreducible functions of both det flags are their half sum and half
    difference, as irreducible_function defines them."""
    checks: list[Check] = []
    printed_reported = False
    # The traces do not depend on lam: (l, n) -> (plain, signed), from one
    # pass over the states of the cell's space.
    traces: dict[tuple[int, int], tuple[HalfSeries, HalfSeries]] = {}
    for l, lam, n in _main_grid(l_values, n_values):
        ti = tuple(range(n))
        zi = tuple(range(n, n + l))
        point = random_point(ti, seed) if mode == "eval" else {}
        table = VarTable.make(n, l).bind(point)
        ftab = VarTable.make(n).bind(point)
        if (l, n) not in traces:  # only the charges the cell's lams read
            lams = [lm for l2, lm, n2 in _main_grid(l_values, n_values)
                    if (l2, n2) == (l, n)]
            traces[l, n] = _traces(oracle_trace(
                FockSpace(l, neutral=True), trunc2, table, ti, zi,
                extraction_sectors(lams, l)))
        tru, trt = traces[l, n]
        fu = d_sum_function(lam, l, n, trunc2, "convolved", ftab, ti)
        ft = d_twisted_function(lam, l, n, trunc2, "convolved", ftab, ti)
        tag = f"l={l} lam={lam} n={n}" + (" [eval]" if point else "")
        ext_u = extract_module_function(tru, lam, l, None, "minus")
        ext_t = extract_module_function(trt, lam, l, None, "plus")
        checks.append(_cmp(f"plain function == oracle extraction {tag}", fu, ext_u))
        checks.append(_cmp(f"signed function == oracle extraction {tag}", ft, ext_t))
        for det in (False, True):
            checks.append(_cmp(
                f"irreducible (det={det}) == projector extraction {tag}",
                _det_sector(fu, ft, det), _det_sector(ext_u, ext_t, det)))
        if l == 1 and n == 1 and lam == () and not printed_reported and not point:
            fp = d_sum_function(lam, l, n, trunc2, "printed", ftab, ti)
            checks.append(_reading("printed compact structure", fp, ext_u))
            printed_reported = True
    return checks


def suite_needed(trunc2: int = 6, n_values=(1, 2)) -> list[Check]:
    """The charge-graded one-pair trace formula against the pair oracle."""
    checks: list[Check] = []
    for n in n_values:
        table = VarTable.make(n, 1)
        ti = tuple(range(n))
        z = n
        closed = fock_trace_closed(n, trunc2, table, ti, z)
        oracle = _traces(oracle_trace(FockSpace(1, neutral=False), trunc2,
                                      table, ti, z_indices=(z,)))[0]
        checks.append(_cmp(f"charge-graded pair trace n={n}: closed == oracle",
                           closed, oracle))
    return checks


def suite_qdim(trunc2: int = 12, l_max: int = 2, max_part: int = 2) -> list[Check]:
    """q-dimensions: Weyl-sum == product form; corrected reading == oracle;
    as-printed reading's first failure reported; nonnegative integral halves
    summing back."""
    checks: list[Check] = []
    table = VarTable.make(0)
    printed_reported = False
    for l in range(0, l_max + 1):
        lams = [()]
        if l >= 1:
            lams += [(a,) for a in range(1, max_part + 1)]
        if l >= 2:
            lams += [(a, b) for a in range(1, max_part + 1)
                     for b in range(1, a + 1)]
        ztab = VarTable.make(0, l)
        tru, trt = _traces(oracle_trace(
            FockSpace(l, neutral=True), trunc2, ztab, (), tuple(range(l)),
            extraction_sectors(lams, l)))
        for lam in lams:
            tag = f"l={l} lam={lam}"
            qp_w = q_plus(lam, l, trunc2, QDimForm("weyl-sum", "corrected"), table)
            qp_p = q_plus(lam, l, trunc2, QDimForm("product", "corrected"), table)
            qm_w = q_minus(lam, l, trunc2, QDimForm("weyl-sum", "corrected"), table)
            qm_p = q_minus(lam, l, trunc2, QDimForm("product", "corrected"), table)
            checks.append(_cmp(f"plus sector: sum form == product form {tag}", qp_w, qp_p))
            checks.append(_cmp(f"minus sector: sum form == product form {tag}", qm_w, qm_p))
            ext_p = extract_module_function(tru, lam, l, None, "minus")
            ext_m = extract_module_function(trt, lam, l, None, "plus")
            checks.append(_cmp(f"plus sector == oracle extraction {tag}", qp_w, ext_p))
            checks.append(_cmp(f"minus sector == oracle extraction {tag}", qm_w, ext_m))
            if not printed_reported and l == 1 and lam == ():
                for sector, fn, ext in (("minus", q_minus, ext_m),
                                        ("plus", q_plus, ext_p)):
                    printed = fn(lam, l, trunc2,
                                 QDimForm("weyl-sum", "as-printed"), table)
                    checks.append(_reading(
                        f"as-printed {sector}-sector reading", printed, ext))
                printed_reported = True
            halves = {}
            ok = True
            for det in (False, True):
                h = halves[det] = _det_sector(qp_w, qm_w, det)
                for e2, c in h.items():
                    if c.denominator != 1 or c < 0:
                        ok = False
            checks.append(Check(
                f"irreducible q-dimensions nonnegative integers {tag}", ok))
            checks.append(_cmp(f"det-sectors sum to the plus sector {tag}",
                               halves[False] + halves[True], qp_w))
    return checks


def suite_weyl_denominator(l_max: int = 3) -> list[Check]:
    """Determinant forms of the group sums, both sign variants."""
    checks: list[Check] = []
    for l in range(0, l_max + 1):
        table = VarTable.make(0, l)
        minus_sum = weyl_denominator_B(l, table, variant="minus")
        plus_sum = weyl_denominator_B(l, table, variant="plus")
        minus_det = weyl_denominator_det(l, table, variant="minus")
        plus_det = weyl_denominator_det(l, table, variant="plus")
        checks.append(Check(
            f"minus determinant == alternating group sum (l={l})",
            minus_det == minus_sum,
            "" if minus_det == minus_sum else f"{minus_det} vs {minus_sum}"))
        checks.append(Check(
            f"plus determinant == permutation-signed group sum (l={l})",
            plus_det == plus_sum,
            "" if plus_det == plus_sum else f"{plus_det} vs {plus_sum}"))
        if l >= 1:
            diff = plus_det - minus_sum
            checks.append(Check(
                f"printed plus determinant differs from the alternating sum (l={l})",
                True, f"difference {diff}", informational=True))
    return checks


SUITES = {
    "vacuum-recursion": suite_vacuum_recursion,
    "onepoint": suite_onepoint,
    "main-theorem": suite_main_theorem,
    "needed": suite_needed,
    "qdim": suite_qdim,
    "weyl-denominator": suite_weyl_denominator,
}
