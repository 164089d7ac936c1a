"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget.  All comparisons are exact rational
equality (tolerance zero throughout)."""

import json
import random
import time
from fractions import Fraction

from qfock.cli import series_to_json
from qfock.laurent import LaurentPoly, VarTable
from qfock.ratfunc import RatFunc
from qfock.series import HalfSeries
from qfock.special import f_bo, qq_inf, theta, theta_deriv
from qfock.verify import (
    first_failure,
    suite_main_theorem,
    suite_needed,
    suite_onepoint,
    suite_qdim,
    suite_vacuum_recursion,
    suite_weyl_denominator,
)


def _report(name, checks, budget, elapsed):
    bad = first_failure(checks)
    status = "PASS" if bad is None else f"FAIL ({bad.name}: {bad.detail})"
    print(f"\nacceptance {name}: {status}  "
          f"[{len(checks)} checks, {elapsed:.1f}s / budget {budget}s]")
    assert bad is None, f"{bad.name}: {bad.detail}" if bad else None
    assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.1f}s"


def test_criterion_1_kernel_suite():
    """Ring laws, inversion round trips, reduction idempotence, evaluation
    homomorphism; >= 200 random cases each; < 10 s."""
    t0 = time.time()
    rng = random.Random(101)
    table = VarTable.make(2)

    def rand_poly(max_terms=3, max_exp=3):
        terms = {}
        for _ in range(rng.randint(0, max_terms)):
            e = tuple(rng.randint(-max_exp, max_exp) for _ in range(2))
            terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        return LaurentPoly(table, terms)

    def rand_series(trunc2=5):
        terms = {}
        for e2 in range(0, trunc2 + 1):
            if rng.random() < 0.5:
                p = rand_poly(2, 2)
                if not p.is_zero():
                    terms[e2] = RatFunc.from_poly(p)
        return HalfSeries(table, trunc2, terms)

    checks = 0
    # ring laws (polynomials and series)
    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        checks += 1
    for _ in range(200):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert ((a + b) + c).eq_upto(a + (b + c))
        assert (a * (b + c)).eq_upto(a * b + a * c)
        assert (a * b).eq_upto(b * a)
        checks += 1
    # inversion round trips
    done = 0
    while done < 200:
        s = rand_series()
        if s.is_zero() or s.floor2() != 0:
            continue
        prod = s * s.inverse()
        assert prod.coeff(0).is_one()
        for e2 in range(1, prod.trunc2 + 1):
            assert prod.coeff(e2).is_zero()
        done += 1
        checks += 1
    # reduction idempotence
    done = 0
    while done < 200:
        num, den = rand_poly(), rand_poly()
        if den.is_zero():
            continue
        r = RatFunc(num, den)
        assert RatFunc(r.num, r.den) == r
        done += 1
        checks += 1
    # evaluation homomorphism
    done = 0
    while done < 200:
        num1, den1, num2, den2 = (rand_poly() for _ in range(4))
        if den1.is_zero() or den2.is_zero():
            continue
        x, y = RatFunc(num1, den1), RatFunc(num2, den2)
        pt = {0: Fraction(rng.randint(2, 9)), 1: Fraction(rng.randint(2, 9), 2)}
        try:
            assert (x + y).evaluate(pt) == x.evaluate(pt) + y.evaluate(pt)
            assert (x * y).evaluate(pt) == x.evaluate(pt) * y.evaluate(pt)
        except ArithmeticError:
            continue
        done += 1
        checks += 1
    elapsed = time.time() - t0
    print(f"\nacceptance kernel-suite: PASS  [{checks} cases, {elapsed:.1f}s / budget 10s]")
    assert elapsed < 10


def test_criterion_2_special_series():
    """Theta parity to order 6, derivative parity k <= 3, the subset
    recursion's one-point kernel equals the closed form to order 5, two-point
    symmetry to order 4; < 60 s."""
    t0 = time.time()
    table = VarTable.make(2)
    ok = []
    th = theta(table, 12, ((0, 1),))
    thi = theta(table, 12, ((0, -1),))
    ok.append(thi.eq_upto(-th))
    for k in range(0, 4):
        d = theta_deriv(table, 12, k, ((0, 1),))
        di = theta_deriv(table, 12, k, ((0, -1),))
        ok.append(di.eq_upto(d * Fraction((-1) ** (k + 1))))
    closed = (qq_inf(table, 10) * theta(table, 10, ((0, 1),))).inverse()
    ok.append(json.dumps(series_to_json(f_bo(1, 10, table, (0,)))) ==
              json.dumps(series_to_json(closed)))
    fb2 = f_bo(2, 8, table, (0, 1))
    ok.append(fb2.eq_upto(fb2.rename_signed(table, [((1, 1),), ((0, 1),)])))
    elapsed = time.time() - t0
    status = "PASS" if all(ok) else "FAIL"
    print(f"\nacceptance special-series: {status}  "
          f"[{len(ok)} checks, {elapsed:.1f}s / budget 60s]")
    assert all(ok)
    assert elapsed < 60


def test_criterion_3_vacuum_recursions():
    """Subset-convolution identity for n <= 3 at orders <= 3, twisted and
    untwisted, formula vs one-pair and neutral oracles; < 120 s (eval mode
    used for n = 3)."""
    t0 = time.time()
    checks = suite_vacuum_recursion(n_max=3, trunc2=6, mode="auto", seed=7)
    _report("vacuum-recursions", checks, 120, time.time() - t0)


def test_criterion_4_onepoint_disambiguation():
    """Exactly one reading of the classical one-point prefactor matches the
    oracle through order 3, and the series matches it; < 30 s."""
    t0 = time.time()
    checks = suite_onepoint(trunc2=6)
    _report("one-point-disambiguation", checks, 30, time.time() - t0)


def test_criterion_5_main_theorem():
    """Level-(l+1/2) functions vs oracle extraction: l in {0,1},
    lam in {(), (1,), (2,)} as arity allows, n in {1,2}; symbolic to order 3
    and eval mode (3 random points) to order 4; both irreducible flags via
    parity projectors; < 600 s total."""
    t0 = time.time()
    checks = suite_main_theorem(trunc2=6, mode="symbolic")
    for seed in (11, 12, 13):
        checks += suite_main_theorem(trunc2=8, mode="eval", seed=seed)
    _report("main-theorem", checks, 600, time.time() - t0)


def test_main_theorem_frontier_cells():
    """The criterion-5 checks at the frontier cells (l=1, n=3) and
    (l=2, n=2), lam in {(), (1,), (2,)}, eval mode to order 3; < 30 s."""
    t0 = time.time()
    checks = []
    for l, n in ((1, 3), (2, 2)):
        checks += suite_main_theorem(trunc2=6, mode="eval", seed=11,
                                     l_values=(l,), n_values=(n,))
    _report("main-theorem-frontier", checks, 30, time.time() - t0)


def test_main_theorem_rank_three():
    """The criterion-5 checks at (l=3, n=2), lam in {(), (1,), (2,)}, eval
    mode to order 3: the closed forms run a 3x3 determinant over the ring
    of set functions; < 10 s."""
    t0 = time.time()
    checks = suite_main_theorem(trunc2=6, mode="eval", seed=11,
                                l_values=(3,), n_values=(2,))
    _report("main-theorem-rank-three", checks, 10, time.time() - t0)


def test_criterion_6_charge_graded_trace():
    """The closed charge-graded one-pair trace equals the pair oracle for
    n in {1,2} through order 3 (every z-degree |k| <= 2 is retained at this
    order); < 120 s."""
    t0 = time.time()
    checks = suite_needed(trunc2=6, n_values=(1, 2))
    _report("charge-graded-trace", checks, 120, time.time() - t0)


def test_criterion_7_qdimensions():
    """Weyl-sum vs product forms to order 6 for l <= 2, parts <= 2; corrected
    reading vs oracle traces; nonnegative integral irreducible dimensions
    summing back; first failing coefficient of the as-printed reading
    reported; < 120 s."""
    t0 = time.time()
    checks = suite_qdim(trunc2=12, l_max=2, max_part=2)
    assert any("as-printed" in c.name for c in checks)
    _report("q-dimensions", checks, 120, time.time() - t0)


def test_criterion_8_weyl_denominator():
    """For l <= 3 the alternating sum over the signed permutations equals the
    determinant with minus entries; the printed plus variant's discrepancy is
    reported; < 5 s."""
    t0 = time.time()
    checks = suite_weyl_denominator(l_max=3)
    assert any("plus determinant differs" in c.name for c in checks)
    _report("weyl-denominator", checks, 5, time.time() - t0)
