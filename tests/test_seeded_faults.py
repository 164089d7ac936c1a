"""Seeded faults: the closed-form-vs-oracle loop must catch what it claims
to catch (mutation testing, DeMillo, Lipton & Sayward, IEEE Computer 11(4),
1978).

Each named fault is one monkeypatch of one qfock function, on the oracle
side or on the closed-form side.  Under it, all six verify suites run at
their defaults, with every closed-form cache cleared before and after, so
that no entry computed under a fault outlives it.  A caught fault must fail
exactly the hard checks recorded for it: FAULTS gives, per suite, the
number of failing checks and the first 16 hex digits of the SHA-256 of
their names, one per line in suite order.  A suite that raises counts as
one failing check named by the exception type.  No fault may be dropped
from the list, or moved to BLIND_SPOTS, to make a change pass.
"""

import hashlib
import sys

import pytest

from conftest import clear_caches
import test_fock
import test_kernel
import test_special
import test_weylb
from qfock import (correlation, fock, laurent, ratfunc, series, special,
                   verify, weylb)
from qfock.laurent import InternalInvariantError, LaurentPoly, VarTable


def _central_zeroed(mp):
    """The central term of the insertion zeroed in one-family spaces."""
    init = fock._Insertion.__init__

    def patched(self, space, table, t_index):
        init(self, space, table, t_index)
        if space.families == 1:
            self.central = 0
    mp.setattr(fock._Insertion, "__init__", patched)


def _pair_block_sign_dropped(mp):
    """pair_block's sign character [eps] replaced by 1."""
    mp.setattr(correlation, "sign_vectors",
               lambda m: ((eps, 1) for eps, _ in weylb.sign_vectors(m)))


def _parity_zero(mp):
    mp.setattr(fock, "parity", lambda state, space: 0)


def _insertion_terms_negated(mp):
    """Each insertion term's sign flipped; the central term kept."""
    missing = fock._Insertion.__missing__

    def patched(self, key):
        c = self[key] = -missing(self, key)
        return c
    mp.setattr(fock._Insertion, "__missing__", patched)


def _vacuum_base_flipped(mp):
    """The vacuum base (-+q^(1/2);q)_inf with its coefficient negated.  The
    vacuum recursion is the only caller in correlation that passes coeff."""
    poch = correlation.pochhammer_inf

    def patched(*args, **kwargs):
        if "coeff" in kwargs:
            kwargs["coeff"] = -kwargs["coeff"]
        return poch(*args, **kwargs)
    mp.setattr(correlation, "pochhammer_inf", patched)


def _full_character_dropped(mp):
    """The full sign character of W(B_l) replaced by the permutation sign."""
    orbit = weylb.weyl_orbit
    mp.setattr(weylb, "weyl_orbit",
               lambda l: ((w, perm, perm) for w, _, perm in orbit(l)))


def _theta_negated(mp):
    """Theta itself, the zeroth derivative, negated inside F_bo and
    theta_deriv: both take Theta's derivatives from special._theta_d."""
    theta_d = special._theta_d

    def patched(k, trunc2):
        out = theta_d(k, trunc2)
        return -out if k == 0 else out
    mp.setattr(special, "_theta_d", patched)


def _rho_shifted(mp):
    """rho_B shifted by one in every component, in the closed forms only."""
    mp.setattr(correlation, "rho_B",
               lambda l: tuple(r + 1 for r in weylb.rho_B(l)))


def _extraction_variant_swapped(mp):
    """The oracle extraction with the minus and plus denominators swapped."""
    extract = fock.extract_module_function
    swap = {"minus": "plus", "plus": "minus"}
    mp.setattr(verify, "extract_module_function",
               lambda trace, lam, l, zi=None, den="minus":
               extract(trace, lam, l, zi, swap[den]))


def _holes_counted_positive(mp):
    """Each pair's charge counted as particles plus holes, not minus."""
    mp.setattr(fock, "charges", lambda state, space: tuple(
        state[2 * p].bit_count() + state[2 * p + 1].bit_count()
        for p in range(space.pairs)))


def _integer_energies(mp):
    """Each occupied mode's energy counted as (m2 + 1)/2, not m2/2."""
    mode_sets = fock._distinct_mode_sets
    mp.setattr(fock, "_distinct_mode_sets", lambda max2: [
        (mask, e2 + mask.bit_count()) for mask, e2 in mode_sets(max2)])


def _f_bo_link_sign_dropped(mp):
    """F_bo's link sign (-1)^(k-1) dropped: D_k = 2^k Theta^(k) negated at
    even k >= 2, where only f_bo's recursion asks for it."""
    theta_d = special._theta_d

    def patched(k, trunc2):
        out = theta_d(k, trunc2)
        return -out if k and k % 2 == 0 else out
    mp.setattr(special, "_theta_d", patched)


def _product_truncation_raised(mp):
    """A series product claims the larger of its two propagated truncations,
    so the terms it cannot know are computed as if the factors' unknown
    terms were zero.  series._product_trunc2 is the one place the rule is
    written, for * and for the products inside HalfSeries.plus."""
    mp.setattr(series, "_product_trunc2", lambda x, y: max(
        x.trunc2 + y.floor2(), y.trunc2 + x.floor2()))


def _bucket_unreduced(mp):
    """Each bucket of a series sum or product kept as it is (_canonical),
    without its trial division: a bucket of several terms as its summed
    numerator over the product denominator, a bucket of one product as the
    product of the numerators over that of the denominators."""
    RatFunc = ratfunc.RatFunc
    init, mul = RatFunc.__init__, RatFunc.__mul__

    def in_collect():
        return sys._getframe(2).f_code is series._collect.__code__

    def patched_init(self, num, den=None, *, dfac=ratfunc._UNSPLIT,
                     _canonical=False):
        init(self, num, den, dfac=dfac, _canonical=_canonical or in_collect())

    def patched_mul(self, other):
        if not in_collect():
            return mul(self, other)
        f1, f2 = self.dfac, other.dfac
        return RatFunc(self.num * other.num, self.den * other.den,
                       dfac=None if None in (f1, f2) else ratfunc._merge(f1, f2),
                       _canonical=True)
    mp.setattr(RatFunc, "__init__", patched_init)
    mp.setattr(RatFunc, "__mul__", patched_mul)


def _pairing_minus_k_dropped(mp):
    """pair_block's term of -eps, [eps] u^-k F_bo(u), dropped at k != 0:
    each monomial that pair_block scales a renamed kernel by is zero when
    the first point's exponent is negative (every paired eps has eps_1 =
    +1, so that is the u^-k term)."""
    monomial = LaurentPoly.monomial

    def patched(cls, table, exps, c=1):
        if (sys._getframe(1).f_code is correlation.pair_block.__code__
                and exps and next(iter(exps.values())) < 0):
            return cls.zero(table)
        return monomial(table, exps, c)
    mp.setattr(LaurentPoly, "monomial", classmethod(patched))


def _binomial_trail_negated(mp):
    """The two-term pass of exact division run with its divisor's trailing
    coefficient negated, a*x^P - b*x^Q for a*x^P + b*x^Q."""
    div = laurent._d_div_binomial

    def patched(num, den, over_z, w):
        trail = min(den)
        return div(num, {**den, trail: -den[trail]}, over_z, w)
    mp.setattr(laurent, "_d_div_binomial", patched)


def _sector_request_short(mp):
    """The oracle's sector request without its least charge vector: the
    suites ask oracle_trace for one sector fewer than extraction reads."""
    sectors = weylb.extraction_sectors
    mp.setattr(verify, "extraction_sectors",
               lambda lams, l: (s := sectors(lams, l)) - {min(s)})


def _flip_sign_dropped(mp):
    """Every anticommutation sign of the mode operators forced to +1."""
    flip = fock._flip
    mp.setattr(fock, "_flip",
               lambda *args: (r := flip(*args)) and (1, r[1]))


# name -> (fault, {suite: (failing checks, digest of their names)})
FAULTS = {
    "central term zeroed in one-family spaces": (_central_zeroed, {
        "vacuum-recursion": (4, "d5992543cbaf3221"),
        "onepoint": (2, "bb642eb111e3267a"),
        "main-theorem": (8, "deb6d4566bbd2ff6"),
    }),
    "pair_block's sign character dropped": (_pair_block_sign_dropped, {
        "vacuum-recursion": (16, "f4ddcb24a32dac1b"),
        "onepoint": (1, "c1eb09e370a79e96"),
        "main-theorem": (32, "caf90af72a71c089"),
        "needed": (2, "d4f2bcc32bf88217"),
    }),
    "parity always 0": (_parity_zero, {
        "vacuum-recursion": (11, "a251a15cb5e9f5e9"),
        "onepoint": (2, "bb642eb111e3267a"),
        "main-theorem": (24, "c75431d6c4706a77"),
        "qdim": (10, "2b6becba673819d5"),
    }),
    "each insertion term's sign flipped": (_insertion_terms_negated, {
        "vacuum-recursion": (16, "f4ddcb24a32dac1b"),
        "onepoint": (2, "bb642eb111e3267a"),
        "main-theorem": (32, "caf90af72a71c089"),
        "needed": (2, "d4f2bcc32bf88217"),
    }),
    "the vacuum base's coefficient flipped": (_vacuum_base_flipped, {
        "vacuum-recursion": (8, "22cad5ef78b8a5a2"),
        "onepoint": (1, "c1eb09e370a79e96"),
        "main-theorem": (32, "caf90af72a71c089"),
        "qdim": (50, "87c9abd61cc29ed3"),
    }),
    "full character as the permutation sign": (_full_character_dropped, {
        "main-theorem": (12, "35e5decd6016ce91"),
        "qdim": (8, "06d0a9c0b9346b2c"),
        "weyl-denominator": (3, "edb4a16f3f3afc3d"),
    }),
    "theta_deriv negated at k = 0": (_theta_negated, {
        "vacuum-recursion": (10, "1c13b6e0610b8f6b"),
        "onepoint": (1, "c1eb09e370a79e96"),
        "main-theorem": (16, "171dcfcc3766d990"),
        "needed": (1, "7f431155e7def385"),
    }),
    "rho_B shifted in the closed forms": (_rho_shifted, {
        "main-theorem": (16, "e6deb893211d2bef"),
        "qdim": (32, "4367f094866e9527"),
    }),
    "extraction denominators swapped": (_extraction_variant_swapped, {
        "main-theorem": (16, "e6deb893211d2bef"),
        "qdim": (16, "d64194fc5351e557"),
    }),
    "holes counted as positive charge": (_holes_counted_positive, {
        "main-theorem": (24, "a5ab8f64ce6cd41b"),
        "needed": (2, "d4f2bcc32bf88217"),
        "qdim": (18, "33e4fcc09eb5fc18"),
    }),
    "integer mode energies": (_integer_energies, {
        "vacuum-recursion": (22, "7add6a71b3e00d53"),
        "onepoint": (2, "bb642eb111e3267a"),
        "main-theorem": (32, "caf90af72a71c089"),
        "needed": (2, "d4f2bcc32bf88217"),
        "qdim": (20, "8ac39920b267d330"),
    }),
    "f_bo's link sign dropped at even k": (_f_bo_link_sign_dropped, {
        "vacuum-recursion": (4, "5cbba533001f3d6d"),
    }),
    "series product truncation raised": (_product_truncation_raised, {
        "qdim": (14, "100a433ba7d799ce"),
    }),
    "series bucket kept unreduced": (_bucket_unreduced, {
        "vacuum-recursion": (10, "c1005a6a20b9cba6"),
        "main-theorem": (16, "b91ec7b45233eded"),
        "needed": (1, "d7d4321c6be41b67"),
    }),
    "the u^-k term of the eps/-eps pairing dropped": (
        _pairing_minus_k_dropped, {
            "vacuum-recursion": (16, "f4ddcb24a32dac1b"),
            "onepoint": (1, "c1eb09e370a79e96"),
            "main-theorem": (32, "caf90af72a71c089"),
            "needed": (2, "d4f2bcc32bf88217"),
        }),
    "the two-term division's trailing coefficient negated": (
        _binomial_trail_negated, {
            "vacuum-recursion": (1, "d8fe3d311b99e49d"),
            "onepoint": (1, "d8fe3d311b99e49d"),
            "main-theorem": (1, "d8fe3d311b99e49d"),
            "needed": (1, "d8fe3d311b99e49d"),
        }),
    "the oracle's sector request misses one charge vector": (
        _sector_request_short, {
            "main-theorem": (16, "5f6d70b6ff1340d4"),
            "qdim": (6, "d768751d0d9b79fb"),
        }),
}

# Faults that no verify check can see, with the reason and the unit tests
# that catch them; each must still fail no check.
BLIND_SPOTS = {
    "flip sign dropped": (
        _flip_sign_dropped,
        "each bilinear of apply_D annihilates and re-creates the same slot, "
        "so its two signs are equal and cancel, and no trace sees them",
        ("tests/test_fock.py::TestOperatorAlgebra::test_anticommutators",
         "tests/test_fock_bitmask.py::"
         "test_elementary_operators_match_the_tuple_states")),
}


def failing_checks(fault) -> dict[str, list[str]]:
    """The failing hard checks of every suite under the fault, cold."""
    out: dict[str, list[str]] = {}
    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            fault(mp)
            for name, suite in verify.SUITES.items():
                try:
                    checks = suite()
                except Exception as exc:  # a fault may break an invariant
                    out[name] = [f"raised {type(exc).__name__}"]
                    continue
                bad = [c.name for c in checks
                       if not c.passed and not c.informational]
                if bad:
                    out[name] = bad
    finally:
        clear_caches()
    return out


def _digest(names) -> str:
    return hashlib.sha256("\n".join(names).encode()).hexdigest()[:16]


def test_no_check_fails_without_a_fault():
    assert failing_checks(lambda mp: None) == {}


@pytest.mark.parametrize("name", FAULTS)
def test_fault_is_caught(name):
    fault, expected = FAULTS[name]
    got = failing_checks(fault)
    assert {s: (len(b), _digest(b)) for s, b in got.items()} == expected


@pytest.mark.parametrize("name", BLIND_SPOTS)
def test_blind_spot_stays_blind(name):
    fault, _reason, _unit_tests = BLIND_SPOTS[name]
    assert failing_checks(fault) == {}


def test_a_unit_test_sees_the_flip_sign():
    with pytest.MonkeyPatch.context() as mp:
        _flip_sign_dropped(mp)
        with pytest.raises(AssertionError):
            test_fock.TestOperatorAlgebra().test_anticommutators()


def test_a_unit_test_sees_the_unreduced_bucket():
    # the verify suites at their defaults never sum two products into a
    # bucket whose one reduction cancels; this unit test does
    with pytest.MonkeyPatch.context() as mp:
        _bucket_unreduced(mp)
        with pytest.raises(AssertionError):
            test_kernel.TestHalfSeries().test_a_sum_of_products_cancels_once()


def test_a_unit_test_sees_the_link_sign():
    # only vacuum-recursion reaches three points among the verify suites;
    # the pinned kernels of test_special do too
    with pytest.MonkeyPatch.context() as mp:
        _f_bo_link_sign_dropped(mp)
        with pytest.raises(AssertionError):
            test_special.TestFbo().test_pinned_bytes()


def test_a_unit_test_sees_the_binomial_trail():
    # no verify suite computes a character; the unit tests of char_B,
    # which divides by the Weyl denominator's binomials, refuse a remainder
    with pytest.MonkeyPatch.context() as mp:
        _binomial_trail_negated(mp)
        with pytest.raises(InternalInvariantError):
            test_weylb.TestCharacter().test_rank_one_values()


def test_the_charge_fault_reaches_the_sector_filter(monkeypatch):
    # the filter reads fock.charges, as the z-grading does: with holes
    # counted positive, charge 0 holds only the states without a pair
    # excitation (the neutral family's 6 at q^3, against 17 states)
    weighed = []
    inner = fock._diagonal_weight
    monkeypatch.setattr(fock, "_diagonal_weight",
                        lambda state, *a, **k: weighed.append(state)
                        or inner(state, *a, **k))
    space, table = fock.FockSpace(1, True), VarTable.make(0, 1)
    counts = []
    for fault in (lambda mp: None, _holes_counted_positive):
        weighed.clear()
        with pytest.MonkeyPatch.context() as mp:
            fault(mp)
            fock.oracle_trace(space, 6, table, (), (0,), [(0,)])
        counts.append(len(weighed))
    assert counts == [17, 6]
