"""Fock-oracle tests: state enumeration, operator algebra, traces, extraction."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Mapping, Sequence

import pytest

from qfock.cli import main, series_to_json
from qfock.laurent import (
    EvaluationPointError,
    InternalInvariantError,
    LaurentPoly,
    UsageError,
    VarTable,
)
from qfock.ratfunc import RatFunc, _rename_factors, _split
from qfock.series import HalfSeries
from qfock.weylb import (
    BLabel,
    _z_vars,
    check_partition,
    extraction_sectors,
    pad_weight,
    rho_B,
    weyl_denominator_B,
)
from qfock.correlation import d_half_vacuum, irreducible_function
from qfock.fock import (
    FockSpace,
    apply_D,
    apply_field,
    charges,
    enumerate_states,
    extract_module_function,
    fock_state,
    irreducible_from_projected,
    oracle_trace,
    parity,
    state_modes,
    vacuum,
)
from qfock import fock, verify
from qfock.verify import random_point

from conftest import plain_trace, signed_trace

SP0 = FockSpace(0, True)
SP1 = FockSpace(1, True)
PAIR = FockSpace(1, False)


def x_inv(table, i=0):
    return RatFunc(LaurentPoly.monomial(table, {i: 1}),
                   LaurentPoly.monomial(table, {i: 2}) - LaurentPoly.one(table))


def rand_state(rng, space, max2=5):
    fams = []
    for _ in range(space.families):
        modes = [m for m in range(1, max2 + 1, 2) if rng.random() < 0.4]
        fams.append(tuple(sorted(modes, reverse=True)))
    return fock_state(tuple(fams))


def energy2(state):
    return sum(map(sum, state_modes(state)))


def slot_op(state, kind, fam, m2, space=SP1):
    """The creation ("c") or annihilation ("a") operator at slot (fam, m2),
    through the field that addresses it: psi+ creates in a plus family and
    annihilates in a minus one, psi- the other way round."""
    r2 = -m2 if kind == "c" else m2
    if fam == 2 * space.pairs:
        return apply_field(state, space, "phi", 0, r2)
    field = "psi+" if (fam % 2 == 0) == (kind == "c") else "psi-"
    return apply_field(state, space, field, fam // 2, r2)


class TestStates:
    def test_level_sizes_neutral_only(self):
        sizes = {e2: len(s) for e2, s in enumerate_states(SP0, 4).items()}
        assert sizes == {0: 1, 1: 1, 2: 0, 3: 1, 4: 1}

    def test_level_half_one_pair(self):
        assert len(enumerate_states(SP1, 1)[1]) == 3

    def test_vacuum_only_at_zero(self):
        levels = enumerate_states(SP1, 0)
        assert levels[0] == [vacuum(SP1)]

    def test_gradings_recompute(self):
        rng = random.Random(20)
        for _ in range(50):
            st = rand_state(rng, SP1)
            modes = state_modes(st)
            assert st in enumerate_states(SP1, energy2(st))[energy2(st)]
            assert charges(st, SP1) == (len(modes[0]) - len(modes[1]),)
            assert parity(st, SP1) == len(modes[2]) % 2
            st = rand_state(rng, PAIR)
            assert parity(st, PAIR) == sum(map(len, state_modes(st))) % 2

    def test_invalid_modes_rejected(self):
        with pytest.raises(UsageError):
            fock_state(((2,),))
        with pytest.raises(UsageError):
            fock_state(((1, 3),))  # must strictly decrease


class TestOperatorAlgebra:
    def test_create_annihilate_inverse(self):
        rng = random.Random(21)
        for _ in range(100):
            st = rand_state(rng, SP1)
            fam = rng.randrange(SP1.families)
            m2 = rng.choice([1, 3, 5])
            r = slot_op(st, "c", fam, m2)
            if r is None:
                s, st2 = slot_op(st, "a", fam, m2)
                s2, st3 = slot_op(st2, "c", fam, m2)
                assert st3 == st and s * s2 == 1
            else:
                s, st2 = r
                s2, st3 = slot_op(st2, "a", fam, m2)
                assert st3 == st and s * s2 == 1

    def test_bad_slot_is_a_usage_error(self):
        """An even or zero doubled mode, a pair outside the space, a state of
        another space, a neutral field without a neutral fermion or an
        unknown field is refused rather than read as another slot (mode 2
        would otherwise set the bit of mode 3/2)."""
        st = fock_state(((3,), (), (1,)))
        for field in ("psi+", "psi-", "phi"):
            for r2 in (2, 0, -2):
                with pytest.raises(UsageError):
                    apply_field(st, SP1, field, 0, r2)
        for index in (-1, 1):  # pair 1 would address the neutral family
            with pytest.raises(UsageError):
                apply_field(st, SP1, "psi+", index, -1)
        with pytest.raises(UsageError):
            apply_field(st, PAIR, "psi+", 0, -1)
        with pytest.raises(UsageError):
            apply_field(vacuum(PAIR), PAIR, "phi", 0, -1)
        with pytest.raises(UsageError):
            apply_field(st, SP1, "chi", 0, -1)

    def test_anticommutators(self):
        """Mode operators obey the canonical anticommutation relations:
        {a_x, a*_y} = delta_xy and {a_x, a_y} = {a*_x, a*_y} = 0, exercised
        across families and modes up to 5/2 on random states."""
        rng = random.Random(22)
        slots = [(fam, m2) for fam in range(SP1.families) for m2 in (1, 3, 5)]

        def op(kind, slot):
            def run(vec):
                out = {}
                for st, c in vec.items():
                    r = slot_op(st, kind, *slot)
                    if r is not None:
                        s, st2 = r
                        out[st2] = out.get(st2, 0) + s * c
                return {k: v for k, v in out.items() if v}
            return run

        def add(a, b):
            out = dict(a)
            for k, v in b.items():
                out[k] = out.get(k, 0) + v
            return {k: v for k, v in out.items() if v}

        for _ in range(200):
            st = rand_state(rng, SP1)
            vec = {st: 1}
            x = rng.choice(slots)
            y = rng.choice(slots)
            kx = rng.choice("ca")
            ky = rng.choice("ca")
            lhs = add(op(kx, x)(op(ky, y)(vec)), op(ky, y)(op(kx, x)(vec)))
            if x == y and kx != ky:
                assert lhs == vec, (x, y, kx, ky, st)
            else:
                assert lhs == {}, (x, y, kx, ky, st)

    def test_field_addressing(self):
        vac = vacuum(SP1)
        s, st = apply_field(vac, SP1, "psi+", 0, -1)
        assert state_modes(st)[0] == (1,) and s == 1
        # psi-_{+1} annihilates the plus excitation
        s2, st2 = apply_field(st, SP1, "psi-", 0, 1)
        assert st2 == vac and s2 == 1
        assert apply_field(vac, SP1, "psi+", 0, 1) is None
        with pytest.raises(UsageError):
            apply_field(vac, SP1, "phi", 0, 2)

    def test_parity_counts_neutral_modes_only(self):
        # neutral mode operators flip the parity grading; pair operators
        # leave it alone
        rng = random.Random(24)
        for _ in range(100):
            st = rand_state(rng, SP1)
            p = parity(st, SP1)
            for r2 in (-1, 1, -3, 3):
                r = apply_field(st, SP1, "phi", 0, r2)
                if r is not None:
                    assert parity(r[1], SP1) == 1 - p
                r = apply_field(st, SP1, "psi+", 0, r2)
                if r is not None:
                    assert parity(r[1], SP1) == p


class TestApplyD:
    def test_vacuum_neutral_space(self):
        tab = VarTable.make(1)
        sv = apply_D(vacuum(SP0), SP0, tab, 0)
        assert sv == {vacuum(SP0): x_inv(tab)}

    def test_single_neutral_excitation(self):
        tab = VarTable.make(1)
        st = fock_state(((1,),))
        sv = apply_D(st, SP0, tab, 0)
        u = LaurentPoly.monomial(tab, {0: 1})
        ui = LaurentPoly.monomial(tab, {0: -1})
        want = RatFunc.from_poly(u - ui) + x_inv(tab)
        assert sv == {st: want}

    def test_central_scalar_scales_with_space(self):
        tab = VarTable.make(1)
        sv = apply_D(vacuum(SP1), SP1, tab, 0)
        assert sv == {vacuum(SP1): x_inv(tab) * 3}

    def test_energy_preserved(self):
        rng = random.Random(23)
        tab = VarTable.make(1)
        for _ in range(60):
            st = rand_state(rng, SP1)
            for st2 in apply_D(st, SP1, tab, 0):
                assert energy2(st2) == energy2(st)

    def test_state_of_another_space_is_refused(self):
        """A state needs one mask per family of the space: a one-family state
        is not read as a state of a three-family space."""
        tab = VarTable.make(1)
        for st in (fock_state(((1,),)), vacuum(SP0), vacuum(PAIR)):
            with pytest.raises(UsageError):
                apply_D(st, SP1, tab, 0)
            with pytest.raises(UsageError):
                apply_field(st, SP1, "psi+", 0, -1)

    def test_insertion_that_moves_the_state_is_an_internal_error(
            self, monkeypatch):
        """The weights rely on D being diagonal; an apply_D that returns
        another state is a fault of the program, and the CLI exits 3."""
        def moved(state, *args):
            return {state[:-1] + (state[-1] ^ 1,): 1}

        monkeypatch.setattr(fock, "apply_D", moved)
        with pytest.raises(InternalInvariantError):
            oracle_trace(SP1, 2, VarTable.make(1), (0,))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["oracle", "--l", "1", "--n", "1", "--order", "1"])
        assert code == 3 and "internal error" in err.getvalue()

    @pytest.mark.parametrize("space", [SP0, SP1, PAIR])
    def test_at_a_point_equals_evaluated_symbolic(self, space):
        rng = random.Random(25)
        tab = VarTable.make(2)
        for seed in (4, 5, 6):
            pt = random_point((0, 1), seed)
            for _ in range(20):
                st = rand_state(rng, space)
                for t_index in (0, 1):
                    sym = apply_D(st, space, tab, t_index)
                    ev = apply_D(st, space, tab.bind(pt), t_index)
                    assert ev == {k: c.evaluate(pt).constant_value()
                                  for k, c in sym.items()}
                    assert all(type(c) is Fraction for c in ev.values())


class TestEvaluationPointErrors:
    @pytest.mark.parametrize("v", [Fraction(0), Fraction(1), Fraction(-1)])
    def test_bad_point_raises_evaluation_error(self, v):
        tab = VarTable.make(1)
        with pytest.raises(EvaluationPointError):
            apply_D(vacuum(SP1), SP1, tab.bind({0: v}), 0)
        with pytest.raises(EvaluationPointError):
            oracle_trace(SP1, 4, tab.bind({0: v}), (0,))

    def test_missing_insertion_value_is_a_usage_error(self):
        tab = VarTable.make(2).bind({0: Fraction(3)})
        with pytest.raises(UsageError):
            oracle_trace(SP1, 4, tab, (0, 1))
        with pytest.raises(UsageError):
            apply_D(vacuum(SP1), SP1, tab, 1)


class TestTraces:
    def test_neutral_bases(self):
        tab = VarTable.make(0)
        even, odd = oracle_trace(SP0, 6, tab, ())
        tw = even - odd
        got = {e2: c for e2, c in tw.items()}
        assert got == {0: 1, 1: -1, 3: -1, 4: 1, 5: -1, 6: 1}
        un = even + odd
        assert {e2: c for e2, c in un.items()} == \
            {0: 1, 1: 1, 3: 1, 4: 1, 5: 1, 6: 1}

    def test_cyclic_invariance(self):
        tab = VarTable.make(2)
        a = plain_trace(SP1, 4, tab, (0, 1))
        b = plain_trace(SP1, 4, tab, (1, 0))
        assert a.eq_upto(b)

    def test_charge_parity_blocks(self):
        """Elementary bilinears change each pair charge by 0 or +/-2, so the
        graded trace is supported on even-charge differences from zero."""
        tab = VarTable.make(1, 1)
        tr = plain_trace(SP1, 4, tab, (0,), z_indices=(1,))
        for _, c in tr.items():
            assert all(e[1] % 2 == 0 for e, _ in c.num.items())

    @pytest.mark.parametrize("space", [SP0, SP1, PAIR],
                             ids=["neutral", "pair+neutral", "pairs-only"])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("z_grading", [False, True])
    def test_eval_first_equals_evaluated_symbolic(self, space, n, z_grading):
        """Applying each insertion at the point gives exactly the symbolic
        trace evaluated there: plain, signed and both projections."""
        nz = space.pairs if z_grading else 0
        tab = VarTable.make(n, nz)
        ti = tuple(range(n))
        zi = tuple(range(n, n + nz)) if z_grading else None

        def traces(table):
            even, odd = oracle_trace(space, 5, table, ti, z_indices=zi)
            return {"plain": even + odd, "signed": even - odd,
                    "even": even, "odd": odd}

        sym = traces(tab)
        for seed in (1, 2, 3):
            pt = random_point(ti, seed)
            ev = traces(tab.bind(pt))
            for name, got in ev.items():
                want = sym[name].evaluate(pt)
                assert got.table == want.table and got.trunc2 == want.trunc2
                assert got.terms == want.terms, (name, seed)

    def test_eval_mode_matches_symbolic(self):
        tab = VarTable.make(1, 1)
        pt = {0: Fraction(7, 3)}
        sym = plain_trace(SP1, 4, tab, (0,), z_indices=(1,)).evaluate(pt)
        ev = plain_trace(SP1, 4, tab.bind(pt), (0,), z_indices=(1,))
        assert sym.eq_upto(ev)

    def test_pair_space_isomorphism_identity(self):
        # one complex pair vs two neutral copies: subset convolution
        tab = VarTable.make(1)
        tw = signed_trace(PAIR, 6, tab, (0,))
        conv = d_half_vacuum(1, 6, True, tab, (0,)) * \
            d_half_vacuum(0, 6, True, tab, ()) * 2
        assert tw.eq_upto(conv)


class TestExtraction:
    def test_rank_zero_is_identity(self):
        tab = VarTable.make(1)
        tr = signed_trace(SP0, 4, tab, (0,))
        ext = extract_module_function(tr, (), 0)
        assert ext.eq_upto(tr)

    def test_projector_route_matches_formula(self):
        tab = VarTable.make(1, 1)
        even, odd = oracle_trace(SP1, 6, tab, (0,), z_indices=(1,))
        ftab = VarTable.make(1)
        for det in (False, True):
            ext = irreducible_from_projected(even, odd, (), 1, det)
            frm = irreducible_function(BLabel((), det), 1, 1, 6, "convolved",
                                       ftab, (0,))
            assert frm.eq_upto(ext), frm.first_mismatch(ext)

    def test_qdim_extraction(self):
        from qfock.qdim import qdim_irreducible
        tab = VarTable.make(0, 1)
        even, odd = oracle_trace(SP1, 8, tab, (), z_indices=(0,))
        for lam in ((), (1,)):
            for det in (False, True):
                ext = irreducible_from_projected(even, odd, lam, 1, det)
                assert ext.eq_upto(qdim_irreducible(BLabel(lam, det), 1, 8))

    def test_out_of_range_coefficient(self):
        tab = VarTable.make(1)
        tr = plain_trace(SP0, 4, tab, (0,))
        with pytest.raises(UsageError):
            tr.coeff(6)


class TestVariableKinds:
    """Charge variables are distinct z-variables and insertion variables are
    t-variables; anything else is refused, not turned into a wrong series."""

    def test_repeated_charge_variables_are_refused(self):
        tab = VarTable.make(0, 2)
        with pytest.raises(UsageError):
            weyl_denominator_B(2, tab, (0, 0))
        with pytest.raises(UsageError):
            oracle_trace(FockSpace(2, neutral=False), 2, tab, (),
                         z_indices=(0, 0))

    def test_extraction_refuses_repeated_charge_variables(self):
        tab = VarTable.make(0, 2)
        tr = plain_trace(FockSpace(2), 4, tab, (), z_indices=(0, 1))
        assert {e2: c for e2, c in
                extract_module_function(tr, (), 2, (0, 1)).items()} == \
            {0: 1, 4: 1}
        with pytest.raises(UsageError):
            extract_module_function(tr, (), 2, (0, 0))

    @pytest.mark.parametrize("zi", [(0,), (2,), (-1,)], ids=str)
    def test_charge_grading_needs_a_z_variable(self, zi):
        with pytest.raises(UsageError):
            oracle_trace(SP1, 2, VarTable.make(2), (), z_indices=zi)

    def test_charge_grading_needs_one_variable_per_pair(self):
        with pytest.raises(UsageError):
            oracle_trace(SP1, 2, VarTable.make(0, 2), (), z_indices=(0, 1))

    @pytest.mark.parametrize("ti", [(1,), (2,), (-1,)], ids=str)
    def test_insertion_needs_a_t_variable(self, ti):
        tab = VarTable.make(1, 1)
        with pytest.raises(UsageError):
            oracle_trace(SP1, 2, tab, ti)
        with pytest.raises(UsageError):
            apply_D(vacuum(SP1), SP1, tab, ti[0])


class TestOnePassPerSpace:
    """Each verify suite enumerates each state space once: the parity
    projections come from one pass."""

    @pytest.mark.parametrize("suite,kwargs,spaces", [
        (verify.suite_main_theorem, {}, 4),
        (verify.suite_qdim, {"trunc2": 4}, 3),
        (verify.suite_vacuum_recursion, {"n_max": 2}, 6),
    ], ids=["main-theorem", "qdim", "vacuum-recursion"])
    def test_enumerations(self, monkeypatch, suite, kwargs, spaces):
        calls = []

        def counted(space, max2):
            calls.append(space)
            return enumerate_states(space, max2)

        monkeypatch.setattr(fock, "enumerate_states", counted)
        assert verify.suite_passed(suite(**kwargs))
        assert len(calls) == spaces


# ---------------------------------------------------------------------------
# the extraction as it was: the whole product c * den, then one z-coefficient
# ---------------------------------------------------------------------------

def _rf_z_coefficient(rf: RatFunc, z_exps: Mapping[int, int],
                      z_set: frozenset[int], out_table: VarTable) -> RatFunc:
    """Coefficient of the z-monomial with the given doubled exponents."""
    if any(i in z_set for i in rf.den.variables_used()):
        raise InternalInvariantError("denominator involves charge variables")
    keep = [i for i in range(len(rf.table)) if i not in z_set]
    num_terms = {}
    for e, c in rf.num.items():
        if all(e[i] == z_exps.get(i, 0) for i in z_set):
            num_terms[tuple(e[i] for i in keep)] = c
    num = LaurentPoly(out_table, num_terms)
    den_terms = {tuple(e[i] for i in keep): c for e, c in rf.den.items()}
    den = LaurentPoly(out_table, den_terms)
    return RatFunc(num, den, _canonical=True)


def _extract_by_product(trace: HalfSeries, lam: Sequence[int], l: int,
                        z_indices: Sequence[int] | None = None,
                        denominator: str = "minus") -> HalfSeries:
    lam = check_partition(lam, l)
    table = trace.table
    if z_indices is None:
        z_indices = table.z_indices()
    if len(z_indices) != l:
        raise UsageError(f"need {l} z-variables, got {len(z_indices)}")
    z_set = frozenset(z_indices)
    out_table = table.without(z_set)
    if l == 0:
        return trace.map_coeffs(
            lambda c: _rf_z_coefficient(c, {}, z_set, out_table),
            table=out_table)
    den = weyl_denominator_B(l, table, z_indices, variant=denominator)
    rho = rho_B(l)
    lamrho = tuple(a + b for a, b in zip(pad_weight(lam, l), rho))
    z_exps = {z_indices[i]: int(2 * lamrho[i]) for i in range(l)}
    out: dict[int, RatFunc] = {}
    for e2, c in trace.terms.items():
        v = _rf_z_coefficient(c * den, z_exps, z_set, out_table)
        if not v.is_zero():
            out[e2] = v
    return HalfSeries(out_table, trace.trunc2, out, _clean=True)


def _suite_traces():
    """The plain and parity-signed oracle traces of the main-theorem cells
    (l <= 2, n <= 2), symbolic and at a point, with their partitions: every
    lam with at most l parts, each part <= 2."""
    for l in (0, 1, 2):
        lams = [lam for r in range(l + 1)
                for lam in combinations_with_replacement((2, 1), r)]
        for n in (0, 1, 2):
            table = VarTable.make(n, l)
            ti = tuple(range(n))
            zi = tuple(range(n, n + l))
            for asn in [{}] + ([random_point(ti, 11)] if n else []):
                even, odd = oracle_trace(FockSpace(l, True), 6,
                                         table.bind(asn), ti, z_indices=zi)
                for trace in (even + odd, even - odd):
                    yield l, lams, trace


class TestExtractionWithoutTheProduct:
    def test_matches_the_full_product_and_is_canonical(self):
        compared = records = 0
        for l, lams, trace in _suite_traces():
            for lam in lams:
                for variant in ("minus", "plus"):
                    got = extract_module_function(trace, lam, l, None,
                                                  variant)
                    want = _extract_by_product(trace, lam, l, None, variant)
                    assert json.dumps(series_to_json(got)) == \
                        json.dumps(series_to_json(want)), (l, lam, variant)
                    # marked canonical without a reduction: it must be one,
                    # with an int for every integral coefficient
                    for _, c in got.items():
                        if not isinstance(c, RatFunc):
                            # no variable left: a number, an int if integral
                            assert type(c) is int or c.denominator != 1
                            continue
                        r = RatFunc(c.num, c.den)
                        assert (r.num, r.den) == (c.num, c.den), (l, lam)
                        assert all(type(v) is int or v.denominator != 1
                                   for v in c.num.terms.values())
                        # the factor record mapped over from the trace is
                        # the one a fresh split of the denominator gives
                        assert c.dfac == _split(c.den.terms, len(c.table)), \
                            (l, lam)
                        records += bool(c.dfac)
                    compared += 1
        # 10 traces per l (plain and signed; n = 0 symbolic, n = 1, 2 both
        # ways), 1 + 3 + 6 partitions, two variants; 332 of the extracted
        # coefficients have binomial factors in their denominator
        assert compared == 10 * (1 + 3 + 6) * 2
        assert records == 332

    def test_an_integral_sum_of_fractions_is_an_int(self):
        # (z^0 - z) / 2 times z^(1/2) - z^(-1/2): 1/2 + 1/2 at z^(1/2)
        tab = VarTable.make(0, 1)
        num = LaurentPoly(tab, {(0,): Fraction(1, 2), (2,): Fraction(-1, 2)})
        trace = HalfSeries(tab, 2, {0: RatFunc.from_poly(num)})
        c = extract_module_function(trace, (), 1).coeff(0)
        assert c == 1 and type(c) is int
        assert c == _extract_by_product(trace, (), 1).coeff(0)

    def test_charge_variables_in_a_denominator_are_refused(self):
        tab = VarTable.make(0, 1)
        z = LaurentPoly.monomial(tab, {0: 2})
        bad = HalfSeries(tab, 2, {0: RatFunc(LaurentPoly.one(tab),
                                             z + LaurentPoly.one(tab))})
        with pytest.raises(InternalInvariantError):
            extract_module_function(bad, (), 1)


# ---------------------------------------------------------------------------
# the extraction as it was on exponent tuples, word for word: every key of
# the trace unpacked, matched by its z-exponents, the rest packed again
# ---------------------------------------------------------------------------

def _extract_by_tuples(trace: HalfSeries, lam: Sequence[int], l: int,
                       z_indices: Sequence[int] | None = None,
                       denominator: str = "minus") -> HalfSeries:
    lam = check_partition(lam, l)
    table = trace.table
    z_indices = _z_vars(table, l, z_indices)
    z_set = frozenset(z_indices)
    keep = [i for i in range(len(table)) if i not in z_set]
    out_table = table.without(z_set)
    den = weyl_denominator_B(l, table, z_indices, variant=denominator)
    if not len(table):
        return trace.scale(den.constant_value())  # l = 0: numbers
    rho = rho_B(l)
    target = tuple(int(2 * (a + b)) for a, b in zip(pad_weight(lam, l), rho))
    # the z-exponents a term of c.num needs: den's coefficient at target - e_z
    need = {tuple(t - e[i] for t, i in zip(target, z_indices)): c
            for e, c in den.items()}
    # c.den and its binomial factors are zero in every z-column, so they
    # map over with those columns dropped
    drop = table.drop_images(z_set)
    out: dict[int, RatFunc] = {}
    for e2, c in trace.terms.items():
        if any(i in z_set for i in c.den.variables_used()):
            raise InternalInvariantError("denominator involves charge variables")
        num_terms: dict = {}
        for e, a in c.num.items():
            b = need.get(tuple(e[i] for i in z_indices))
            if b is not None:
                k = tuple(e[i] for i in keep)
                num_terms[k] = num_terms.get(k, 0) + a * b
        num = LaurentPoly(out_table, num_terms)  # drops zeros, normalizes
        if num.terms:
            dfac = c.dfac and _rename_factors(c.dfac, len(out_table), drop)
            out[e2] = RatFunc(num, c.den.rename_signed(out_table, drop),
                              _canonical=True, dfac=dfac)
    return HalfSeries(out_table, trace.trunc2, out)


def _json(s: HalfSeries) -> str:
    return json.dumps(series_to_json(s))


def _mixed_traces():
    """Traces over tables whose z-variables are not the last fields: z1 t1
    (l = 1) and z1 t1 z2 t2 (l = 2), symbolic and at a point."""
    for names, zi, ti in ((("z1", "t1"), (0,), (1,)),
                          (("z1", "t1", "z2", "t2"), (0, 2), (1, 3))):
        table = VarTable(names, tuple(nm[0] for nm in names))
        l = len(zi)
        lams = [lam for r in range(l + 1)
                for lam in combinations_with_replacement((2, 1), r)]
        for asn in ({}, random_point(ti, 11)):
            even, odd = oracle_trace(FockSpace(l, True), 6, table.bind(asn),
                                     ti, z_indices=zi)
            for trace in (even + odd, even - odd):
                yield l, lams, trace


class TestPackedExtraction:
    def test_matches_the_tuple_extraction(self):
        compared = 0
        for l, lams, trace in [*_suite_traces(), *_mixed_traces()]:
            for lam in lams:
                for variant in ("minus", "plus"):
                    got = extract_module_function(trace, lam, l, None,
                                                  variant)
                    want = _extract_by_tuples(trace, lam, l, None, variant)
                    assert _json(got) == _json(want), (l, lam, variant)
                    assert got.terms == want.terms
                    compared += 1
        # _suite_traces as in TestExtractionWithoutTheProduct; then 4
        # traces at l = 1 with 3 partitions, 4 at l = 2 with 6
        assert compared == 10 * (1 + 3 + 6) * 2 + (4 * 3 + 4 * 6) * 2

    def test_the_z_fields_are_read_where_the_table_puts_them(self):
        # z1 first; at lam = () the minus variant reads charge 0 with sign
        # +1 and charge 1 with -1: (t1 + 5 z1 t1 + 7 z1^2) gives -4 t1
        table = VarTable(("z1", "t1"), ("z", "t"))
        trace = HalfSeries(table, 0, {0: RatFunc.from_poly(
            LaurentPoly(table, {(0, 2): 1, (2, 2): 5, (4, 0): 7}))})
        got = extract_module_function(trace, (), 1)
        assert got.table.names == ("t1",)
        assert _json(got) == _json(_extract_by_tuples(trace, (), 1))
        assert got.coeff(0) == RatFunc.from_poly(
            LaurentPoly.monomial(got.table, {0: 2}, -4))

    @pytest.mark.parametrize("variant", ["minus", "plus"])
    def test_rank_zero_returns_the_trace(self, variant):
        for table in (VarTable.make(1), VarTable.make(1).bind({0: 3})):
            tr = plain_trace(SP0, 4, table, (0,))
            assert extract_module_function(tr, (), 0, None, variant) is tr

    def test_rank_zero_still_refuses_bad_arguments(self):
        tr = plain_trace(SP0, 4, VarTable.make(1), (0,))
        for args in (((1,), 0), ((), 0, None, "sideways"), ((), 0, (0,))):
            with pytest.raises(UsageError):
                extract_module_function(tr, *args)


# ---------------------------------------------------------------------------
# the oracle's sector request
# ---------------------------------------------------------------------------

def _charges_held(trace: HalfSeries) -> set[tuple[int, ...]]:
    """The charge vectors of the z-monomials in the trace's coefficients."""
    z = trace.table.z_indices()
    if not z:  # numbers, or no charge grading: the empty vector
        return {()}
    return {tuple(e[i] // 2 for i in z)
            for _, c in trace.items() for e, _ in c.num.items()}


class TestSectorRequest:
    """oracle_trace(..., sectors) weighs only the states of the requested
    charge vectors, and extraction reads nothing else."""

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_restricted_extraction_matches_the_full_trace(self, l):
        lams = [lam for _, lam, _ in verify._main_grid((l,), (1,))]
        sectors = extraction_sectors(lams, l)
        assert len(sectors) == {0: 1, 1: 4, 2: 20, 3: 128}[l]
        dropped = 0
        for n in (0, 1, 2):
            table = VarTable.make(n, l)
            ti = tuple(range(n))
            zi = tuple(range(n, n + l))
            for asn in [{}] + ([random_point(ti, 11)] if n else []):
                args = (FockSpace(l, True), 6, table.bind(asn), ti, zi)
                (fe, fo), (pe, po) = (oracle_trace(*args),
                                      oracle_trace(*args, sectors))
                for full, part in ((fe + fo, pe + po), (fe - fo, pe - po)):
                    # only the requested charge vectors are left
                    assert _charges_held(part) <= sectors
                    dropped += _charges_held(full) > _charges_held(part)
                    for lam in lams:
                        for variant in ("minus", "plus"):
                            assert _json(extract_module_function(
                                part, lam, l, None, variant)) == _json(
                                extract_module_function(
                                    full, lam, l, None, variant)), \
                                (l, n, asn, lam, variant)
        assert dropped or l == 0

    def test_the_request_is_a_filter(self):
        tab = VarTable.make(1, 1)
        full = plain_trace(SP1, 6, tab, (0,), (1,))
        assert plain_trace(SP1, 6, tab, (0,), (1,), None).eq_upto(full)
        every = {(c,) for c in range(-3, 4)}
        assert plain_trace(SP1, 6, tab, (0,), (1,), every).eq_upto(full)
        assert plain_trace(SP1, 6, tab, (0,), (1,), []).is_zero()

    def test_a_request_needs_charge_grading(self):
        # UsageError, exit 2 in the CLI
        with pytest.raises(UsageError):
            oracle_trace(SP1, 2, VarTable.make(0, 1), (), None, [(0,)])

    @pytest.mark.parametrize("vector", [(), (0, 0)], ids=str)
    def test_a_vector_needs_one_charge_per_pair(self, vector):
        with pytest.raises(UsageError):
            oracle_trace(SP1, 2, VarTable.make(0, 1), (), (0,),
                         [(0,), vector])


# ---------------------------------------------------------------------------
# canonical coefficients: the oracle's level sums and the extraction build
# RatFuncs without re-reducing them, so each must already be reduced
# ---------------------------------------------------------------------------

def _assert_canonical(c, where) -> int:
    """c is a number, or a RatFunc equal to its full re-reduction with the
    factor record a fresh split of its denominator gives; 1 if a RatFunc."""
    if not isinstance(c, RatFunc):
        return 0
    r = RatFunc(c.num, c.den)
    assert (r.num, r.den) == (c.num, c.den), where
    assert c.dfac == _split(c.den.terms, len(c.table)), where
    return 1


class TestCanonicalCoefficients:
    def test_oracle_and_extraction_coefficients_are_reduced(self):
        checked = extracted = 0
        for l in (0, 1, 2):
            lams = [lam for lam in ((), (1,), (2,), (3,), (1, 1), (2, 1))
                    if len(lam) <= l]
            for n in (0, 1, 2):
                table = VarTable.make(n, l)
                ti = tuple(range(n))
                zi = tuple(range(n, n + l))
                for asn in [{}] + ([random_point(ti, 11)] if n else []):
                    even, odd = oracle_trace(FockSpace(l, True), 6,
                                             table.bind(asn), ti, z_indices=zi)
                    for trace in (even, odd, even + odd, even - odd):
                        for e2, c in trace.items():
                            checked += _assert_canonical(c, (l, n, asn, e2))
                    for trace in (even + odd, even - odd):
                        for lam, variant in product(lams, ("minus", "plus")):
                            for e2, c in extract_module_function(
                                    trace, lam, l, None, variant).items():
                                extracted += _assert_canonical(
                                    c, (l, n, asn, lam, variant, e2))
        # RatFunc coefficients: 4 traces per table, 2 traces x 2 variants
        # per lam
        assert (checked, extracted) == (306, 332)
