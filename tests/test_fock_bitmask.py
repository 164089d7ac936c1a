"""Differential tests of the bitmask Fock states against the tuple states
they replaced.

The references below are the tuple-state oracle, verbatim: FockState kept
each family's modes as a strictly decreasing tuple, validated on every
construction, and counted an operator's sign by scanning tuples
(_position); apply_D looped over every k2 up to the state's energy and
every operator pair.  The bitmask oracle must give the same signs, states,
vectors and traces, the traces compared as series_to_json bytes.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from qfock import fock  # noqa: E402
from qfock.cli import series_to_json  # noqa: E402
from qfock.fock import FockSpace  # noqa: E402
from qfock.laurent import (  # noqa: E402
    EvaluationPointError,
    InternalInvariantError,
    LaurentPoly,
    UsageError,
    VarTable,
)
from qfock.ratfunc import RatFunc  # noqa: E402
from qfock.series import HalfSeries  # noqa: E402
from qfock.verify import random_point  # noqa: E402


# ---------------------------------------------------------------------------
# the tuple-state reference
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FockState:
    """Occupied modes per family; doubled half-odd values, strictly decreasing."""

    modes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for fam in self.modes:
            for m in fam:
                if m <= 0 or m % 2 == 0:
                    raise UsageError(f"modes must be positive half-odd: {m}/2")
            if any(a <= b for a, b in zip(fam, fam[1:])):
                raise UsageError(f"modes must strictly decrease: {fam}")

    @classmethod
    def vacuum(cls, space: FockSpace) -> "FockState":
        return cls(((),) * space.families)

    def energy2(self) -> int:
        return sum(sum(fam) for fam in self.modes)

    def charges(self, space: FockSpace) -> tuple[int, ...]:
        return tuple(len(self.modes[2 * p]) - len(self.modes[2 * p + 1])
                     for p in range(space.pairs))

    def alpha_parity(self, space: FockSpace) -> int:
        """Neutral-excitation count mod 2."""
        return len(self.modes[space.neutral_family()]) % 2

    def total_parity(self) -> int:
        return sum(len(fam) for fam in self.modes) % 2



def _position(state: FockState, fam: int, m2: int) -> int:
    """Number of creation operators standing before slot (fam, m2)."""
    count = sum(len(state.modes[f]) for f in range(fam))
    count += sum(1 for m in state.modes[fam] if m > m2)
    return count


def create(state: FockState, fam: int, m2: int) -> tuple[int, FockState] | None:
    """Apply the creation operator for (fam, m2); None if excluded."""
    if m2 in state.modes[fam]:
        return None
    pos = _position(state, fam, m2)
    fam_modes = tuple(sorted(state.modes[fam] + (m2,), reverse=True))
    modes = state.modes[:fam] + (fam_modes,) + state.modes[fam + 1:]
    return (-1) ** pos, FockState(modes)


def annihilate(state: FockState, fam: int, m2: int) -> tuple[int, FockState] | None:
    """Apply the annihilation operator for (fam, m2); None if unoccupied."""
    if m2 not in state.modes[fam]:
        return None
    pos = _position(state, fam, m2)
    fam_modes = tuple(m for m in state.modes[fam] if m != m2)
    modes = state.modes[:fam] + (fam_modes,) + state.modes[fam + 1:]
    return (-1) ** pos, FockState(modes)


def apply_field(state: FockState, space: FockSpace, field: str, index: int,
                r2: int) -> tuple[int, FockState] | None:
    """Apply one fermion mode operator.

    field is "psi+", "psi-" (index = pair, 0-based) or "phi" (index ignored).
    r2 is the doubled mode index; negative indices create, positive ones
    annihilate, pairing psi+ with psi- across a pair.
    """
    if r2 == 0 or r2 % 2 == 0:
        raise UsageError("mode indices are half-odd integers")
    if field == "phi":
        fam = space.neutral_family()
        return create(state, fam, -r2) if r2 < 0 else annihilate(state, fam, r2)
    if field == "psi+":
        if r2 < 0:
            return create(state, 2 * index, -r2)
        return annihilate(state, 2 * index + 1, r2)
    if field == "psi-":
        if r2 < 0:
            return create(state, 2 * index + 1, -r2)
        return annihilate(state, 2 * index, r2)
    raise UsageError(f"unknown field {field!r}")


StateVector = dict  # FockState -> RatFunc, or Fraction at a point


def apply_D(state: FockState, space: FockSpace, table: VarTable,
            t_index: int) -> StateVector:
    """Apply the diagonal trace insertion for the variable t_index.

    Normal-ordered bilinears are applied term by term through the elementary
    operators (only modes up to the state's energy can contribute), then the
    central scalar (2*pairs + neutral)/(t^(1/2) - t^(-1/2)) adds the input
    state back; 2*pairs + neutral is the number of fermion families.

    Over a bound table, whose square-root value for t_index is v, the
    coefficients are the Fractions the symbolic ones take there: s*t^(k/2)
    becomes s*v^k and the central scalar (2*pairs + neutral) * v/(v^2 - 1).
    """
    if not table.values:
        def term(k2: int, sign: int) -> RatFunc:
            return RatFunc.from_poly(
                LaurentPoly.monomial(table, {t_index: k2}, sign))
        central = RatFunc(LaurentPoly.monomial(table, {t_index: 1}),
                          LaurentPoly.monomial(table, {t_index: 2})
                          - LaurentPoly.one(table)) * space.families
    else:
        v = dict(table.values).get(t_index)
        if v is None:
            raise UsageError(f"no value for insertion variable {t_index}")
        central = 0
        if space.families:
            if v * v == 1:
                raise EvaluationPointError(
                    "the insertion has a pole at t = 1")
            central = space.families * v / (v * v - 1)

        def term(k2: int, sign: int) -> Fraction:
            return sign * v ** k2
    out: StateVector = {}

    def add(st: FockState, coeff) -> None:
        cur = out.get(st)
        cur = coeff if cur is None else cur + coeff
        if not cur:
            out.pop(st, None)
        else:
            out[st] = cur

    e2 = state.energy2()
    ops: list[tuple[str, int, str, int]] = []
    for p in range(space.pairs):
        ops.append(("psi-", p, "psi+", p))   # psi+_{-k} psi-_{k}: psi- first
        ops.append(("psi+", p, "psi-", p))   # psi-_{-k} psi+_{k}: psi+ first
    if space.neutral:
        ops.append(("phi", 0, "phi", 0))
    for k2 in range(1, e2 + 1, 2):
        for first, i1, second, i2 in ops:
            # positive index term: t^(k2/2) (create at -k2 after annihilating at k2)
            r = apply_field(state, space, first, i1, k2)
            if r is not None:
                s1, st1 = r
                r2_ = apply_field(st1, space, second, i2, -k2)
                if r2_ is not None:
                    s2, st2 = r2_
                    add(st2, term(k2, s1 * s2))
            # negative index term, normal ordered: -t^(-k2/2) (swap the roles)
            r = apply_field(state, space, second, i2, k2)
            if r is not None:
                s1, st1 = r
                r2_ = apply_field(st1, space, first, i1, -k2)
                if r2_ is not None:
                    s2, st2 = r2_
                    add(st2, term(-k2, -s1 * s2))
    add(state, central)
    return out


# ---------------------------------------------------------------------------
# enumeration and traces
# ---------------------------------------------------------------------------

def _distinct_mode_sets(max2: int) -> list[tuple[tuple[int, ...], int]]:
    """All strictly decreasing tuples of half-odd doubled modes with sum <= max2."""
    modes = list(range(1, max2 + 1, 2))
    out: list[tuple[tuple[int, ...], int]] = []

    def rec(i: int, cur: list[int], tot: int) -> None:
        out.append((tuple(sorted(cur, reverse=True)), tot))
        for j in range(i, len(modes)):
            if tot + modes[j] <= max2:
                cur.append(modes[j])
                rec(j + 1, cur, tot + modes[j])
                cur.pop()

    rec(0, [], 0)
    return out


def enumerate_states(space: FockSpace, max2: int) -> dict[int, list[FockState]]:
    """Every state with energy <= max2/2, grouped by doubled energy."""
    if max2 < 0:
        raise UsageError("energy bound must be nonnegative")
    per_family = _distinct_mode_sets(max2)
    levels: dict[int, list[FockState]] = {e2: [] for e2 in range(max2 + 1)}

    def rec(fam: int, acc: list[tuple[int, ...]], tot: int) -> None:
        if fam == space.families:
            levels[tot].append(FockState(tuple(acc)))
            return
        for ms, s in per_family:
            if tot + s <= max2:
                acc.append(ms)
                rec(fam + 1, acc, tot + s)
                acc.pop()

    rec(0, [], 0)
    return levels


def _diagonal_weight(state: FockState, space: FockSpace, table: VarTable,
                     t_indices: Sequence[int]):
    """<state| product of insertions |state> via repeated apply_D: a RatFunc,
    or a Fraction over a bound table (the int 1 without insertions, 0 when
    the insertions do not return to the state)."""
    vec: StateVector = {state: 1}
    for t_index in reversed(tuple(t_indices)):
        nxt: StateVector = {}
        for st, coeff in vec.items():
            for st2, c2 in apply_D(st, space, table, t_index).items():
                if st2.energy2() != st.energy2():
                    raise InternalInvariantError("insertion changed the energy")
                cur = nxt.get(st2)
                cur = coeff * c2 if cur is None else cur + coeff * c2
                if not cur:
                    nxt.pop(st2, None)
                else:
                    nxt[st2] = cur
        vec = nxt
    return vec.get(state, 0)


def oracle_trace(space: FockSpace, trunc2: int, table: VarTable,
                 t_indices: Sequence[int] = (),
                 z_indices: Sequence[int] | None = None,
                 parity_sign: bool = False,
                 parity_projector: str | None = None) -> HalfSeries:
    """Exact graded trace over the states of energy <= trunc2/2.

    Insertions: one diagonal operator per entry of t_indices, optional charge
    grading in z_indices (one per pair), optional parity sign (-1)^parity and
    parity projector ("even"/"odd").  The parity counts neutral excitations
    when the space has a neutral fermion and all excitations otherwise.
    Each q^(m) coefficient is exact: the insertions preserve energy, so no
    truncation leaks between levels.

    Over a bound table, which must bind every insertion variable, each
    insertion is applied at the table's point, so every weight is a Fraction;
    the result lives over table.free() (z-variables survive).

    Either way the weights are summed per q-level and charge vector, and each
    q-level is built once as the sum of weight * z^charges.
    """
    if parity_projector not in (None, "even", "odd"):
        raise UsageError(f"unknown projector {parity_projector!r}")
    if z_indices is not None and len(z_indices) != space.pairs:
        raise UsageError("need one z-variable per pair")
    out_table = table.free()
    zi = tuple(out_table.index(table.names[i]) for i in z_indices or ())
    # q-level -> z-exponents over out_table -> summed weight
    sums: dict[int, dict[tuple[int, ...], object]] = {}
    for e2, states in enumerate_states(space, trunc2).items():
        for state in states:
            par = (state.alpha_parity(space) if space.neutral
                   else state.total_parity())
            if parity_projector == "even" and par:
                continue
            if parity_projector == "odd" and not par:
                continue
            weight = _diagonal_weight(state, space, table, t_indices)
            if not weight:
                continue
            if parity_sign and par:
                weight = -weight
            z_exps = {i: 2 * c for i, c in zip(zi, state.charges(space))}
            key = tuple(z_exps.get(i, 0) for i in range(len(out_table)))
            level = sums.setdefault(e2, {})
            level[key] = level[key] + weight if key in level else weight
    terms: dict[int, RatFunc] = {}
    for e2, level in sums.items():
        c = RatFunc.zero(out_table)
        for key, weight in level.items():
            c = c + weight * LaurentPoly(out_table, {key: 1})
        if c:
            terms[e2] = c
    return HalfSeries(out_table, trunc2, terms, _clean=True)



# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------

SPACES = [FockSpace(p, neutral) for p in (0, 1, 2) for neutral in (True, False)]
MODES = (1, 3, 5, 7, 9)
SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def states(draw):
    """(space, modes): up to three of the modes 1/2 .. 9/2 per family."""
    space = draw(st.sampled_from(SPACES))
    modes = tuple(
        tuple(sorted(draw(st.sets(st.sampled_from(MODES), max_size=3)),
                     reverse=True))
        for _ in range(space.families))
    return space, modes


def _checked(r):
    """(sign, modes) of an operator's result; a state built by a flip must
    equal, hash included, the one validated from its modes."""
    if r is None:
        return None
    sign, state = r
    modes = fock.state_modes(state)
    validated = fock.fock_state(modes)
    assert state == validated and hash(state) == hash(validated)
    return sign, modes


def _ref(r):
    """(sign, modes) of a reference operator's result."""
    return r and (r[0], r[1].modes)


def _energy2(state):
    return sum(map(sum, fock.state_modes(state)))


def _fields(space):
    out = [("phi", 0)] if space.neutral else []
    return out + [(f, p) for p in range(space.pairs) for f in ("psi+", "psi-")]


@SETTINGS
@given(states())
def test_elementary_operators_match_the_tuple_states(case):
    space, modes = case
    new, ref = fock.fock_state(modes), FockState(modes)
    assert fock.state_modes(new) == ref.modes == modes
    assert _energy2(new) == ref.energy2()
    assert fock.charges(new, space) == ref.charges(space)
    assert fock.parity(new, space) == (
        ref.alpha_parity(space) if space.neutral else ref.total_parity())
    for field, index in _fields(space):
        for r2 in MODES + (11,):
            for r in (r2, -r2):
                assert _checked(fock.apply_field(new, space, field, index, r)) \
                    == _ref(apply_field(ref, space, field, index, r))


def _by_modes(vec):
    return {fock.state_modes(st_): c for st_, c in vec.items()}


@SETTINGS
@given(states(), st.integers(0, 40))
def test_apply_D_matches_the_tuple_states(case, seed):
    space, modes = case
    tab = VarTable.make(2)
    for table in (tab, tab.bind(random_point((0, 1), seed))):
        for t_index in (0, 1):
            got = fock.apply_D(fock.fock_state(modes), space, table, t_index)
            want = apply_D(FockState(modes), space, table, t_index)
            assert _by_modes(got) == {s.modes: c for s, c in want.items()}


@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_enumerate_states_matches_the_tuple_states(space):
    max2 = 9 if space.families <= 3 else 6
    got = fock.enumerate_states(space, max2)
    want = enumerate_states(space, max2)
    assert list(got) == list(want)
    for e2, level in want.items():
        assert [fock.state_modes(s) for s in got[e2]] == \
            [s.modes for s in level]
        assert all(_energy2(s) == e2 for s in got[e2])


def _bytes(s: HalfSeries) -> bytes:
    return json.dumps(series_to_json(s), sort_keys=True).encode()


def _as_reference_kwargs(even: HalfSeries, odd: HalfSeries):
    """Each trace built from the parity projections, with the keyword
    arguments that give it in the reference."""
    return (({}, even + odd), ({"parity_sign": True}, even - odd),
            ({"parity_projector": "even"}, even),
            ({"parity_projector": "odd"}, odd))


@pytest.mark.parametrize("space", [FockSpace(0, True), FockSpace(1, True),
                                   FockSpace(1, False)], ids=repr)
def test_projections_match_the_reference(space):
    """Symbolic, with one insertion: the plain and parity-signed traces
    recombined from the projections, and each projection, as the
    reference computes them one option at a time."""
    table = VarTable.make(1)
    even, odd = fock.oracle_trace(space, 4, table, (0,))
    for kwargs, got in _as_reference_kwargs(even, odd):
        want = oracle_trace(space, 4, table, (0,), **kwargs)
        assert _bytes(got) == _bytes(want), kwargs


@pytest.mark.parametrize("seed", [None, 0, 3, 20], ids=str)
@pytest.mark.parametrize("l,n", [(l, n) for l in (0, 1) for n in (1, 2)])
def test_oracle_trace_bytes_match_on_the_criterion_5_grid(l, n, seed):
    """Symbolic to order 3, at a point to order 4, as the main-theorem suite
    runs them: plain, parity-signed and both projectors."""
    ti = tuple(range(n))
    zi = tuple(range(n, n + l))
    point = {} if seed is None else random_point(ti, seed)
    trunc2 = 6 if seed is None else 8
    table = VarTable.make(n, l).bind(point)
    space = FockSpace(l, neutral=True)
    even, odd = fock.oracle_trace(space, trunc2, table, ti, z_indices=zi)
    for kwargs, got in _as_reference_kwargs(even, odd):
        want = oracle_trace(space, trunc2, table, ti, z_indices=zi, **kwargs)
        assert _bytes(got) == _bytes(want), kwargs
