"""Brute-force ground truth: explicit fermionic Fock states, exact operator
actions, graded traces, and dominant-monomial extraction.

A space has l complex-fermion pairs and optionally one neutral fermion.
States are canonical products of creation operators: families ordered
(plus_1, minus_1, ..., plus_l, minus_l, neutral), modes strictly decreasing
within a family; modes are positive half-odd integers stored doubled.

A state is the plain tuple of its family masks, one int per family, bit
(m2 - 1)/2 standing for the doubled mode m2.  No energy is stored:
enumerate_states groups the states by it.  fock_state(modes) validates and
builds a state, state_modes decodes one, vacuum builds the empty one, and
charges and parity read the gradings.  apply_field, the one mode operator,
tests and flips one bit.  Its sign is (-1)^(number of creation operators
standing before the slot in the canonical product): the popcount of every
earlier family's mask plus that of the higher modes in the slot's own
family.

The diagonal operator inserted in traces acts on a state as

    sum over occupied modes m of (t^m - t^(-m))
      + (2*pairs + neutral) / (t^(1/2) - t^(-1/2)),

which apply_D applies term by term, flipping each slot with _flip after one
shape check: the anticommutation bookkeeping is exercised, not assumed.  Over
a bound table (VarTable.bind) the operators run with Fractions, not RatFuncs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .laurent import (
    EvaluationPointError,
    InternalInvariantError,
    LaurentPoly,
    T_KIND,
    UsageError,
    VarTable,
)
from .ratfunc import RatFunc, _rename_factors
from .series import HalfSeries
from .weylb import _det_sector, _z_vars, check_partition, extraction_charges


@dataclass(frozen=True)
class FockSpace:
    """l complex-fermion pairs plus (optionally) one neutral fermion."""

    pairs: int
    neutral: bool = True

    def __post_init__(self):
        if self.pairs < 0:
            raise UsageError("pair count must be nonnegative")

    @property
    def families(self) -> int:
        return 2 * self.pairs + (1 if self.neutral else 0)

    def neutral_family(self) -> int:
        if not self.neutral:
            raise UsageError("space has no neutral fermion")
        return 2 * self.pairs


State = tuple  # of family masks, one int each


def fock_state(modes: Sequence[Sequence[int]]) -> State:
    """The state of the given doubled modes, strictly decreasing per family."""
    for fam in modes:
        for m in fam:
            if m <= 0 or m % 2 == 0:
                raise UsageError(f"modes must be positive half-odd: {m}/2")
        if any(a <= b for a, b in zip(fam, fam[1:])):
            raise UsageError(f"modes must strictly decrease: {fam}")
    return tuple(sum(1 << (m >> 1) for m in fam) for fam in modes)


def state_modes(state: State) -> tuple[tuple[int, ...], ...]:
    """The occupied doubled modes of each family, decreasing."""
    return tuple(tuple(2 * b + 1 for b in reversed(range(mask.bit_length()))
                       if mask >> b & 1) for mask in state)


def vacuum(space: FockSpace) -> State:
    return (0,) * space.families


def charges(state: State, space: FockSpace) -> tuple[int, ...]:
    return tuple(state[2 * p].bit_count() - state[2 * p + 1].bit_count()
                 for p in range(space.pairs))


def parity(state: State, space: FockSpace) -> int:
    """The neutral-excitation count mod 2 when the space has a neutral
    fermion, else the count of all excitations mod 2."""
    if space.neutral:
        return state[space.neutral_family()].bit_count() & 1
    return sum(map(int.bit_count, state)) & 1


def _check_shape(state: State, space: FockSpace) -> None:
    if len(state) != space.families:
        raise UsageError(f"a state of {len(state)} families in {space}")


# ---------------------------------------------------------------------------
# elementary operators
# ---------------------------------------------------------------------------

def _flip(state: State, fam: int, m2: int,
          occupied: bool) -> tuple[int, State] | None:
    """Flip slot (fam, m2) if its occupation is `occupied`, else None.  The
    sign counts the creation operators standing before the slot: every mode
    of the earlier families and the higher modes of this one."""
    b = m2 >> 1
    mask = state[fam]
    if (mask >> b & 1) != occupied:
        return None
    ahead = sum(map(int.bit_count, state[:fam])) + (mask >> b + 1).bit_count()
    return (-1 if ahead & 1 else 1,
            state[:fam] + (mask ^ 1 << b,) + state[fam + 1:])


def apply_field(state: State, space: FockSpace, field: str, index: int,
                r2: int) -> tuple[int, State] | None:
    """Apply one fermion mode operator.

    field is "psi+", "psi-" (index = pair, 0-based) or "phi" (index ignored).
    r2 is the doubled mode index; negative indices create, positive ones
    annihilate, pairing psi+ with psi- across a pair.
    """
    _check_shape(state, space)
    if r2 == 0 or r2 % 2 == 0:
        raise UsageError("mode indices are half-odd integers")
    if field == "phi":
        fam = space.neutral_family()
    elif field in ("psi+", "psi-"):
        if not 0 <= index < space.pairs:
            raise UsageError(f"no pair {index} in a space of {space.pairs}")
        # psi+ creates in the plus family and annihilates in the minus one
        fam = 2 * index + ((field == "psi+") == (r2 > 0))
    else:
        raise UsageError(f"unknown field {field!r}")
    return _flip(state, fam, abs(r2), r2 > 0)


StateVector = dict  # state (tuple of family masks) -> RatFunc, or Fraction


def _add_to(vec: StateVector, st: State, coeff) -> None:
    """vec[st] += coeff, dropping a zero entry."""
    cur = vec.get(st)
    cur = coeff if cur is None else cur + coeff
    if cur:
        vec[st] = cur
    else:
        vec.pop(st, None)


class _Insertion(dict):
    """The coefficients of the insertion for t_index: .central, the scalar
    (2*pairs + neutral)/(t^(1/2) - t^(-1/2)), and at key (k2, s) a term's
    s*t^(k2/2), built on first use.  Over a bound table, whose square-root
    value for t_index is v, they are the Fractions (2*pairs + neutral) *
    v/(v^2 - 1) and s*v^k2."""

    def __init__(self, space: FockSpace, table: VarTable, t_index: int):
        super().__init__()
        table.check_vars(T_KIND, (t_index,), 1)
        self.table, self.t_index = table, t_index
        v = self.v = dict(table.values).get(t_index)
        if not table.values:
            self.central = RatFunc(
                LaurentPoly.monomial(table, {t_index: 1}),
                LaurentPoly.monomial(table, {t_index: 2})
                - LaurentPoly.one(table)) * space.families
        elif v is None:
            raise UsageError(f"no value for insertion variable {t_index}")
        elif space.families and v * v == 1:
            raise EvaluationPointError("the insertion has a pole at t = 1")
        else:
            self.central = space.families and space.families * v / (v * v - 1)

    def __missing__(self, key: tuple[int, int]):
        k2, sign = key
        if self.v is None:
            c = RatFunc.from_poly(LaurentPoly.monomial(
                self.table, {self.t_index: k2}, sign))
        else:
            c = sign * self.v ** k2
        self[key] = c
        return c


def apply_D(state: State, space: FockSpace, table: VarTable,
            t_index: int, insertion: _Insertion | None = None) -> StateVector:
    """Apply the diagonal trace insertion for the variable t_index.

    For each occupied slot (fam, m2), two normal-ordered bilinears have
    their annihilator act there: the positive-index term t^(m2/2) and the
    negative-index one -t^(-m2/2).  Both annihilate the slot and re-create
    it (psi-/psi+ in a plus family, psi+/psi- in a minus one, phi/phi on the
    neutral), so the two flips are applied once and their image takes both
    coefficients.  Every other bilinear annihilates the state.  The central
    scalar then adds the input state back.  insertion holds the
    coefficients (built here unless given).
    """
    _check_shape(state, space)
    if insertion is None:
        insertion = _Insertion(space, table, t_index)
    out: StateVector = {}
    for fam, mask in enumerate(state):
        while mask:
            low = mask & -mask
            mask ^= low
            m2 = 2 * low.bit_length() - 1
            s1, st1 = _flip(state, fam, m2, True)
            s2, st2 = _flip(st1, fam, m2, False)
            _add_to(out, st2, insertion[m2, s1 * s2])
            _add_to(out, st2, insertion[-m2, -s1 * s2])
    _add_to(out, state, insertion.central)
    return out


# ---------------------------------------------------------------------------
# enumeration and traces
# ---------------------------------------------------------------------------

def _distinct_mode_sets(max2: int) -> list[tuple[int, int]]:
    """(mask, doubled energy) of every set of half-odd doubled modes with
    sum <= max2."""
    out: list[tuple[int, int]] = []

    def rec(m2: int, mask: int, tot: int) -> None:
        out.append((mask, tot))
        for m in range(m2, max2 - tot + 1, 2):
            rec(m + 2, mask | 1 << (m >> 1), tot + m)

    rec(1, 0, 0)
    return out


def enumerate_states(space: FockSpace, max2: int) -> dict[int, list[State]]:
    """Every state with energy <= max2/2, grouped by doubled energy."""
    if max2 < 0:
        raise UsageError("energy bound must be nonnegative")
    per_family = _distinct_mode_sets(max2)
    levels: dict[int, list[State]] = {e2: [] for e2 in range(max2 + 1)}

    def rec(fam: int, acc: list[int], tot: int) -> None:
        if fam == space.families:
            levels[tot].append(tuple(acc))
            return
        for mask, s in per_family:
            if tot + s <= max2:
                acc.append(mask)
                rec(fam + 1, acc, tot + s)
                acc.pop()

    rec(0, [], 0)
    return levels


def _diagonal_weight(state: State, space: FockSpace, table: VarTable,
                     t_indices: Sequence[int], *, insertions):
    """<state| product of insertions |state> via repeated apply_D, which must
    give back the input state alone: a RatFunc, or a Fraction over a bound
    table (the int 1 without insertions).  insertions maps each insertion
    variable to its _Insertion."""
    weight = 1
    for t_index in reversed(tuple(t_indices)):
        out = apply_D(state, space, table, t_index, insertions[t_index])
        weight = weight * out.pop(state, 0)
        if out:
            raise InternalInvariantError("an insertion moved the state")
    return weight


def oracle_trace(space: FockSpace, trunc2: int, table: VarTable,
                 t_indices: Sequence[int] = (),
                 z_indices: Sequence[int] | None = None,
                 sectors: Iterable[Sequence[int]] | None = None
                 ) -> tuple[HalfSeries, HalfSeries]:
    """The parity projections (even, odd) of the exact graded trace over the
    states of energy <= trunc2/2, from one pass over the states: the plain
    trace is even + odd, the one with (-1)^parity(state) inserted even - odd.

    Insertions: one diagonal operator per t-variable in t_indices, and
    optional charge grading in z_indices (distinct z-variables, one per
    pair).  The insertions are diagonal, so each q^(m) coefficient is exact.

    sectors, which needs the charge grading, keeps only the states whose
    charge vector (one charge per pair) it holds: the others are skipped
    before their weight, and the trace has only those z-monomials.  The
    default keeps every state.  weylb.extraction_sectors gives the vectors
    that extract_module_function reads.

    Over a bound table, which must bind every insertion variable, every
    weight is a Fraction at the table's point; each level is built over the
    table, and the result lives over table.free() (z-variables survive).

    The weights are summed per parity, q-level and charge vector, and each
    q-level is built once: the sum of weight * z^charges when the weights
    are RatFuncs, else the polynomial (a number when no z survives) whose
    coefficients are the summed weights.
    """
    zi = () if z_indices is None else _z_vars(table, space.pairs, z_indices)
    if sectors is not None:
        if z_indices is None:
            raise UsageError("a sector request needs charge grading")
        sectors = {tuple(v) for v in sectors}
        for v in sectors:
            if len(v) != space.pairs:
                raise UsageError(f"charge vector {v} does not have one "
                                 f"charge for each of {space.pairs} pairs")
    insertions = {i: _Insertion(space, table, i) for i in t_indices}
    # parity -> q-level -> z-exponents over table -> summed weight
    sums: tuple[dict[int, dict[tuple[int, ...], object]], ...] = ({}, {})
    for e2, states in enumerate_states(space, trunc2).items():
        for state in states:
            charge = charges(state, space)
            if sectors is not None and charge not in sectors:
                continue
            weight = _diagonal_weight(state, space, table, t_indices,
                                      insertions=insertions)
            if not weight:
                continue
            z_exps = {i: 2 * c for i, c in zip(zi, charge)}
            key = tuple(z_exps.get(i, 0) for i in range(len(table)))
            level = sums[parity(state, space)].setdefault(e2, {})
            level[key] = level[key] + weight if key in level else weight
    ratfuncs = bool(t_indices) and not table.values  # the weights' domain

    def coeff(level: dict[tuple[int, ...], object]):
        if not ratfuncs:
            return LaurentPoly(table, level)
        return sum((w * LaurentPoly(table, {key: 1})
                    for key, w in level.items()), RatFunc.zero(table))

    return tuple(HalfSeries(table, trunc2,
                            {e2: coeff(level) for e2, level in levels.items()})
                 for levels in sums)


# ---------------------------------------------------------------------------
# dominant-monomial extraction
# ---------------------------------------------------------------------------

def extract_module_function(trace: HalfSeries, lam: Sequence[int], l: int,
                            z_indices: Sequence[int] | None = None,
                            denominator: str = "minus") -> HalfSeries:
    """Multiply a charge-graded trace by the Weyl-denominator variant and read
    off the coefficient of z^(lam + rho).

    Use denominator "minus" on plain traces and "plus" on parity-signed
    traces (the twisted sectors decompose over the +-alternant characters).
    At l = 0 the denominator is 1 and the trace is its own extraction.

    The Weyl denominator has only z-variables and a trace coefficient's
    denominator has none, so c * den is c.num * den over c.den, already
    reduced.  The coefficient is read off the terms of c.num without
    forming the product: a term whose charges are one of
    weylb.extraction_charges, found by its packed z-field, times that
    charge vector's sign.  It keeps c.den and its factor record, as that
    product would.  Over a table with no variables left the coefficients
    are numbers.
    """
    lam = check_partition(lam, l)
    table = trace.table
    z_indices = _z_vars(table, l, z_indices)
    signs = extraction_charges(lam, l, denominator)
    if not l:
        return trace
    z_set = frozenset(z_indices)
    out_table = table.without(z_set)
    # the packed z-field of each charge vector read -> its sign
    zmask = table.field_mask(z_indices)
    need = {table.key({i: 2 * c for i, c in zip(z_indices, v)}) & zmask: s
            for v, s in signs.items()}
    # dropping the z-variables maps c.num's matched terms, c.den and its
    # binomial factors over (the latter two are zero in every z-column)
    drop = table.drop_images(z_set)
    out: dict[int, RatFunc] = {}
    for e2, c in trace.terms.items():
        if any(i in z_set for i in c.den.variables_used()):
            raise InternalInvariantError("denominator involves charge variables")
        matched = {k: a * s for k, a in c.num.terms.items()
                   if (s := need.get(k & zmask))}
        if not matched:
            continue
        num = LaurentPoly(table, matched, _clean=True).rename_signed(
            out_table, drop)  # sums the terms that differ only in z
        if num.terms:
            dfac = c.dfac and _rename_factors(c.dfac, len(out_table), drop)
            out[e2] = RatFunc(num, c.den.rename_signed(out_table, drop),
                              _canonical=True, dfac=dfac)
    return HalfSeries(out_table, trace.trunc2, out)


def irreducible_from_projected(even: HalfSeries, odd: HalfSeries,
                               lam: Sequence[int], l: int, det: bool,
                               z_indices: Sequence[int] | None = None) -> HalfSeries:
    """Per-irreducible extraction from the parity projections of a
    charge-graded trace: they recombine into the plain (even + odd) and the
    parity-signed (even - odd) traces, each extracted with its own
    denominator variant."""
    a = extract_module_function(even + odd, lam, l, z_indices, "minus")
    b = extract_module_function(even - odd, lam, l, z_indices, "plus")
    return _det_sector(a, b, det)
