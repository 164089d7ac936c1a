"""Brute-force ground truth: explicit fermionic Fock states, exact operator
actions, graded traces, and dominant-monomial extraction.

A space has l complex-fermion pairs and optionally one neutral fermion.
States are canonical products of creation operators: families ordered
(plus_1, minus_1, ..., plus_l, minus_l, neutral), modes strictly decreasing
within a family; modes are positive half-odd integers stored doubled.  Every
operator application reorders into this canonical form, tracking the
fermionic sign.

The diagonal operator inserted in traces acts on a state as

    sum over occupied modes m of (t^m - t^(-m))
      + (2*pairs + neutral) / (t^(1/2) - t^(-1/2)),

assembled here term by term from the elementary mode operators so the
anticommutation bookkeeping is exercised, not assumed.  Over a bound table
(VarTable.bind) the same operators run with Fraction coefficients in place of
RatFuncs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .laurent import (
    EvaluationPointError,
    InternalInvariantError,
    LaurentPoly,
    UsageError,
    VarTable,
    _whole,
)
from .ratfunc import RatFunc
from .series import HalfSeries
from .weylb import (
    _det_sector,
    check_partition,
    pad_weight,
    rho_B,
    weyl_denominator_B,
)


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


@dataclass(frozen=True)
class Gradings:
    energy2: int
    charges: tuple[int, ...]
    alpha_parity: int

    @classmethod
    def of(cls, state: FockState, space: FockSpace) -> "Gradings":
        return cls(state.energy2(), state.charges(space),
                   state.alpha_parity(space) if space.neutral else 0)


# ---------------------------------------------------------------------------
# elementary operators
# ---------------------------------------------------------------------------

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
            c = c + weight * LaurentPoly(out_table, {key: 1}, _clean=True)
        if c:
            terms[e2] = c
    return HalfSeries(out_table, trunc2, terms, _clean=True)


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

    The Weyl denominator has only z-variables and a trace coefficient's
    denominator has none, so c * den is c.num * den over c.den, already
    reduced.  The coefficient is read off the terms of c.num and den without
    forming the product; it keeps c.den and its factor record, as that
    product would.
    """
    lam = check_partition(lam, l)
    table = trace.table
    if z_indices is None:
        z_indices = table.z_indices()
    if len(z_indices) != l:
        raise UsageError(f"need {l} z-variables, got {len(z_indices)}")
    z_set = frozenset(z_indices)
    keep = [i for i in range(len(table)) if i not in z_set]
    out_table = table.without(z_set)
    den = weyl_denominator_B(l, table, z_indices, variant=denominator)
    rho = rho_B(l)
    target = tuple(int(2 * (a + b)) for a, b in zip(pad_weight(lam, l), rho))
    # the z-exponents a term of c.num needs: den's coefficient at target - e_z
    need = {tuple(t - e[i] for t, i in zip(target, z_indices)): c
            for e, c in den.terms.items()}
    out: dict[int, RatFunc] = {}
    for e2, c in trace.terms.items():
        if any(i in z_set for i in c.den.variables_used()):
            raise InternalInvariantError("denominator involves charge variables")
        num_terms: dict = {}
        for e, a in c.num.terms.items():
            b = need.get(tuple(e[i] for i in z_indices))
            if b is not None:
                k = tuple(e[i] for i in keep)
                num_terms[k] = num_terms.get(k, 0) + a * b
        num_terms = _whole({k: v for k, v in num_terms.items() if v})
        if num_terms:
            den_terms = {tuple(e[i] for i in keep): v
                         for e, v in c.den.terms.items()}
            # c.den's binomial factors are zero in every z-column, so the
            # factor record maps over with those columns dropped
            dfac = c.dfac and tuple(
                ((tuple(p[i] for i in keep), tuple(q[i] for i in keep), s), m)
                for (p, q, s), m in c.dfac)
            out[e2] = RatFunc(LaurentPoly(out_table, num_terms, _clean=True),
                              LaurentPoly(out_table, den_terms, _clean=True),
                              _canonical=True, dfac=dfac)
    return HalfSeries(out_table, trace.trunc2, out, _clean=True)


def irreducible_from_traces(plain: HalfSeries, signed: HalfSeries,
                            lam: Sequence[int], l: int, det: bool,
                            z_indices: Sequence[int] | None = None) -> HalfSeries:
    """Per-irreducible extraction from the plain and parity-signed traces."""
    a = extract_module_function(plain, lam, l, z_indices, denominator="minus")
    b = extract_module_function(signed, lam, l, z_indices, denominator="plus")
    return _det_sector(a, b, det)


def irreducible_from_projected(even: HalfSeries, odd: HalfSeries,
                               lam: Sequence[int], l: int, det: bool,
                               z_indices: Sequence[int] | None = None) -> HalfSeries:
    """Same, but from parity-projected traces: the projections recombine into
    the plain (even+odd) and parity-signed (even-odd) traces, each of which
    needs its own denominator variant."""
    return irreducible_from_traces(even + odd, even - odd, lam, l, det,
                                   z_indices)
