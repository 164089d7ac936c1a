"""Exact-arithmetic q-series correlation functions and q-dimensions for the
half-integral-level type-D construction, with a brute-force fermionic
Fock-space oracle verifying every closed formula."""

from .laurent import (
    EvaluationPointError,
    InternalInvariantError,
    LaurentPoly,
    UsageError,
    VarTable,
    poly_divexact,
    poly_gcd,
)
from .ratfunc import RatFunc
from .series import HalfSeries
from .special import f_bo, pochhammer_inf, qq_inf, theta, theta_deriv
from .weylb import (
    BLabel,
    char_B,
    rho_B,
    sign_vectors,
    weyl_denominator_B,
    weyl_denominator_det,
    weyl_orbit,
)
from .correlation import (
    d_half_vacuum,
    d_sum_function,
    d_twisted_function,
    fock_trace_at_sign,
    fock_trace_closed,
    gl_function,
    irreducible_function,
    pair_block,
    vacuum_one_point_series,
)
from .qdim import QDimForm, q_minus, q_plus, qdim_irreducible
from .fock import (
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

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
