"""Exact hermitian integral geometry: the algebra of unitary-invariant
convex valuations on C^n, its canonical bases and kinematic formulas.

The exact core (everything except :mod:`uval.grassmann`) runs on rational
arithmetic extended by formal powers of pi and has no third-party
dependencies; the numeric module grounds the formulas with Monte-Carlo
checks over Haar-random unitaries.
"""

from .scalar import Scalar, UndecidableSignError, double_factorial, omega
from .poly import GradedPoly, change_vars, f_closed, f_recursive
from .valuation import (
    KlainPolynomial,
    Valuation,
    chi,
    dim_val,
    fourier,
    from_monomial,
    iota,
    klain,
    mu,
    multiply,
    q_range,
    tau,
    tau_coords,
    to_monomial,
    vol,
)
from .sl2 import (
    Sl2Operator,
    apply_H,
    apply_L,
    apply_Lambda,
    lefschetz_decompose,
    primitive,
    primitive_general,
)
from .kinematic import (
    KinematicTensor,
    TasakiMatrix,
    additive_kinematic,
    bezout_check,
    cpn_normalize,
    kinematic,
    pairing_fourier,
    pairing_pd,
    primitive_pairing_closed,
    principal_kinematic,
    tasaki_matrix_closed,
    tasaki_matrix_oracle,
)
from .cones import (
    ConeVerdict,
    CurvExpr,
    first_variation,
    is_crofton_positive,
    is_monotone,
    is_positive,
    norm_inf,
    norm_one,
    nu,
    nu_coeffs,
)
from .valspec import ValSpecError, parse_valspec

__version__ = "0.1.0"
