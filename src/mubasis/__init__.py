"""Exact mu-basis computation for rational surface parametrizations.

The library computes a free-module basis of the syzygy module of a
four-polynomial parametrization P(s,t) = (a1, a2, a3, a4) through
homogenization, graded free resolutions, and certified unimodular
completion over Q[s,t], and evaluates the degree, regularity, and
Betti-number bounds attached to that construction.
"""

from .arith import (
    NEG_INF,
    VARS_ST,
    VARS_STU,
    Poly,
    PolyMatrix,
    dehomogenize,
    gcd_many,
    homogenize,
    mat_inverse,
)
from .bounds import (
    BoundsReport,
    SocleReport,
    Verdict,
    basis_degree_bound,
    case_degree_bound,
    check_resolution_bounds,
    coprime_sequence,
    evaluate_bounds,
    expected_general_aci_shape,
    general_aci_shape_check,
    report_for_resolution,
    socle_check,
)
from .errors import (
    CompletionError,
    InputError,
    InternalError,
    MuBasisError,
    ParseError,
    ResourceLimitError,
    ValidationError,
    VerificationError,
)
from .grobner import (
    BettiTable,
    FreeResolution,
    GroebnerBasis,
    buchberger,
    free_resolution,
    hilbert_function,
    hilbert_quotient,
    ideal_quotient,
    krull_dimension,
    lift_coefficients,
    minimal_generators,
    modules_equal,
    resolution_invariants,
    syzygy_generators,
)
from .parser import parse_basis, parse_polynomial, parse_tuple
from .pipeline import (
    MuBasis,
    Parametrization,
    PipelineReport,
    compute_mu_basis,
    extract_basis,
    homogenize_ideal,
    outer_product,
    validate,
    verify_mu_basis,
)
from .quillen_suslin import (
    CompletionCertificate,
    complete_columns,
    is_unimodular,
    qs_degree_bound,
)

__version__ = "0.1.0"
