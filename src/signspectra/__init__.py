"""Constructive spectra for sign patterns.

Realizes arbitrary monic real polynomials as characteristic polynomials of
matrices with prescribed sign patterns, builds matrices with any requested
refined inertia over an 8x8 composite pattern, and certifies the matching
impossibility results with exact rational arithmetic.
"""

from .matrices import FloatMatrix, RationalMatrix, block_diag, conforms, matrix_from_dict
from .patterns import (
    BUILTIN_NAMES,
    Sign,
    SignPattern,
    builtin_pattern,
    composite_pattern,
    is_superpattern,
)
from .poly import (
    Polynomial,
    Quadratic,
    char_poly,
    coefficient_residual,
    divisors_degree6,
    poly_mul,
    polynomial_from_dict,
)
from .realize import (
    GateError,
    RealizationReport,
    TripleSelection,
    realize_even_sextic,
    realize_inertia,
    realize_poly,
    realize_quadratic,
    realize_sextic,
    realize_subinertia,
    select_triples,
    violates_sextic_gate,
)
from .roots import (
    KERNEL,
    RefinedInertia,
    RootFindingError,
    RootMultiset,
    backward_error,
    find_roots,
    refined_inertia_of,
    roots_to_quadratics,
)
from .verify import (
    DivisorObstructionReport,
    IdentityCheckReport,
    TheoremReport,
    check_divisor_obstruction,
    check_identity,
    random_monic_polynomial,
    run_theorem_suite,
    sample_conforming_matrix,
    verify_realization,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "DivisorObstructionReport",
    "FloatMatrix",
    "GateError",
    "IdentityCheckReport",
    "KERNEL",
    "Polynomial",
    "Quadratic",
    "RationalMatrix",
    "RealizationReport",
    "RefinedInertia",
    "RootFindingError",
    "RootMultiset",
    "Sign",
    "SignPattern",
    "TheoremReport",
    "TripleSelection",
    "backward_error",
    "block_diag",
    "builtin_pattern",
    "char_poly",
    "check_divisor_obstruction",
    "check_identity",
    "coefficient_residual",
    "composite_pattern",
    "conforms",
    "divisors_degree6",
    "find_roots",
    "is_superpattern",
    "matrix_from_dict",
    "poly_mul",
    "polynomial_from_dict",
    "random_monic_polynomial",
    "realize_even_sextic",
    "realize_inertia",
    "realize_poly",
    "realize_quadratic",
    "realize_sextic",
    "realize_subinertia",
    "refined_inertia_of",
    "roots_to_quadratics",
    "run_theorem_suite",
    "sample_conforming_matrix",
    "select_triples",
    "verify_realization",
    "violates_sextic_gate",
    "__version__",
]
