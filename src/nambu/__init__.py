"""Exact-arithmetic toolkit for Nambu tensors and co-Nambu differential forms.

Verification of the decomposability/integrability conditions, classification
of linear structures into the two normal-form families with exact coordinate
changes, and finite-order formal linearization at nondegenerate singularities.
"""

from .polyalg import (
    InputError,
    NambuError,
    Poly,
    PolyParseError,
    PreconditionError,
    RatMatrix,
    SolveInconsistencyError,
    eigen_data,
    inertia,
    parse_poly,
    solve_linear,
)
from .exterior import (
    DiffForm,
    FormalMap,
    Multivector,
    coordinate_field,
    coordinate_form,
    dform,
    form_to_tensor,
    graded_from_json,
    interior,
    lie_bracket,
    lie_derivative,
    pullback_form,
    pushforward_tensor,
    standard_volume,
    tensor_to_form,
    wedge,
)
from .verify import (
    ConambuVerdict,
    fundamental_identity_residual,
    hamiltonian_vf,
    is_conambu,
    is_nambu,
    nambu_bracket,
    search_identity_violation,
)
from .linclass import (
    ClassificationReport,
    NormalForm,
    SpanTable,
    classify_linear,
    classify_linear_tensor,
    nondegeneracy,
    normal_form_generator,
    span_table,
)
from .formal import (
    GradedSolveReport,
    ResonanceReport,
    contract_residual,
    derham_divide,
    formal_decompose_type1,
    formal_linearize_type1,
    poincare_linearize,
    prelinearize_type2,
    remove_multiplier,
    resonance_report,
)

__version__ = "0.1.0"
