"""Exact-arithmetic toolkit for Nambu tensors and co-Nambu differential forms.

The public API is `__all__`, exactly the names imported below:

- the types the operations take and return, and the errors they raise;
- reading and writing the CLI's JSON (`graded_from_json`, `parse_poly`, the
  printed-map format) and the transports it applies (the volume duality,
  `pullback_form`, `pushforward_tensor`);
- verification of the decomposability/integrability conditions, and the
  fundamental identity that serves as its oracle;
- classification of linear structures into the Type 1 and Type 2 normal
  forms, with exact coordinate changes;
- finite-order formal linearization at nondegenerate singularities (Type 1,
  its multiplier, Type 2 prelinearization, Poincaré, resonance), and the
  formal decomposition of a Type 1 form.
"""

from .polyalg import (
    InputError,
    NambuError,
    Poly,
    PolyParseError,
    PreconditionError,
    RatMatrix,
    SolveInconsistencyError,
    parse_poly,
)
from .exterior import (
    DiffForm,
    FormalMap,
    Multivector,
    form_to_tensor,
    formal_map_from_json,
    formal_map_to_json,
    graded_from_json,
    pullback_form,
    pushforward_tensor,
    tensor_to_form,
)
from .verify import (
    ConambuVerdict,
    fundamental_identity_residual,
    hamiltonian_vf,
    is_conambu,
    is_nambu,
    nambu_bracket,
)
from .linclass import (
    ClassificationReport,
    classify_linear,
    classify_linear_tensor,
    normal_form_generator,
)
from .formal import (
    MultiplierRemovalResult,
    PoincareResult,
    ResonanceReport,
    Type1LinearizationResult,
    Type2PrelinResult,
    formal_decompose_type1,
    formal_linearize_type1,
    poincare_linearize,
    prelinearize_type2,
    remove_multiplier,
    resonance_report,
)

__all__ = [
    "InputError", "NambuError", "PolyParseError", "PreconditionError", "SolveInconsistencyError",
    "Poly", "RatMatrix", "DiffForm", "Multivector", "FormalMap",
    "ConambuVerdict", "ClassificationReport", "Type1LinearizationResult",
    "MultiplierRemovalResult", "Type2PrelinResult", "PoincareResult", "ResonanceReport",
    "parse_poly", "graded_from_json", "formal_map_to_json", "formal_map_from_json",
    "tensor_to_form", "form_to_tensor", "pullback_form", "pushforward_tensor",
    "is_nambu", "is_conambu", "fundamental_identity_residual", "nambu_bracket", "hamiltonian_vf",
    "classify_linear", "classify_linear_tensor", "normal_form_generator",
    "formal_linearize_type1", "remove_multiplier", "prelinearize_type2", "poincare_linearize",
    "resonance_report", "formal_decompose_type1",
]

__version__ = "0.1.0"
