"""Symbolic engine for the convolution algebra of a two-sector Heisenberg
group, its quantum-quantum and quantum-classical representations, and the
brackets built on them.

Everything is exact: coefficients are complex rationals with formal Planck
monomials, and every identity the package verifies is checked structurally,
with seeded numerical oracles as an independent cross-check.
"""

from .errors import (
    PBracketError,
    SignatureMismatch,
    NoConsistentConvention,
    UnknownRule,
    ZeroPlanck,
    SingularTransformation,
    DivisionByZero,
    NotLocalized,
    NotMechanised,
    DimensionTooSmall,
    MatrixTooLarge,
    AObservableProductError,
    ExprError,
    ExprSyntaxError,
    UnknownSymbol,
    IndexOutOfRange,
    ExpressionTooLarge,
)
from .scalars import CRat, Scalar, scalar
from .group_algebra import (
    ConventionTuple,
    GroupSignature,
    Element,
    multiply,
    commutator,
    delta_to_element,
    element_to_delta,
    element_to_json,
    element_from_json,
    delta_str,
)
from .pmech import (
    ClassicalPoly,
    poisson_classical,
    mechanise_weyl,
    mechanise_plugin,
    register_rule,
    registered_rules,
    weyl_symbol,
    AObservable,
    apply_antiderivative,
    universal_bracket,
)
from .representations import (
    WeylAlgebra,
    WeylOperator,
    HybridObservable,
    qq_algebra,
    qc_algebra,
    rep_qq,
    rep_qc,
    multiply_hybrid,
    commutator_hybrid,
    hybrid_from_sector2_poly,
)
from .qc_bracket import (
    qc_bracket,
    qc_bracket_terms,
    bracket_via_universal,
    poisson_ordered,
    classicality_gap,
    h_eff,
)
from .oracle import (
    GroupPoly,
    vector_field_action,
    matrix_realize,
    matrix_max_error,
    OracleReport,
    check_vector_field_suite,
    check_algebra_laws,
    check_matrix_suite,
    oracle_check,
)
from .calibration import CalibrationReport, calibrate_conventions, calibration_report
from .expressions import evaluate
from .config import EngineConfig, load_config, save_config, resolve_config
from .verify import VerifyItem, VerifyReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "PBracketError", "SignatureMismatch", "NoConsistentConvention",
    "UnknownRule", "ZeroPlanck", "SingularTransformation", "DivisionByZero",
    "NotLocalized", "NotMechanised", "DimensionTooSmall", "MatrixTooLarge",
    "AObservableProductError", "ExprError", "ExprSyntaxError",
    "UnknownSymbol", "IndexOutOfRange", "ExpressionTooLarge",
    "CRat", "Scalar", "scalar",
    "ConventionTuple", "GroupSignature", "Element", "multiply", "commutator",
    "delta_to_element", "element_to_delta", "element_to_json",
    "element_from_json", "delta_str",
    "ClassicalPoly", "poisson_classical", "mechanise_weyl",
    "mechanise_plugin", "register_rule", "registered_rules", "weyl_symbol",
    "AObservable", "apply_antiderivative", "universal_bracket",
    "WeylAlgebra", "WeylOperator", "HybridObservable", "qq_algebra",
    "qc_algebra", "rep_qq", "rep_qc", "multiply_hybrid",
    "commutator_hybrid", "hybrid_from_sector2_poly",
    "qc_bracket", "qc_bracket_terms", "bracket_via_universal",
    "poisson_ordered", "classicality_gap", "h_eff",
    "GroupPoly", "vector_field_action", "matrix_realize", "matrix_max_error",
    "OracleReport", "check_vector_field_suite", "check_algebra_laws",
    "check_matrix_suite", "oracle_check",
    "CalibrationReport", "calibrate_conventions", "calibration_report",
    "evaluate",
    "EngineConfig", "load_config", "save_config", "resolve_config",
    "VerifyItem", "VerifyReport", "run_verify",
    "__version__",
]
