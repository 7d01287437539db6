"""Symbolic engine for the convolution algebra of a two-sector Heisenberg
group, its quantum-quantum and quantum-classical representations, and the
brackets built on them.

Everything is exact: coefficients are complex rationals with formal Planck
monomials, and every identity the package verifies is checked structurally,
with seeded numerical oracles as an independent cross-check.
"""

from importlib import import_module

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
    UnsupportedConvention,
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
from .expressions import evaluate
from .config import EngineConfig, load_config, save_config, resolve_config

__version__ = "0.1.0"

# The verification layer loads on first use (PEP 562), so a process that only
# runs the bracket pipeline never imports it.  The core above stays eager: a
# lazily loaded qc_bracket module would bind pbracket.qc_bracket to the module
# on import, not to the function.
_LAZY = {
    **dict.fromkeys(("vector_field_action", "matrix_max_error", "OracleReport",
                     "check_vector_field_suite", "check_algebra_laws",
                     "check_matrix_suite", "oracle_check"), "oracle"),
    **dict.fromkeys(("CalibrationReport", "calibrate_conventions",
                     "calibration_report"), "calibration"),
    **dict.fromkeys(("VerifyItem", "VerifyReport", "run_verify"), "verify"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "PBracketError", "SignatureMismatch", "NoConsistentConvention",
    "UnknownRule", "ZeroPlanck", "SingularTransformation", "DivisionByZero",
    "NotLocalized", "NotMechanised", "DimensionTooSmall",
    "UnsupportedConvention", "AObservableProductError", "ExprError",
    "ExprSyntaxError", "UnknownSymbol", "IndexOutOfRange", "ExpressionTooLarge",
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
    "vector_field_action", "matrix_max_error", "OracleReport",
    "check_vector_field_suite", "check_algebra_laws", "check_matrix_suite",
    "oracle_check",
    "CalibrationReport", "calibrate_conventions", "calibration_report",
    "evaluate",
    "EngineConfig", "load_config", "save_config", "resolve_config",
    "VerifyItem", "VerifyReport", "run_verify",
    "__version__",
]
