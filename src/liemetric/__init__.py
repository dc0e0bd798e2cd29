"""liemetric: curvature and Ricci classification for metric Lie algebras."""

from . import errors
from .classify import (
    DecomposedExtension,
    RicciClassification,
    TypeIDecomposition,
    TypeIICanonicalBasis,
    classify_ricci,
    decompose_double_extension,
    type_I_decomposition,
    type_II_canonical_basis,
)
from .constructions import (
    CATALOG_NAMES,
    DoubleExtensionSpec,
    ExtensionInvariants,
    ParallelConditionReport,
    bordemann_cotangent,
    catalog,
    central_extension_metric,
    check_parallel_conditions,
    complexify,
    double_extension,
    extension_invariants,
    two_step_parallel,
    type_I_metric,
)
from .geometry import (
    IsometryCheck,
    MetricLieAlgebra,
    ParallelCheck,
    RicciData,
    change_basis,
    connection,
    connection_matrices,
    curvature,
    frame,
    is_ad_invariant,
    is_einstein,
    is_ricci_flat,
    is_ricci_parallel,
    nabla_ric,
    ricci,
    ricci_structural,
    verify_isometry,
)
from .lie import (
    LieAlgebra,
    StructureReport,
    direct_sum,
    killing_form,
    structure_report,
    trace_functional,
    validate_jacobi,
)
from .linalg import (
    DEFAULT_TOL,
    Signature,
    SymmetricForm,
    Tolerance,
    metric_adjoint,
    operator_residual,
    pseudo_orthonormal_basis,
    signature,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "__version__",
    # linalg
    "Tolerance", "DEFAULT_TOL", "Signature", "SymmetricForm",
    "signature", "pseudo_orthonormal_basis", "metric_adjoint", "operator_residual",
    # lie
    "LieAlgebra", "StructureReport", "validate_jacobi", "killing_form",
    "trace_functional", "structure_report", "direct_sum",
    # geometry
    "MetricLieAlgebra", "RicciData", "ParallelCheck", "IsometryCheck",
    "frame", "connection", "connection_matrices", "curvature", "ricci",
    "ricci_structural", "nabla_ric", "is_ricci_parallel", "is_einstein",
    "is_ricci_flat", "is_ad_invariant", "verify_isometry", "change_basis",
    # classify
    "RicciClassification", "classify_ricci", "TypeIDecomposition",
    "type_I_decomposition", "TypeIICanonicalBasis", "type_II_canonical_basis",
    "DecomposedExtension", "decompose_double_extension",
    # constructions
    "DoubleExtensionSpec", "ExtensionInvariants", "ParallelConditionReport",
    "double_extension", "extension_invariants", "check_parallel_conditions",
    "complexify", "type_I_metric", "central_extension_metric",
    "bordemann_cotangent", "two_step_parallel", "catalog", "CATALOG_NAMES",
]
