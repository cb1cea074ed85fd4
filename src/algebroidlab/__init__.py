"""Exact-arithmetic workbench for Lie algebroid computations at desk scale.

Subpackages cover truncated polynomial rings and rational linear algebra,
algebroid and representation validation, Chevalley-Eilenberg cohomology in
weight-graded and jet-window modes, structured pullbacks with transversal
normal forms, Cech double complexes with their spectral sequences, parallel
transport and monodromy of algebroid families, and subexhaustion index
combinatorics.  Everything runs over the rationals, the transport flow
included: its Peano-Baker series is exact or carries a certified radius.
"""

from .errors import LabError, StructuralError, ValidationFailure
from .ratpoly import (
    TruncatedPoly,
    WeightAssignment,
    parse_poly,
    format_poly,
    format_rational,
    monomials_up_to,
    grlex_key,
)
from .linalg import QMatrix
from .algebroid import (
    LieAlgebroidPatch,
    Representation,
    ValidationReport,
    validate_algebroid,
    validate_representation,
    trivial_representation,
    adjoint_representation,
    semidirect,
    grading_violations,
    tau_and_kernel,
    vertical_subalgebroid,
)
from .library import (
    tangent_patch,
    lie_algebra_patch,
    sl2_patch,
    abelian_patch,
    heisenberg_patch,
    product_with_tangent,
    sl2_adjoint,
    euler_vector_field_patch,
    poisson_disc_patch,
)
from .cohomology import (
    CohomologyReport,
    cohomology,
    jet_cohomology,
    weight_cohomology,
    lie_algebra_cohomology,
)
from .pullback import (
    StructuredMap,
    pullback_structured,
    transversality_check,
    rescaling_family,
    euler_homotopy_verify,
    transversal_iso_check,
)
from .covers import (
    CoverDatum,
    ChartData,
    LocalSystemFamily,
    nerve,
    validate_family,
    cochain_transport,
    build_double_complex,
    ss_pages,
    e2_simplicial_oracle,
    localization_check,
)
from .transport import (
    PathFamily,
    IntegrationError,
    validate_path_family,
    parallel_transport,
    reverse_path,
    trivialize_via_transport,
    monodromy_check,
    gauss_manin,
)
from .exhaustion import (
    MonotoneOracle,
    ExhaustionProblem,
    subexhaust,
    verify_interleaving,
)
from .modelfile import ModelFile, ModelError, parse_model, parse_model_text
from .report import Report, Table, emit_report, parse_structured
from .cli import run_command

__all__ = [
    "LabError", "StructuralError", "ValidationFailure",
    "TruncatedPoly", "WeightAssignment", "parse_poly", "format_poly",
    "format_rational", "monomials_up_to", "grlex_key",
    "QMatrix",
    "LieAlgebroidPatch", "Representation", "ValidationReport",
    "validate_algebroid", "validate_representation",
    "trivial_representation", "adjoint_representation", "semidirect",
    "grading_violations", "tau_and_kernel", "vertical_subalgebroid",
    "tangent_patch", "lie_algebra_patch", "sl2_patch", "abelian_patch",
    "heisenberg_patch", "product_with_tangent", "sl2_adjoint",
    "euler_vector_field_patch", "poisson_disc_patch",
    "CohomologyReport", "cohomology", "jet_cohomology", "weight_cohomology",
    "lie_algebra_cohomology",
    "StructuredMap", "pullback_structured", "transversality_check",
    "rescaling_family", "euler_homotopy_verify", "transversal_iso_check",
    "CoverDatum", "ChartData", "LocalSystemFamily", "nerve",
    "validate_family", "cochain_transport", "build_double_complex",
    "ss_pages", "e2_simplicial_oracle", "localization_check",
    "PathFamily", "IntegrationError", "validate_path_family",
    "parallel_transport", "reverse_path", "trivialize_via_transport",
    "monodromy_check", "gauss_manin",
    "MonotoneOracle", "ExhaustionProblem", "subexhaust",
    "verify_interleaving",
    "ModelFile", "ModelError", "parse_model", "parse_model_text",
    "Report", "Table", "emit_report", "parse_structured",
    "run_command",
]

__version__ = "0.1.0"
