"""Exact Grassmann-graded variational calculus on jet coordinates.

Canonical graded polynomials, total and variational derivatives, staged
Koszul-Tate differentials with Noether-identity verification, the ascent
operator producing gauge and higher-stage gauge supersymmetries, and a
window-relative homology lab over exact rationals.
"""

from .algebra import (
    ANTIFIELD,
    BaseSpace,
    EVEN,
    FIELD,
    GHOST,
    GradedPoly,
    GradedVariableDecl,
    Grading,
    INHOMOGENEOUS,
    JetSymbol,
    ODD,
    VariableTable,
    factor_str,
    grading_of,
    multi_index,
    normalize,
    poly_sum,
    render_poly,
)
from .errors import (
    EvenDerivation,
    GaugelabError,
    GradingMismatch,
    IndexOutOfRange,
    MissingStage,
    ModelMismatch,
    NotAComplex,
    UnknownVariable,
    UnsupportedCorrection,
)
from .jets import (
    VerticalDerivation,
    apply_prolonged,
    eta,
    euler_lagrange,
    euler_operator,
    first_variation_residual,
    is_dH_exact,
    multi_total_derivative,
    partial_derivative,
    total_derivative,
    variational_derivative,
)
from .koszul import (
    CheckResult,
    ModelBuilder,
    ModelSpec,
    NoetherGeneratorFamily,
    OnShellResult,
    ascent_operator,
    build_stage_differential,
    check_ascent_nilpotency,
    check_nilpotency,
    extended_lagrangian,
    identity_defect,
    identity_witness,
    on_shell_reduce,
    run_checks,
    verify_variational_supersymmetry,
)
from .homology import (
    HomologyReport,
    RegularityReport,
    TruncationWindow,
    boundary_matrix,
    chain_basis,
    homology_dimension,
    kt_homology,
    regularity_probe,
)
from .zoo import bf_model, epsilon, free_scalar_model, trivial_model, zoo_model
from .dsl import (
    Diagnostic,
    ModelFormatError,
    load_model,
    parse_model,
    parse_or_raise,
    poly_to_dsl,
    render_model,
)

__version__ = "0.1.0"
