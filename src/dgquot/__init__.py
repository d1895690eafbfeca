"""Exact symbolic charts for derived Quot schemes of points.

Builds the truncated semi-free resolution of an affine complete
intersection, matricizes it to the framed commuting-matrix chart, checks
the dga axioms exactly, computes tangent-complex cohomology at classical
points against a Koszul Ext oracle, and constructs and verifies the traced
(-1)-shifted 2-form on the affine quintic chart.  All arithmetic is exact
rational.
"""

from .algebra import (
    GenSym,
    GradedPoly,
    NCPoly,
    extend_derivation,
    graded_commutator,
)
from .derham import (
    DeRhamAlgebra,
    build_phi,
    close_check,
    invariance_check,
    omega0,
    pairing_at,
)
from .errors import (
    DgquotError,
    DimensionError,
    NotClassicalError,
    ParseError,
    SingularMatrixError,
    StructureError,
)
from .parser import parse_poly
from .points import (
    MatrixPoint,
    diag_point,
    gl_action,
    is_classical_point,
    is_stable,
)
from .repify import (
    ChartPresentation,
    check_chart_d_squared,
    h0_ideal,
    matricize,
    matrix_image,
)
from .resolution import (
    AlgebraInput,
    FreePresentation,
    build_resolution,
    check_d_squared,
    commutator_lift,
    lift_to_free,
)
from .tangent import (
    CohomologyReport,
    TangentComplex,
    chart_cohomology,
    koszul_ext_oracle,
    quot_tangent_check,
    tangent_complex_at,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraInput",
    "ChartPresentation",
    "CohomologyReport",
    "DeRhamAlgebra",
    "DgquotError",
    "DimensionError",
    "FreePresentation",
    "GenSym",
    "GradedPoly",
    "MatrixPoint",
    "NCPoly",
    "NotClassicalError",
    "ParseError",
    "SingularMatrixError",
    "StructureError",
    "TangentComplex",
    "build_phi",
    "build_resolution",
    "chart_cohomology",
    "check_chart_d_squared",
    "check_d_squared",
    "close_check",
    "commutator_lift",
    "diag_point",
    "extend_derivation",
    "gl_action",
    "graded_commutator",
    "h0_ideal",
    "invariance_check",
    "is_classical_point",
    "is_stable",
    "koszul_ext_oracle",
    "lift_to_free",
    "matricize",
    "matrix_image",
    "omega0",
    "pairing_at",
    "parse_poly",
    "quot_tangent_check",
    "tangent_complex_at",
]
