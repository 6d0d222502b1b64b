"""Exact-arithmetic toolkit for real low-dimensional Jacobi-Lie bialgebras.

Everything is computed over exact rationals: verification of the defining
conditions, equivalence under automorphisms, identification of dual algebras
against the Bianchi-style catalog, and the classification machinery for
dimensions 2 and 3.
"""

from .bialgebra import (
    DimensionMismatchError,
    JacobiLieBialgebra,
    SoundnessCheckError,
    VerificationReport,
    classical_double_brackets,
    classical_mixed_residual,
    double_brackets,
    mixed_residual,
    verify,
)
from .catalog import (
    AutomorphismFamily,
    CatalogError,
    ConstraintError,
    LieAlgebra,
    NotAutomorphismError,
    automorphism_family,
    automorphism_sample,
    automorphism_samples,
    catalog_names,
    is_automorphism,
    is_transposed_automorphism,
    lookup,
)
from .classify import (
    ClassificationRow,
    UnknownAssignment,
    classify_d2,
    enumerate_zeros,
    step2_equation_residual,
    residual_system,
    residual_system_is_zero,
    step2_matrix_b,
    step3_reduce,
    verify_tables,
)
from .documents import (
    BialgebraDocument,
    DocumentError,
    document_from_bialgebra,
    parse_document,
    serialize_document,
)
from .equivalence import (
    DualIdentification,
    EquivalenceVerdict,
    NoCatalogMatch,
    SearchRegion,
    change_of_basis_residual,
    identify_dual,
    is_equivalent_witness,
    search_witness,
    transform,
)
from .linalg import Matrix, SingularMatrixError, Vector
from .structure import (
    StructureTensor,
    adjoint_x,
    adjoint_y,
    format_brackets,
    is_lie_algebra,
    jacobi_residual,
    jacobi_residual_adjoint,
)
from .tables import TableRow, load_table_rows

__version__ = "0.1.0"

__all__ = [
    "AutomorphismFamily",
    "BialgebraDocument",
    "CatalogError",
    "ClassificationRow",
    "ConstraintError",
    "DimensionMismatchError",
    "DocumentError",
    "DualIdentification",
    "EquivalenceVerdict",
    "JacobiLieBialgebra",
    "LieAlgebra",
    "Matrix",
    "NoCatalogMatch",
    "NotAutomorphismError",
    "SearchRegion",
    "SingularMatrixError",
    "SoundnessCheckError",
    "StructureTensor",
    "TableRow",
    "UnknownAssignment",
    "Vector",
    "VerificationReport",
    "adjoint_x",
    "adjoint_y",
    "automorphism_family",
    "automorphism_sample",
    "automorphism_samples",
    "catalog_names",
    "change_of_basis_residual",
    "classical_double_brackets",
    "classical_mixed_residual",
    "classify_d2",
    "document_from_bialgebra",
    "double_brackets",
    "enumerate_zeros",
    "step2_equation_residual",
    "format_brackets",
    "identify_dual",
    "is_automorphism",
    "is_equivalent_witness",
    "is_lie_algebra",
    "is_transposed_automorphism",
    "jacobi_residual",
    "jacobi_residual_adjoint",
    "load_table_rows",
    "lookup",
    "mixed_residual",
    "parse_document",
    "residual_system",
    "residual_system_is_zero",
    "search_witness",
    "serialize_document",
    "step2_matrix_b",
    "step3_reduce",
    "transform",
    "verify",
    "verify_tables",
]
