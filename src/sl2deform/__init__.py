"""Exact-arithmetic toolkit for cubic polynomial deformations of sl(2,R).

Solves the ladder cases of the deformed algebra [J0, J+-] = +-J+-,
[J+, J-] = alpha J0^3 + beta J0^2 + gamma J0 + delta on the monomial module
spanned by {1, x, x^3}, realizes each by linear differential operators
preserving that module, and checks the relations on the operators and on
their matrices.  It also checks the relations and the Casimir element of any
matrix triple with diagonal J0, enumerates the operators that preserve a
monomial space and probes their Lie closure.  The three ladder cases on that
module are derived from their exponent pairs on it: labels, ladder
operators, the quadratic for the diagonal label and the intrinsic locus.
All arithmetic is exact, over the rationals or a single quadratic extension
Q(sqrt(D)), and runs on integer numerators through ``scalars.num_*``.  A value
is a ``Fraction`` or a ``QuadExt``, which is parsed, rendered, compared and
hashed, and has no arithmetic operators.
"""

from .algebra import (
    AlgebraParams,
    MatrixTriple,
    RelationResiduals,
    casimir_matrix,
    check_deformed_relations,
)
from .cases import CaseData, CaseId, build_case_realization, derive_case
from .diffops import (
    ClosureReport,
    DiffOp,
    LieClosureReport,
    MonomialSpace,
    SpaceEscapeError,
    V3,
    closure_check,
    enumerate_preserving_operators,
    lie_closure_probe,
    preserving_basis_text,
)
from .matrices import (
    BlockSplit,
    Matrix,
    coordinate_block_split,
    is_scalar_multiple_of_identity,
)
from .reps import (
    CaseSolution,
    IntrinsicData,
    RepBlock,
    TrivialAlgebraError,
    decompose_rep,
    intrinsic_gamma_and_product,
    solve_case,
)
from .scalars import (
    NegativeRadicandError,
    QuadExt,
    Scalar,
    ScalarDomainError,
    parse_scalar,
    quadext,
    render_scalar,
    scalar_is_zero,
    sqrt_exact,
    squarefree_split,
)

__all__ = [
    "AlgebraParams",
    "BlockSplit",
    "CaseData",
    "CaseId",
    "CaseSolution",
    "ClosureReport",
    "DiffOp",
    "IntrinsicData",
    "LieClosureReport",
    "Matrix",
    "MatrixTriple",
    "MonomialSpace",
    "NegativeRadicandError",
    "QuadExt",
    "RelationResiduals",
    "RepBlock",
    "Scalar",
    "ScalarDomainError",
    "SpaceEscapeError",
    "TrivialAlgebraError",
    "V3",
    "build_case_realization",
    "casimir_matrix",
    "check_deformed_relations",
    "closure_check",
    "coordinate_block_split",
    "decompose_rep",
    "derive_case",
    "enumerate_preserving_operators",
    "intrinsic_gamma_and_product",
    "is_scalar_multiple_of_identity",
    "lie_closure_probe",
    "parse_scalar",
    "preserving_basis_text",
    "quadext",
    "render_scalar",
    "scalar_is_zero",
    "solve_case",
    "sqrt_exact",
    "squarefree_split",
]
