"""The cubic deformation of sl(2,R) and its classic undeformed baseline.

The deformed algebra is generated by a diagonal operator J0 and ladder
operators J+- with [J0, J+-] = +-J+- and [J+, J-] equal to a cubic polynomial
alpha*J0^3 + beta*J0^2 + gamma*J0 + delta.  The classic algebra is the special
point (0, 0, 2, 0).  This module builds the classic spin matrices and their
first-order differential realization, evaluates relation residuals for any
concrete matrix triple, and forms the Casimir element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .diffops import DiffOp
from .matrices import Matrix, commutator
from .scalars import Scalar, as_scalar, sqrt_exact


@dataclass(frozen=True)
class AlgebraParams:
    """Coefficients (alpha, beta, gamma, delta) of the cubic bracket."""

    alpha: Scalar
    beta: Scalar
    gamma: Scalar
    delta: Scalar

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            object.__setattr__(self, name, as_scalar(getattr(self, name)))


@dataclass(frozen=True)
class MatrixTriple:
    """Concrete matrices (J0, J+, J-) of one representation."""

    j0: Matrix
    jplus: Matrix
    jminus: Matrix

    def __post_init__(self):
        dims = {self.j0.dimension, self.jplus.dimension, self.jminus.dimension}
        if len(dims) != 1:
            raise ValueError(f"triple members differ in dimension: {sorted(dims)}")

    @property
    def dimension(self) -> int:
        return self.j0.dimension


@dataclass(frozen=True)
class RelationResiduals:
    """Exact residual matrices of the three defining relations.

    ``raising`` and ``lowering`` are [J0,J+]-J+ and [J0,J-]+J-; ``bracket`` is
    [J+,J-] minus the cubic polynomial in J0.  The relations hold iff all
    three are zero; matrices rather than booleans so a report can point at
    the failing entries.
    """

    raising: Matrix
    lowering: Matrix
    bracket: Matrix

    @property
    def all_zero(self) -> bool:
        return self.raising.is_zero() and self.lowering.is_zero() and self.bracket.is_zero()


def cubic_in(matrix: Matrix, params: AlgebraParams) -> Matrix:
    """alpha*M^3 + beta*M^2 + gamma*M + delta*I, by Horner's scheme."""
    ident = Matrix.identity(matrix.dimension)
    acc = matrix * params.alpha + ident * params.beta
    acc = acc @ matrix + ident * params.gamma
    return acc @ matrix + ident * params.delta


def check_deformed_relations(rep: MatrixTriple, params: AlgebraParams) -> RelationResiduals:
    return RelationResiduals(
        raising=commutator(rep.j0, rep.jplus) - rep.jplus,
        lowering=commutator(rep.j0, rep.jminus) + rep.jminus,
        bracket=commutator(rep.jplus, rep.jminus) - cubic_in(rep.j0, params),
    )


def casimir_matrix(rep: MatrixTriple, params: AlgebraParams) -> Matrix:
    """The central element J+J- + (a/4)J0^4 + (b/3 - a/2)J0^3 + ... on this rep."""
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    j0 = rep.j0
    j0sq = j0 @ j0
    return (
        rep.jplus @ rep.jminus
        + (j0sq @ j0sq) * (a / 4)
        + (j0sq @ j0) * (b / 3 - a / 2)
        + j0sq * (a / 4 - b / 2 + g / 2)
        + j0 * (b / 6 - g / 2 + d)
    )


def _half(two_m: int) -> Fraction:
    return Fraction(two_m, 2)


def build_classic_sl2_matrices(two_j: int) -> MatrixTriple:
    """The (2j+1)-dimensional spin-j matrices, basis ordered m = -j .. +j.

    J0 is diagonal with entries m; ladder entries are the exact square roots
    sqrt((j -+ m)(j +- m + 1)), one quadratic extension per entry as needed.
    """
    if two_j < 0:
        raise ValueError("two_j must be nonnegative")
    j = _half(two_j)
    ms = [_half(t) for t in range(-two_j, two_j + 1, 2)]
    n = len(ms)
    plus, minus = {}, {}
    for col, m in enumerate(ms):
        if m < j:
            plus[(col + 1, col)] = sqrt_exact((j - m) * (j + m + 1))
        if m > -j:
            minus[(col - 1, col)] = sqrt_exact((j + m) * (j - m + 1))
    return MatrixTriple(
        j0=Matrix.diagonal(ms),
        jplus=Matrix.from_entries(n, plus),
        jminus=Matrix.from_entries(n, minus),
    )


def build_classic_sl2_diffops(two_j: int) -> tuple[DiffOp, DiffOp, DiffOp]:
    """First-order realization on monomials: x*D - j, -x^2*D + 2j*x, D."""
    if two_j < 0:
        raise ValueError("two_j must be nonnegative")
    j = _half(two_j)
    j0 = DiffOp({(1, 1): Fraction(1), (0, 0): -j})
    jp = DiffOp({(2, 1): Fraction(-1), (1, 0): 2 * j})
    jm = DiffOp({(0, 1): Fraction(1)})
    return j0, jp, jm


def classic_norm_squares(two_j: int) -> list[Fraction]:
    """Squared normalizations (2j)! / ((j+m)!(j-m)!) aligning x^(j+m) with |j,m>."""
    out = []
    for t in range(-two_j, two_j + 1, 2):
        jpm = (two_j + t) // 2
        out.append(Fraction(math.factorial(two_j),
                            math.factorial(jpm) * math.factorial(two_j - jpm)))
    return out
