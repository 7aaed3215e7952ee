"""Single-step ladder representations and the solved three-dimensional cases.

The representation class handled here acts on basis states labeled
M = -J .. +J (stored doubled so half-integer spins stay in integers):
the diagonal generator has eigenvalues a*M^2 + (1/q - a*q - 2*a*M1)*M + c,
the raising operator moves only M1 -> M1 + q with coefficient f, and the
lowering operator moves only M1 + q -> M1 with coefficient g.  The linear
coefficient is pinned by the unit-shift relation [J0, J+] = J+, so the whole
relation system reduces to 2J + 1 diagonal constraints; only the product
f*g is ever constrained, never the split.

The three-dimensional cases are solved from the data ``cases.derive_case``
computes for each: eliminating f*g and delta from the three constraints
leaves a quadratic in c, and matching the ladder bracket with the cubic in
J0 on every x^k gives the intrinsic locus.  ``_case_parameters`` is the one
guard on (alpha, beta, gamma) for both solvers; ``sqrt_exact`` rejects an
irrational radicand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Union

from .algebra import AlgebraParams, MatrixTriple
from .matrices import Matrix, coordinate_block_split
from .scalars import Scalar, as_scalar, scalar_is_zero, sqrt_exact

if TYPE_CHECKING:  # pragma: no cover - typing only; cases imports this module
    from .cases import CaseId

Fr = Fraction


class TrivialAlgebraError(ValueError):
    """alpha = beta = 0 forces gamma = delta = 0; nothing to solve."""


@dataclass(frozen=True)
class RepSpec:
    """Labels and ladder coefficients of one single-step representation."""

    two_j: int
    q: int
    two_m1: int
    a: Scalar
    c: Scalar
    f: Scalar
    g: Scalar

    def __post_init__(self):
        for name in ("a", "c", "f", "g"):
            object.__setattr__(self, name, as_scalar(getattr(self, name)))
        if self.two_j < 0:
            raise ValueError("two_j must be nonnegative")
        if self.q < 1 or self.q > self.two_j:
            raise ValueError(f"q must lie in 1..{self.two_j}, got {self.q}")
        if (self.two_m1 - self.two_j) % 2 != 0:
            raise ValueError("two_m1 must have the parity of two_j")
        if self.two_m1 < -self.two_j or self.two_m1 + 2 * self.q > self.two_j:
            raise ValueError("both ladder endpoints must lie in -J..J")

    @property
    def m1(self) -> Fraction:
        return Fr(self.two_m1, 2)

    @property
    def linear_coeff(self) -> Scalar:
        """1/q - a*q - 2*a*M1, forced by the unit shift of the raising relation."""
        return Fr(1, self.q) - self.a * self.q - 2 * self.a * self.m1

    def diagonal_value(self, m: Union[Fraction, int]) -> Scalar:
        m = Fr(m)
        return self.a * m * m + self.linear_coeff * m + self.c


@dataclass(frozen=True)
class CaseSolution:
    """Solved labels for one case: the diagonal label c, delta, and f*g."""

    c: Scalar
    delta: Scalar
    fg: Scalar
    branch: str  # "upper" | "lower" | "alpha-zero"


@dataclass(frozen=True)
class IntrinsicData:
    """The locus on which a case's realization closes independently of the module.

    ``c`` is the diagonal label there and ``branch`` the square-root sign of
    :func:`solve_case` that reaches it, both for the alpha it was built with.
    """

    gamma: Scalar
    fg: Scalar
    c: Scalar
    branch: str  # "upper" | "lower"


def build_new_rep_matrices(spec: RepSpec) -> MatrixTriple:
    """Concrete matrices of a ladder representation, basis ordered M = -J .. +J."""
    two_ms = list(range(-spec.two_j, spec.two_j + 1, 2))
    pos = {t: i for i, t in enumerate(two_ms)}
    diag = [spec.diagonal_value(Fr(t, 2)) for t in two_ms]
    n = len(two_ms)
    src, dst = pos[spec.two_m1], pos[spec.two_m1 + 2 * spec.q]
    return MatrixTriple(
        j0=Matrix.diagonal(diag),
        jplus=Matrix.from_entries(n, {(dst, src): spec.f}),
        jminus=Matrix.from_entries(n, {(src, dst): spec.g}),
    )


def _cubic(t: Scalar, params: AlgebraParams) -> Scalar:
    return ((params.alpha * t + params.beta) * t + params.gamma) * t + params.delta


def constraint_residuals(spec: RepSpec, params: AlgebraParams) -> list[Scalar]:
    """The 2J+1 diagonal constraint residuals, raised state first.

    Order: the raised-state residual cubic(h(M1+q)) - f*g, then the source
    residual cubic(h(M1)) + f*g, then one residual cubic(h(M)) per remaining
    basis label M, ascending.  All zero exactly when the built matrices
    satisfy the deformed relations.
    """
    fg = spec.f * spec.g
    raised = spec.diagonal_value(spec.m1 + spec.q)
    source = spec.diagonal_value(spec.m1)
    residuals = [_cubic(raised, params) - fg, _cubic(source, params) + fg]
    for two_m in range(-spec.two_j, spec.two_j + 1, 2):
        if two_m in (spec.two_m1, spec.two_m1 + 2 * spec.q):
            continue
        residuals.append(_cubic(spec.diagonal_value(Fr(two_m, 2)), params))
    return residuals


def _case_parameters(alpha, beta, gamma) -> tuple[Scalar, Scalar, Scalar]:
    """The parameter region of the case solvers, as scalars.

    alpha = beta = 0 leaves only the trivial algebra.  With alpha != 0 the
    branch is picked by the sign of a multiple of 1/alpha, so alpha must be
    rational there; beta and gamma may be irrational as long as the radicand
    of :func:`solve_case` stays rational, which ``sqrt_exact`` checks.
    """
    alpha, beta, gamma = as_scalar(alpha), as_scalar(beta), as_scalar(gamma)
    if scalar_is_zero(alpha):
        if scalar_is_zero(beta):
            raise TrivialAlgebraError(
                "alpha = beta = 0 admits only the trivial gamma = delta = 0 algebra"
            )
    elif not isinstance(alpha, Fraction):
        raise ValueError("alpha != 0 must be rational")
    return alpha, beta, gamma


def _c_quadratic(case: CaseId, alpha, beta, gamma) -> tuple[Scalar, Scalar, Scalar]:
    """(A, B, C) of A c^2 + B c + C = 0, what the three constraints leave of c.

    Eliminating f*g and delta sums cubic(c + e) over the raised and source
    labels less twice the third label's; the c^3 terms cancel.
    """
    s1, s2, s3 = case.data.label_sums
    return 3 * alpha * s1, 3 * alpha * s2 + 2 * beta * s1, gamma * s1 + beta * s2 + alpha * s3


def solve_case(
    case: CaseId,
    alpha: Scalar,
    beta: Scalar,
    gamma: Scalar,
    branch: str = "upper",
) -> CaseSolution:
    """Exact (c, delta, f*g) for one of the three-dimensional cases.

    With alpha = 0 the solution is unique and ``branch`` is ignored; otherwise
    ``branch`` picks the sign in front of the square root and the radicand
    must be nonnegative.  delta zeroes the third label's constraint and f*g
    the raised label's.
    """
    alpha, beta, gamma = _case_parameters(alpha, beta, gamma)
    e_dst, _, e_oth = case.data.energies
    a, b, c0 = _c_quadratic(case, alpha, beta, gamma)
    if scalar_is_zero(alpha):
        c = -c0 / b
        branch_tag = "alpha-zero"
    else:
        if branch not in ("upper", "lower"):
            raise ValueError(f"branch must be 'upper' or 'lower', got {branch!r}")
        s1 = case.data.label_sums[0]
        root = sqrt_exact((b * b - 4 * a * c0) / (36 * s1 * s1))
        c = -b / (2 * a) + (root if branch == "upper" else -root) / alpha
        branch_tag = branch
    bare = AlgebraParams(alpha, beta, gamma, 0)
    delta = -_cubic(c + e_oth, bare)
    fg = _cubic(c + e_dst, bare) + delta
    return CaseSolution(c=c, delta=delta, fg=fg, branch=branch_tag)


def intrinsic_gamma_and_product(case: CaseId, alpha: Scalar, beta: Scalar) -> IntrinsicData:
    """gamma, f*g and c making the case realization close independently of the module.

    On x^k the bracket [J+, J-] is f*g*Q(k), Q the case's cubic
    ``bracket_poly``, and J0 is (k - 1)/p + c; matching the coefficients of
    k^3, k^2 and k^1 of f*g*Q(k) = cubic((k - 1)/p + c) fixes f*g, c and gamma.
    Also reports the square-root branch of :func:`solve_case` that gives this c.
    """
    alpha, beta, _ = _case_parameters(alpha, beta, 0)
    if scalar_is_zero(alpha):
        raise ValueError("the intrinsic locus needs alpha != 0")
    data = case.data
    p = data.p
    _, q1, q2, q3 = data.bracket_poly
    fg = alpha / (p ** 3 * q3)
    u = (fg * q2 * p * p - beta) / (3 * alpha)  # c - 1/p
    gamma = fg * q1 * p - 3 * alpha * u * u - 2 * beta * u
    c = u + 1 / p
    a, b, _ = _c_quadratic(case, alpha, beta, gamma)
    branch = "upper" if (c + b / (2 * a)) / alpha > 0 else "lower"
    return IntrinsicData(gamma=gamma, fg=fg, c=c, branch=branch)


@dataclass(frozen=True)
class RepBlock:
    """One irreducible coordinate block of a decomposed representation."""

    indices: tuple[int, ...]
    two_j_label: int
    c_label: Union[Scalar, tuple[Scalar, ...]]


def decompose_rep(rep: MatrixTriple) -> list[RepBlock]:
    """Coordinate block decomposition with spin and diagonal labels.

    Each block of size d gets the spin label 2J = d - 1.  For a singleton the
    c label is the lone diagonal eigenvalue; larger blocks report the tuple of
    eigenvalues, since their own quadratic coefficient is a free parameter and
    a single c is not determined.
    """
    split = coordinate_block_split([rep.j0, rep.jplus, rep.jminus])
    out = []
    for block in split.blocks:
        eigs = tuple(rep.j0[i, i] for i in block)
        label: Union[Scalar, tuple[Scalar, ...]] = eigs[0] if len(eigs) == 1 else eigs
        out.append(RepBlock(indices=block, two_j_label=len(block) - 1, c_label=label))
    return out


def case_rep_spec(case: CaseId, solution: CaseSolution, f: Optional[Scalar] = None) -> RepSpec:
    """RepSpec for a solved case, splitting the product as f = 1, g = f*g by default."""
    data = case.data
    f = as_scalar(1 if f is None else f)
    if scalar_is_zero(f):
        raise ValueError("the raising coefficient of the split must be nonzero")
    return RepSpec(
        two_j=2,
        q=data.q,
        two_m1=data.two_m1,
        a=data.a,
        c=solution.c,
        f=f,
        g=solution.fg / f,
    )
