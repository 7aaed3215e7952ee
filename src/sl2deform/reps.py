"""Single-step ladder representations and the solved three-dimensional cases.

The representation class handled here acts on basis states labeled
M = -J .. +J (stored doubled so half-integer spins stay in integers):
the diagonal generator has eigenvalues a*M^2 + (1/q - a*q - 2*a*M1)*M + c,
the raising operator moves only M1 -> M1 + q with coefficient f, and the
lowering operator moves only M1 + q -> M1 with coefficient g.  The linear
coefficient is pinned by the unit-shift relation [J0, J+] = J+, so the whole
relation system reduces to 2J + 1 diagonal constraints; only the product
f*g is ever constrained, never the split.

The three-dimensional cases are solved in normal form.  J0 -> J0 + s and
J+ -> J+/alpha keep [J0, J+-] = +-J+- and turn the cubic into t^3 + p t + r
(s = beta/(3 alpha), p = gamma/alpha - 3 s^2), so the quadratic in c + s has
no beta, and each intrinsic locus is the orbit of the one point that
``cases.derive_case`` solves.  ``_case_parameters`` is the one guard on
(alpha, beta, gamma); ``sqrt_exact`` rejects an irrational radicand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .algebra import AlgebraParams, MatrixTriple, _check_two_j, _one_radicand, cubic
from .cases import CaseData
from .matrices import Matrix, coordinate_block_split
from .scalars import Scalar, as_scalar, scalar_is_zero, sqrt_exact, to_numerators

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
        _check_two_j(self.two_j)
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


def constraint_residuals(spec: RepSpec, params: AlgebraParams) -> list[Scalar]:
    """The 2J+1 diagonal constraint residuals, raised state first.

    Order: the raised-state residual cubic(h(M1+q)) - f*g, then the source
    residual cubic(h(M1)) + f*g, then one residual cubic(h(M)) per remaining
    basis label M, ascending.  All zero exactly when the built matrices
    satisfy the deformed relations.
    """
    fg = spec.f * spec.g
    labels = [spec.m1 + spec.q, spec.m1] + [
        Fr(two_m, 2)
        for two_m in range(-spec.two_j, spec.two_j + 1, 2)
        if two_m not in (spec.two_m1, spec.two_m1 + 2 * spec.q)
    ]
    residuals = cubic([spec.diagonal_value(m) for m in labels], params)
    residuals[0] = residuals[0] - fg
    residuals[1] = residuals[1] + fg
    return residuals


def _case_parameters(alpha, beta, gamma) -> tuple[Scalar, Scalar, Scalar]:
    """The parameter region of the case solvers, as scalars.

    alpha = beta = 0 leaves only the trivial algebra.  With alpha != 0 the
    branch is picked by the sign of a multiple of 1/alpha, so alpha must be
    rational there; beta and gamma may be irrational over one radicand (the
    shift squares beta, which would hide a second), as long as the radicand
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
    _one_radicand(*to_numerators((gamma, beta))[0])
    return alpha, beta, gamma


def _c_quadratic(data: CaseData, alpha, beta, gamma) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """(s, A, B, C): c = c' - s, and A c'^2 + B c' + C = 0 is what the three
    constraints leave of c'.  Their sum, raised + source - 2 * third, cancels
    f*g, delta and c'^3: A = 3 S1, B = 3 S2 and C = p S1 + S3, or with
    s = gamma/(2 beta) at alpha = 0, A = 0, B = 2 S1 and C = S2.  Raises
    ``ValueError`` when S1 = 0, where the quadratic degenerates.
    """
    s1, s2, s3 = data.label_sums
    if not s1:
        k_src = data.space.exponents[data.two_m1 // 2 + 1]
        raise ValueError(f"the ladder x^{k_src} -> x^{k_src + data.step} on "
                         f"{list(data.space.exponents)} has S1 = 0, where the "
                         "quadratic in c degenerates")
    if scalar_is_zero(alpha):
        return gamma / (2 * beta), 0, 2 * s1, s2
    s = beta / (3 * alpha)
    return s, 3 * s1, 3 * s2, (gamma / alpha - 3 * s * s) * s1 + s3


def solve_case(
    data: CaseData,
    alpha: Scalar,
    beta: Scalar,
    gamma: Scalar,
    branch: str = "upper",
) -> CaseSolution:
    """Exact (c, delta, f*g) for a three-dimensional case.

    ``data`` is a paper case, ``CaseId.CASE1.data`` say, or any ladder that
    ``cases.derive_case`` derives.  With alpha = 0 the solution is unique
    and ``branch`` is ignored; otherwise ``branch`` picks the sign in front
    of the square root and the radicand must be nonnegative.  delta zeroes
    the third label's constraint and f*g the raised label's.
    """
    alpha, beta, gamma = _case_parameters(alpha, beta, gamma)
    e_dst, _, e_oth = data.energies
    s, a, b, c0 = _c_quadratic(data, alpha, beta, gamma)
    if scalar_is_zero(alpha):
        c = -c0 / b - s
        branch_tag = "alpha-zero"
    else:
        if branch not in ("upper", "lower"):
            raise ValueError(f"branch must be 'upper' or 'lower', got {branch!r}")
        root = sqrt_exact(alpha * alpha * (b * b - 4 * a * c0) / (4 * a * a))
        c = -b / (2 * a) - s + (root if branch == "upper" else -root) / alpha
        branch_tag = branch
    bare = AlgebraParams(alpha, beta, gamma, 0)
    at_oth, at_dst = cubic([c + e_oth, c + e_dst], bare)
    delta = -at_oth
    fg = at_dst + delta
    return CaseSolution(c=c, delta=delta, fg=fg, branch=branch_tag)


def intrinsic_gamma_and_product(data: CaseData, alpha: Scalar, beta: Scalar) -> IntrinsicData:
    """gamma, f*g and c making the case realization close independently of the module.

    The locus is one orbit: the case's point (p*, c*, fg*) at (alpha, beta) =
    (1, 0), carried to gamma = alpha (p* + 3 s^2), c = c* - s and
    f*g = alpha fg*.  Also reports the square-root branch of
    :func:`solve_case` that gives this c: the case's branch at alpha > 0,
    the other one at alpha < 0.
    """
    alpha, beta, _ = _case_parameters(alpha, beta, 0)
    if scalar_is_zero(alpha):
        raise ValueError("the intrinsic locus needs alpha != 0")
    p, c, fg = data.intrinsic
    s, a, b, _ = _c_quadratic(data, alpha, beta, 0)
    branch = "upper" if (c + b / (2 * a)) / alpha > 0 else "lower"
    return IntrinsicData(gamma=alpha * (p + 3 * s * s), fg=alpha * fg, c=c - s, branch=branch)


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
        eigs = tuple([rep.diagonal[i] for i in block])
        label: Union[Scalar, tuple[Scalar, ...]] = eigs[0] if len(eigs) == 1 else eigs
        out.append(RepBlock(indices=block, two_j_label=len(block) - 1, c_label=label))
    return out


def case_rep_spec(data: CaseData, solution: CaseSolution, f: Optional[Scalar] = None) -> RepSpec:
    """RepSpec for a solved case, splitting the product as f = 1, g = f*g by default."""
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
