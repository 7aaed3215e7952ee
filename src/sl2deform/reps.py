"""Single-step ladder representations and the solved three-dimensional cases.

The representation class handled here acts on basis states labeled
M = -J .. +J (stored doubled so half-integer spins stay in integers):
the diagonal generator has eigenvalues a*M^2 + (1/q - a*q - 2*a*M1)*M + c,
the raising operator moves only M1 -> M1 + q with coefficient f, and the
lowering operator moves only M1 + q -> M1 with coefficient g.  The linear
coefficient is pinned by the unit-shift relation [J0, J+] = J+, so the whole
relation system reduces to 2J + 1 diagonal constraints; only the product
f*g is ever constrained, never the split.

The three-dimensional cases are solved in normal form, on numerators
(``scalars.num_*``), each result reduced once.  J0 -> J0 + s and J+ ->
J+/alpha keep [J0, J+-] = +-J+- and turn the cubic into t^3 + p t + r
(s = beta/(3 alpha), p = gamma/alpha - 3 s^2), so the quadratic in c + s has
no beta, and each intrinsic locus is the orbit of the one point that
``cases.derive_case`` solves.  With alpha, beta, gamma as al, be, ga over P
and S_n = e_dst^n + e_src^n - 2 e_oth^n as s_n, raised + source - 2 * third
cancels f*g, delta and c^3.  At alpha != 0, c = -s2/(2 s1) - be/(3 al) +-
P root/al, the root of (9 al^2 s2^2 - 4 s1 N)/(36 s1^2 P^2) with
N = (3 al ga - be^2) s1 + 3 al^2 s3, which ``sqrt_exact`` rejects when
irrational; at alpha = 0, c = (-s2 be - s1 ga)/(2 s1 be).
``_case_parameters`` is the one guard on (alpha, beta, gamma).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .algebra import AlgebraParams, MatrixTriple, _check_two_j, _cubic
from .cases import CaseData
from .matrices import Matrix, coordinate_block_split
from .scalars import (Scalar, _quotient, as_scalar, from_numerator, num_add, num_mul, num_sub,
                      scalar_is_zero, sqrt_exact, to_numerators)

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
    def linear_coeff(self) -> Scalar:
        """1/q - a*q - 2*a*M1, forced by the unit shift of the raising relation."""
        (a,), den = to_numerators([self.a])
        return from_numerator(num_sub(den, num_mul(a, self.q * (self.q + self.two_m1))), self.q * den)

    def diagonal_value(self, m: Union[Fraction, int]) -> Scalar:
        (v,), den = self._diagonal([Fr(m)])
        return from_numerator(v, den)

    def _diagonal(self, ms: Sequence[Fraction]) -> tuple[list, int]:
        """The values at the labels ``ms``, numerators over one denominator."""
        (a, lin, c), den = to_numerators((self.a, self.linear_coeff, self.c))
        ms, md = to_numerators(ms)
        return [num_add(num_add(num_mul(a, m * m), num_mul(lin, m * md)), num_mul(c, md * md))
                for m in ms], den * md * md


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
    satisfy the deformed relations.  Formed on numerators, each reduced once.
    """
    (f, g), fd = to_numerators((spec.f, spec.g))
    fg = num_mul(f, g)
    raised, src = spec.two_m1 + 2 * spec.q, spec.two_m1
    labels = [raised, src] + [t for t in range(-spec.two_j, spec.two_j + 1, 2) if t not in (raised, src)]
    values, den = _cubic(*spec._diagonal([Fr(t, 2) for t in labels]), params)
    values, fg = [num_mul(v, fd * fd) for v in values], num_mul(fg, den)
    values[0], values[1] = num_sub(values[0], fg), num_add(values[1], fg)
    return [from_numerator(v, den * fd * fd) for v in values]


def _case_parameters(alpha, beta, gamma) -> AlgebraParams:
    """The parameter region of the case solvers: (alpha, beta, gamma, 0).

    alpha = beta = 0 leaves only the trivial algebra.  With alpha != 0 the
    branch is picked by the sign of a multiple of 1/alpha, so alpha must be
    rational there; beta and gamma may be irrational over one radicand, as
    long as the radicand of :func:`solve_case` stays rational, which
    ``sqrt_exact`` checks.  The numerator of gamma*beta is formed, and
    dropped, so that two radicands raise ``ScalarDomainError`` here, naming
    gamma's first: the shift squares beta, which would hide its radicand.
    """
    alpha, beta, gamma = as_scalar(alpha), as_scalar(beta), as_scalar(gamma)
    if scalar_is_zero(alpha):
        if scalar_is_zero(beta):
            raise TrivialAlgebraError(
                "alpha = beta = 0 admits only the trivial gamma = delta = 0 algebra"
            )
    elif not isinstance(alpha, Fraction):
        raise ValueError("alpha != 0 must be rational")
    bare = AlgebraParams(alpha, beta, gamma, 0)
    (_, be, ga, _), _ = bare.numerators
    num_mul(ga, be)  # raises over two radicands
    return bare


def _label_sums(data: CaseData) -> tuple[tuple, tuple, int]:
    """``data.numerators``; ``ValueError`` when S1 = 0, where the quadratic in c degenerates."""
    if not data.label_sums[0]:
        k_src = data.space.exponents[data.two_m1 // 2 + 1]
        raise ValueError(f"the ladder x^{k_src} -> x^{k_src + data.step} on "
                         f"{list(data.space.exponents)} has S1 = 0, where the "
                         "quadratic in c degenerates")
    return data.numerators


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
    bare = _case_parameters(alpha, beta, gamma)
    (al, be, ga, _), p = bare.numerators
    (s1, s2, s3), (e_dst, _, e_oth), e = _label_sums(data)
    if not al:
        c = _quotient(num_sub(num_mul(be, -s2), num_mul(ga, s1)), num_mul(be, 2 * s1))
        branch = "alpha-zero"
    else:
        if branch not in ("upper", "lower"):
            raise ValueError(f"branch must be 'upper' or 'lower', got {branch!r}")
        n = num_add(num_mul(num_sub(num_mul(ga, 3 * al), num_mul(be, be)), s1), 3 * al * al * s3)
        radicand = num_sub(9 * al * al * s2 * s2, num_mul(n, 4 * s1))
        (r,), rd = to_numerators([sqrt_exact(from_numerator(radicand, 36 * s1 * s1 * p * p))])
        # beta's part first, then the root's: a clash names beta's radicand first
        c = _quotient(num_add(num_sub(-3 * al * s2 * rd, num_mul(be, 2 * s1 * rd)),
                              num_mul(r, 6 * s1 * p if branch == "upper" else -6 * s1 * p)),
                      6 * s1 * al * rd)
    (x,), h = to_numerators([c])
    (at_oth, at_dst), den = _cubic([num_add(num_mul(x, e), num_mul(t, h)) for t in (e_oth, e_dst)],
                                   h * e, bare)
    return CaseSolution(c=c, delta=from_numerator(num_mul(at_oth, -1), den),
                        fg=from_numerator(num_sub(at_dst, at_oth), den), branch=branch)


def carried_label(label: Fraction, alpha: Scalar, beta: Scalar) -> Scalar:
    """label - beta/(3 alpha), alpha != 0: a diagonal label at (alpha, beta) =
    (1, 0) carried along the normal form's orbit, on numerators."""
    (al, be), _ = to_numerators((alpha, beta))
    n, d = label.as_integer_ratio()
    return _quotient(num_sub(3 * al * n, num_mul(be, d)), 3 * al * d)


def intrinsic_gamma_and_product(data: CaseData, alpha: Scalar, beta: Scalar) -> IntrinsicData:
    """gamma, f*g and c making the case realization close independently of the module.

    The locus is one orbit: the case's point (p*, c*, fg*) at (alpha, beta) =
    (1, 0), carried to gamma = alpha (p* + 3 s^2), c = c* - s and
    f*g = alpha fg*.  Also reports the square-root branch of
    :func:`solve_case` that gives this c: the case's branch at alpha > 0,
    the other one at alpha < 0, read off the sign of (c* + S2/(2 S1))/alpha.
    """
    bare = _case_parameters(alpha, beta, 0)
    (al, be, _, _), p = bare.numerators
    if not al:
        raise ValueError("the intrinsic locus needs alpha != 0")
    (s1, s2, _), _, _ = _label_sums(data)
    p_star, c_star, fg = data.intrinsic
    (pn, pd), (u, w) = p_star.as_integer_ratio(), c_star.as_integer_ratio()
    return IntrinsicData(
        gamma=_quotient(num_add(3 * al * al * pn, num_mul(num_mul(be, be), pd)), 3 * al * p * pd),
        fg=from_numerator(al * fg.numerator, p * fg.denominator),
        c=carried_label(c_star, bare.alpha, bare.beta),
        branch="upper" if (2 * s1 * u + s2 * w) * s1 * al > 0 else "lower",
    )


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
    (fg, f_num), _ = to_numerators((solution.fg, f))
    return RepSpec(
        two_j=2,
        q=data.q,
        two_m1=data.two_m1,
        a=data.a,
        c=solution.c,
        f=f,
        g=_quotient(fg, f_num),
    )
