"""The case solvers and the ladder constraints in Fraction and QuadExt arithmetic.

A reference implementation for ``test_reps``' differential oracle: the forms
that ``reps`` and ``cases`` had before they computed on integer numerators,
kept as they were, operator for operator, so that the oracle compares values
and also which error is raised, with which message, in which order.
"""

from __future__ import annotations

from fractions import Fraction

from sl2deform.algebra import AlgebraParams, cubic
from sl2deform.cases import CaseData
from sl2deform.diffops import DiffOp
from sl2deform.reps import CaseSolution, IntrinsicData, RepSpec, TrivialAlgebraError
from sl2deform.scalars import as_scalar, scalar_is_zero, sqrt_exact

Fr = Fraction


def _case_parameters(alpha, beta, gamma):
    alpha, beta, gamma = as_scalar(alpha), as_scalar(beta), as_scalar(gamma)
    if scalar_is_zero(alpha):
        if scalar_is_zero(beta):
            raise TrivialAlgebraError(
                "alpha = beta = 0 admits only the trivial gamma = delta = 0 algebra"
            )
    elif not isinstance(alpha, Fraction):
        raise ValueError("alpha != 0 must be rational")
    gamma * beta  # raises over two radicands
    return alpha, beta, gamma


def _c_quadratic(data: CaseData, alpha, beta, gamma):
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


def solve_case(data: CaseData, alpha, beta, gamma, branch: str = "upper") -> CaseSolution:
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


def intrinsic_gamma_and_product(data: CaseData, alpha, beta) -> IntrinsicData:
    alpha, beta, _ = _case_parameters(alpha, beta, 0)
    if scalar_is_zero(alpha):
        raise ValueError("the intrinsic locus needs alpha != 0")
    p, c, fg = data.intrinsic
    s, a, b, _ = _c_quadratic(data, alpha, beta, 0)
    branch = "upper" if (c + b / (2 * a)) / alpha > 0 else "lower"
    return IntrinsicData(gamma=alpha * (p + 3 * s * s), fg=alpha * fg, c=c - s, branch=branch)


def linear_coeff(spec: RepSpec):
    return Fr(1, spec.q) - spec.a * spec.q - 2 * spec.a * Fr(spec.two_m1, 2)


def diagonal_value(spec: RepSpec, m):
    m = Fr(m)
    return spec.a * m * m + linear_coeff(spec) * m + spec.c


def constraint_residuals(spec: RepSpec, params: AlgebraParams) -> list:
    fg = spec.f * spec.g
    m1 = Fr(spec.two_m1, 2)
    labels = [m1 + spec.q, m1] + [
        Fr(two_m, 2)
        for two_m in range(-spec.two_j, spec.two_j + 1, 2)
        if two_m not in (spec.two_m1, spec.two_m1 + 2 * spec.q)
    ]
    residuals = cubic([diagonal_value(spec, m) for m in labels], params)
    residuals[0] = residuals[0] - fg
    residuals[1] = residuals[1] + fg
    return residuals


def case_rep_spec(data: CaseData, solution: CaseSolution, f=None) -> RepSpec:
    f = as_scalar(1 if f is None else f)
    if scalar_is_zero(f):
        raise ValueError("the raising coefficient of the split must be nonzero")
    return RepSpec(two_j=2, q=data.q, two_m1=data.two_m1, a=data.a, c=solution.c,
                   f=f, g=solution.fg / f)


def build_case_realization(data: CaseData, f, g, c) -> tuple[DiffOp, DiffOp, DiffOp]:
    slope = Fr(1, data.step)
    j0 = DiffOp({(1, 1): slope, (0, 0): as_scalar(c) - data.k_mid * slope})
    return j0, data.raise_op.scale(f), data.lower_op.scale(g)


def printed_label(label: Fraction, alpha, beta):
    """The published label less the shift, as ``cli.cmd_verify_case`` formed it."""
    return label - beta / (3 * alpha)
