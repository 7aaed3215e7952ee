"""The case solvers and the ladder constraints in Fraction-pair arithmetic.

A reference implementation for ``test_reps``' differential oracle: the forms
that ``reps`` and ``cases`` had before they computed on integer numerators,
kept operator for operator, so that the oracle compares values and also which
error is raised, with which message, in which order.  Irrational values are
computed with ``exact_field.Q``, which shares no arithmetic with the package,
and handed back as the package's scalars.
"""

from __future__ import annotations

from fractions import Fraction

from sl2deform.algebra import AlgebraParams
from sl2deform.cases import CaseData
from sl2deform.diffops import DiffOp
from sl2deform.reps import CaseSolution, IntrinsicData, RepSpec, TrivialAlgebraError
from sl2deform.scalars import as_scalar, scalar_is_zero, sqrt_exact

from exact_field import Q

Fr = Fraction


def _cubic(ts, alpha, beta, gamma, delta) -> list[Q]:
    """alpha*t^3 + beta*t^2 + gamma*t + delta at each t, by Horner's scheme with
    t on the left of alpha, as ``algebra.cubic`` forms it."""
    return [((Q(t) * alpha + beta) * t + gamma) * t + delta for t in ts]


def _case_parameters(alpha, beta, gamma):
    alpha, beta, gamma = as_scalar(alpha), as_scalar(beta), as_scalar(gamma)
    if scalar_is_zero(alpha):
        if scalar_is_zero(beta):
            raise TrivialAlgebraError(
                "alpha = beta = 0 admits only the trivial gamma = delta = 0 algebra"
            )
    elif not isinstance(alpha, Fraction):
        raise ValueError("alpha != 0 must be rational")
    Q(gamma) * beta  # raises over two radicands
    return alpha, Q(beta), Q(gamma)  # alpha is rational


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
        root = Q(sqrt_exact((alpha * alpha * (b * b - 4 * a * c0) / (4 * a * a)).value))
        c = -b / (2 * a) - s + (root if branch == "upper" else -root) / alpha
        branch_tag = branch
    at_oth, at_dst = _cubic([c + e_oth, c + e_dst], alpha, beta, gamma, 0)
    delta = -at_oth
    fg = at_dst + delta
    return CaseSolution(c=c.value, delta=delta.value, fg=fg.value, branch=branch_tag)


def intrinsic_gamma_and_product(data: CaseData, alpha, beta) -> IntrinsicData:
    alpha, beta, _ = _case_parameters(alpha, beta, 0)
    if scalar_is_zero(alpha):
        raise ValueError("the intrinsic locus needs alpha != 0")
    p, c, fg = data.intrinsic
    s, a, b, _ = _c_quadratic(data, alpha, beta, 0)
    branch = "upper" if (c + b / (2 * a)) / alpha > 0 else "lower"
    return IntrinsicData(gamma=(alpha * (p + 3 * s * s)).value, fg=alpha * fg, c=(c - s).value,
                         branch=branch)


def linear_coeff(spec: RepSpec):
    a = Q(spec.a)
    return (Fr(1, spec.q) - a * spec.q - 2 * a * Fr(spec.two_m1, 2)).value


def diagonal_value(spec: RepSpec, m):
    m = Fr(m)
    return (Q(spec.a) * m * m + Q(linear_coeff(spec)) * m + spec.c).value


def constraint_residuals(spec: RepSpec, params: AlgebraParams) -> list:
    fg = Q(spec.f) * spec.g
    m1 = Fr(spec.two_m1, 2)
    labels = [m1 + spec.q, m1] + [
        Fr(two_m, 2)
        for two_m in range(-spec.two_j, spec.two_j + 1, 2)
        if two_m not in (spec.two_m1, spec.two_m1 + 2 * spec.q)
    ]
    residuals = _cubic([diagonal_value(spec, m) for m in labels],
                       params.alpha, params.beta, params.gamma, params.delta)
    residuals[0] = residuals[0] - fg
    residuals[1] = residuals[1] + fg
    return [r.value for r in residuals]


def case_rep_spec(data: CaseData, solution: CaseSolution, f=None) -> RepSpec:
    f = as_scalar(1 if f is None else f)
    if scalar_is_zero(f):
        raise ValueError("the raising coefficient of the split must be nonzero")
    return RepSpec(two_j=2, q=data.q, two_m1=data.two_m1, a=data.a, c=solution.c,
                   f=f, g=(Q(solution.fg) / f).value)


def build_case_realization(data: CaseData, f, g, c) -> tuple[DiffOp, DiffOp, DiffOp]:
    slope = Fr(1, data.step)
    j0 = DiffOp({(1, 1): slope, (0, 0): (Q(as_scalar(c)) - data.k_mid * slope).value})
    return j0, data.raise_op.scale(f), data.lower_op.scale(g)


def printed_label(label: Fraction, alpha, beta):
    """The published label less the shift, as ``cli.cmd_verify_case`` formed it."""
    return (label - Q(beta) / (3 * alpha)).value
