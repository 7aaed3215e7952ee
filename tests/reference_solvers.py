"""The case derivation, the case solvers and the ladder constraints in
Fraction-pair arithmetic, and the representations the tests build.

A reference implementation for the differential oracles of ``test_reps`` and
``test_cases``: the forms that ``reps`` and ``cases`` had before they computed
on integers and integer numerators,
kept operator for operator, so that the oracle compares values and also which
error is raised, with which message, in which order.  Irrational values are
computed with ``exact_field.Q``, which shares no arithmetic with the package,
and handed back as the package's scalars.

The tests' representations live here too, as the package ships none: the
single-step ladder representations (``RepSpec``), the classic spin-j
matrices and their first-order realization, and a reader of the operator
text that ``DiffOp.to_text`` writes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from sl2deform.algebra import AlgebraParams, MatrixTriple
from sl2deform.cases import CaseData
from sl2deform.diffops import DiffOp, MonomialSpace
from sl2deform.matrices import Matrix
from sl2deform.reps import CaseSolution, IntrinsicData, TrivialAlgebraError
from sl2deform.scalars import as_scalar, parse_scalar, scalar_is_zero, sqrt_exact

from exact_field import Q

Fr = Fraction


@dataclass(frozen=True)
class RepSpec:
    """A single-step ladder representation on the labels M = -J .. J, doubled.

    J0 is a*M^2 + linear_coeff*M + c at M (``diagonal_value``), J+ moves only
    M1 to M1 + q, with coefficient f, and J- moves it back, with coefficient
    g.  A plain record: nothing is checked.
    """

    two_j: int
    q: int
    two_m1: int
    a: object
    c: object
    f: object
    g: object


def ladder(exponents: tuple[int, ...], k_from: int, k_to: int) -> DiffOp:
    """The Lagrange polynomial that is 1 at k_from and 0 at the other exponents,
    in Fractions; its n-th forward difference at 0, over n!, is the
    coefficient of x^(n + k_to - k_from) D^n."""
    values = [
        math.prod(Fr(t - k, k_from - k) for k in exponents if k != k_from)
        for t in range(len(exponents))
    ]
    terms = {}
    for n in range(len(exponents)):
        terms[(n + k_to - k_from, n)] = values[0] / math.factorial(n)
        values = [b - a for a, b in zip(values, values[1:])]
    return DiffOp(terms)


def derive_case(space: MonomialSpace, k_src: int, k_dst: int) -> CaseData:
    """The case data of a valid ladder, the energies, sums and intrinsic point
    formed with Fraction operators and the bracket's cubic read off
    ``symbolic_action``."""
    exponents = space.exponents
    step, k_mid = k_dst - k_src, exponents[1]
    label = dict(zip(exponents, (-1, 0, 1)))
    src, dst = label[k_src], label[k_dst]
    (oth,) = (m for m in label.values() if m not in (src, dst))
    energy = {m: Fr(k - k_mid, step) for k, m in label.items()}
    raise_op = ladder(exponents, k_src, k_dst)
    lower_op = ladder(exponents, k_dst, k_src)
    bracket = raise_op.commutator(lower_op).symbolic_action()
    _, q1, q2, q3 = bracket[0]
    fg = 1 / (step ** 3 * q3)
    u = fg * q2 * step * step / 3  # c* - k_mid/step
    return CaseData(
        space=space,
        q=dst - src,
        two_m1=2 * src,
        step=step,
        k_mid=k_mid,
        a=(energy[1] + energy[-1]) / 2,
        energies=(energy[dst], energy[src], energy[oth]),
        label_sums=tuple(
            energy[dst] ** n + energy[src] ** n - 2 * energy[oth] ** n for n in (1, 2, 3)
        ),
        raise_op=raise_op,
        lower_op=lower_op,
        bracket_poly=bracket[0],
        intrinsic=(fg * q1 * step - 3 * u * u, u + Fr(k_mid, step), fg),
    )


def _cubic(ts, alpha, beta, gamma, delta) -> list[Q]:
    """alpha*t^3 + beta*t^2 + gamma*t + delta at each t, by Horner's scheme with
    t on the left of alpha, as ``algebra._cubic`` forms it."""
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


def build_new_rep_matrices(spec: RepSpec) -> MatrixTriple:
    """The matrices of ``spec``, basis ordered M = -J .. +J."""
    n = spec.two_j + 1
    src = (spec.two_j + spec.two_m1) // 2
    return MatrixTriple(
        j0=Matrix.diagonal([diagonal_value(spec, Fr(t, 2)) for t in range(-spec.two_j, n, 2)]),
        jplus=Matrix.from_entries(n, {(src + spec.q, src): spec.f}),
        jminus=Matrix.from_entries(n, {(src, src + spec.q): spec.g}),
    )


def build_classic_sl2_matrices(two_j: int) -> MatrixTriple:
    """The spin-j matrices, basis ordered m = -j .. +j: J0 = diag(m), and the
    ladders sqrt((j -+ m)(j +- m + 1)), each entry over its own radicand."""
    j = Fr(two_j, 2)
    ms = [Fr(t, 2) for t in range(-two_j, two_j + 1, 2)]
    return MatrixTriple(
        j0=Matrix.diagonal(ms),
        jplus=Matrix.from_entries(len(ms), {
            (i + 1, i): sqrt_exact((j - m) * (j + m + 1)) for i, m in enumerate(ms[:-1])}),
        jminus=Matrix.from_entries(len(ms), {
            (i - 1, i): sqrt_exact((j + m) * (j - m + 1)) for i, m in enumerate(ms) if i}),
    )


def build_classic_sl2_diffops(two_j: int) -> tuple[DiffOp, DiffOp, DiffOp]:
    """The first-order realization on x^0 .. x^(2j): x*D - j, -x^2*D + 2j*x, D.
    On the basis sqrt(C(2j, j + m)) x^(j+m) its matrices are the spin-j ones."""
    j = Fr(two_j, 2)
    return (DiffOp({(1, 1): 1, (0, 0): -j}), DiffOp({(2, 1): -1, (1, 0): 2 * j}),
            DiffOp({(0, 1): 1}))


_TERM = re.compile(r"(^-?| [+-] )(\(.*?\)|[0-9]+(?:/[0-9]+)?) \* x\^(-?[0-9]+) \* D\^([0-9]+)")


def read_diffop(text: str) -> DiffOp:
    """The operator that ``DiffOp.to_text`` writes as ``text``; ``ValueError``
    unless ``text`` is ``0`` or a run of such terms."""
    terms, end = {}, 0
    for m in _TERM.finditer(text):
        if m.start() != end:
            break
        sign, coefficient, x, d = m.groups()
        value = Q(parse_scalar(coefficient[1:-1] if coefficient[0] == "(" else coefficient))
        terms[(int(x), int(d))] = (-value if "-" in sign else value).value
        end = m.end()
    if text != "0" and (end != len(text) or not terms):
        raise ValueError(f"not an operator text: {text!r}")
    return DiffOp(terms)
