"""The three three-dimensional ladder cases, derived from their labels.

On a three-dimensional module (J = 1) a one-step ladder structure leaves
exactly three label choices (q, M1), the ones ``enumerate_case_labels(2)``
lists: raise by q = 1 from M1 = -1 or M1 = 0, or raise by q = 2 from M1 = -1.
Everything else about a case follows from its label and the module spanned
by {1, x, x^3}:

- the diagonal operator (1/p) x D + (c - 1/p) puts the label M on x^k with
  k = 1 + p*e(M), where e(M) = a*M^2 + (1/q - a*q - 2*a*M1)*M is the
  diagonal eigenvalue less c; since p = q^2/2 + q*(M1 + 3/2), p*e(M) is
  M^2/2 + 3M/2 for every label, so M = -1, 0, 1 sit on x^0, x^1, x^3;
- each ladder operator is the lowest-order operator of its degree shift that
  sends one basis monomial to the other and kills the third: the Lagrange
  polynomial through the exponents, written in falling factorials;
- the sums S_n = e_dst^n + e_src^n - 2*e_oth^n give the quadratic for c that
  ``reps.solve_case`` solves, and the shift-0 polynomial of [J+, J-] fixes
  the intrinsic locus that ``reps.intrinsic_gamma_and_product`` computes.

Only the whole-module label constant as the paper prints it is entered by
hand: case 3's disagrees with the solved c, so it cannot be derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .diffops import V3, DiffOp
from .reps import intrinsic_gamma_and_product
from .scalars import Scalar, as_scalar

Fr = Fraction


def p_and_a(q: int, m1: Union[int, Fraction]) -> tuple[Fraction, Fraction]:
    """Slope denominator p = q^2/2 + q(M1 + 3/2) of the diagonal realization, a = 1/(2p)."""
    if q < 1:
        raise ValueError("q must be positive")
    m1 = Fr(m1)
    p = Fr(q * q, 2) + q * (m1 + Fr(3, 2))
    if p == 0:
        raise ValueError(f"degenerate diagonal realization: p = 0 at (q={q}, M1={m1})")
    return p, 1 / (2 * p)


def enumerate_case_labels(two_j: int) -> list[tuple[int, Fraction]]:
    """All (q, M1) with both ladder endpoints inside the basis, M1 as a fraction."""
    labels = []
    for q in range(1, two_j + 1):
        for two_m1 in range(-two_j, two_j - 2 * q + 1, 2):
            labels.append((q, Fr(two_m1, 2)))
    labels.sort(key=lambda t: (t[0], t[1]))
    return labels


def _ladder(exponents: tuple[int, ...], k_from: int, k_to: int) -> DiffOp:
    """The operator sending x^k_from to x^k_to and the other basis monomials to 0.

    Its polynomial in k is the Lagrange interpolant that is 1 at k_from and 0
    at the other exponents; the coefficient of x^(n + shift) D^n is the n-th
    forward difference of that polynomial at 0, over n!.
    """
    values = [
        math.prod(Fr(t - k, k_from - k) for k in exponents if k != k_from)
        for t in range(len(exponents))
    ]
    terms = {}
    for n in range(len(exponents)):
        terms[(n + k_to - k_from, n)] = values[0] / math.factorial(n)
        values = [b - a for a, b in zip(values, values[1:])]
    return DiffOp(terms)


@dataclass(frozen=True)
class CaseData:
    """What one case is, apart from (alpha, beta, gamma); see :func:`derive_case`."""

    q: int
    two_m1: int
    p: Fraction                  # slope denominator of the diagonal operator
    a: Fraction                  # quadratic coefficient of the diagonal label
    # e(M) at the raised label, the source label and the third label
    energies: tuple[Fraction, Fraction, Fraction]
    label_sums: tuple[Fraction, Fraction, Fraction]  # S_1, S_2, S_3
    raise_op: DiffOp
    lower_op: DiffOp
    # [raise_op, lower_op] x^k = sum_i bracket_poly[i] k^i x^k
    bracket_poly: tuple[Fraction, ...]


def derive_case(q: int, m1: Union[int, Fraction]) -> CaseData:
    """The data of the ladder label (q, M1) on the module {1, x, x^3}.

    Raises ``ValueError`` unless the ladder moves between two of the labels
    -1, 0, 1.  Which labels sit on which exponents needs no check: p fixes
    them at 0, 1 and 3 whatever the label.
    """
    m1 = Fr(m1)
    p, a = p_and_a(q, m1)
    linear = Fr(1, q) - a * q - 2 * a * m1
    labels = (Fr(-1), Fr(0), Fr(1))
    energy = {m: a * m * m + linear * m for m in labels}
    src, dst = m1, m1 + q
    if src not in labels or dst not in labels:
        raise ValueError(f"the ladder {src} -> {dst} leaves the labels -1, 0, 1")
    (oth,) = (m for m in labels if m not in (src, dst))
    exponent = dict(zip(labels, V3.exponents))
    raise_op = _ladder(V3.exponents, exponent[src], exponent[dst])
    lower_op = _ladder(V3.exponents, exponent[dst], exponent[src])
    # [raise, lower] has shift 0 only, and its k^3 coefficient is -4 * shift
    # times the k^2 coefficients of the two ladders, so it is always cubic
    bracket = raise_op.commutator(lower_op).symbolic_action()
    return CaseData(
        q=q,
        two_m1=int(2 * m1),
        p=p,
        a=a,
        energies=(energy[dst], energy[src], energy[oth]),
        label_sums=tuple(
            energy[dst] ** n + energy[src] ** n - 2 * energy[oth] ** n for n in (1, 2, 3)
        ),
        raise_op=raise_op,
        lower_op=lower_op,
        bracket_poly=bracket[0],
    )


class CaseId(Enum):
    """The three admissible (q, M1) ladder labels on a three-dimensional module."""

    CASE1 = 1
    CASE2 = 2
    CASE3 = 3

    @property
    def data(self) -> CaseData:
        return _CASES[self]

    @property
    def printed_label_const(self) -> Fraction:
        """The whole-module diagonal label constant as the paper prints it.

        Case 3's disagrees with the solved c and verify-case flags the
        discrepancy, so it is recorded, not derived.
        """
        return _PRINTED_LABEL_CONST[self]


_CASES = {
    case: derive_case(q, m1)
    for case, (q, m1) in zip(CaseId, enumerate_case_labels(2), strict=True)
}
_PRINTED_LABEL_CONST = {CaseId.CASE1: Fr(-3, 4), CaseId.CASE2: Fr(0), CaseId.CASE3: Fr(-1, 6)}


def build_case_realization(
    case: CaseId,
    alpha: Scalar,
    beta: Scalar,
    f: Scalar,
    g: Scalar,
    c: Optional[Scalar] = None,
) -> tuple[DiffOp, DiffOp, DiffOp]:
    """The differential triple (diagonal, raising, lowering) of a ladder case.

    The diagonal operator is (1/p) x D + (c - 1/p).  Without an explicit
    label ``c`` the intrinsic one is used, which requires alpha != 0.
    """
    data = case.data
    if c is None:
        c = intrinsic_gamma_and_product(case, alpha, beta).c
    slope = 1 / data.p
    j0 = DiffOp({(1, 1): slope, (0, 0): as_scalar(c) - slope})
    return j0, data.raise_op.scale(f), data.lower_op.scale(g)
