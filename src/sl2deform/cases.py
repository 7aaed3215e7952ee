"""The three three-dimensional ladder cases, derived from their exponent pairs.

A case is a ladder between two exponents k_src < k_dst of a space of three
monomials.  The labels M = -1, 0, 1 go on the exponents in ascending order,
and everything else about the case follows from the space and the pair:

- the diagonal operator (1/step) x D + (c - k_mid/step), step = k_dst - k_src
  and k_mid the middle exponent, has the eigenvalue e(M) + c on the label M,
  with e(M) = (k_M - k_mid)/step; the ladder raises M1 to M1 + q, and
  a = (e(1) + e(-1))/2 is the quadratic coefficient of e;
- each ladder operator is the lowest-order operator of its degree shift that
  sends one basis monomial to the other and kills the third: the Lagrange
  polynomial through the exponents, written in falling factorials;
- the sums S_n = e_dst^n + e_src^n - 2*e_oth^n give the quadratic for c that
  ``reps.solve_case`` solves, and the shift-0 polynomial of [J+, J-] fixes
  the intrinsic point at (alpha, beta) = (1, 0), whose orbit is the locus.

The paper's three cases are the ladders 0 -> 1, 1 -> 3 and 0 -> 3 on
{1, x, x^3}.  Only the whole-module label constant as the paper prints it is
entered by hand: case 3's disagrees with the solved c, so it cannot be derived.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .diffops import V3, DiffOp, MonomialSpace, _lowest, _shift_polynomials
from .scalars import Scalar, as_scalar, num_mul, num_sub, to_numerators

Fr = Fraction


def _ladder(exponents: tuple[int, ...], k_from: int, k_to: int) -> DiffOp:
    """The operator sending x^k_from to x^k_to and the other basis monomials to 0.

    Its polynomial in k is the Lagrange interpolant that is 1 at k_from and 0
    at the other exponents; the coefficient of x^(n + shift) D^n is the n-th
    forward difference of that polynomial at 0, over n!.  Both are formed on
    integers: the values prod(t - k) and their differences, times
    (len - 1)!/n!, over prod(k_from - k) * (len - 1)!, its sign made positive.
    """
    others = [k for k in exponents if k != k_from]
    top, den = math.factorial(len(others)), math.prod([k_from - k for k in others])
    sign = 1 if den > 0 else -1
    values = [sign * math.prod([t - k for k in others]) for t in range(len(exponents))]
    terms = {}
    for n in range(len(exponents)):
        terms[(n + k_to - k_from, n)] = values[0] * (top // math.factorial(n))
        values = [b - a for a, b in zip(values, values[1:])]
    return _lowest(terms, abs(den) * top)


@dataclass(frozen=True)
class CaseData:
    """What one case is, apart from (alpha, beta, gamma); see :func:`derive_case`."""

    space: MonomialSpace         # the three monomials the case acts on
    q: int
    two_m1: int
    step: int                    # k_dst - k_src, slope denominator of the diagonal operator
    k_mid: int                   # the exponent of the label M = 0
    a: Fraction                  # quadratic coefficient of the diagonal label
    # e(M) at the raised label, the source label and the third label
    energies: tuple[Fraction, Fraction, Fraction]
    label_sums: tuple[Fraction, Fraction, Fraction]  # S_1, S_2, S_3
    raise_op: DiffOp
    lower_op: DiffOp
    # [raise_op, lower_op] x^k = sum_i bracket_poly[i] k^i x^k
    bracket_poly: tuple[Fraction, ...]
    intrinsic: tuple[Fraction, Fraction, Fraction]  # (p*, c*, fg*) at alpha = 1, beta = 0

    @functools.cached_property
    def numerators(self) -> tuple[tuple, tuple, int]:
        """(S_1, S_2, S_3) and the energies as int numerators over one
        denominator, formed on first use."""
        nums, den = to_numerators(self.label_sums + self.energies)
        return tuple(nums[:3]), tuple(nums[3:]), den


def derive_case(space: MonomialSpace, k_src: int, k_dst: int) -> CaseData:
    """The data of the ladder x^k_src -> x^k_dst on a space of three monomials.

    Raises ``ValueError`` unless the space has three exponents and both
    ladder ends are among them with k_src < k_dst.
    """
    exponents = space.exponents
    if len(exponents) != 3 or not k_src < k_dst or k_src not in space or k_dst not in space:
        raise ValueError(
            f"a case needs three exponents and a ladder k_src < k_dst between two "
            f"of them, got {list(exponents)} and {k_src} -> {k_dst}"
        )
    step, k_mid = k_dst - k_src, exponents[1]
    label = dict(zip(exponents, (-1, 0, 1)))
    # step * e(M) at the raised label, the source label and the third label
    d, s, o = k_dst - k_mid, k_src - k_mid, sum(exponents) - k_src - k_dst - k_mid
    raise_op = _ladder(exponents, k_src, k_dst)
    lower_op = _ladder(exponents, k_dst, k_src)
    # [raise, lower] has shift 0 only, and its k^3 coefficient is -4 * shift
    # times the k^2 coefficients of the two ladders, so it is always cubic
    bracket = raise_op.commutator(lower_op)
    poly, den = _shift_polynomials(bracket._num)[0], bracket._den  # Q(k) = poly(k) / den
    # the intrinsic point: fg* Q(k) = t^3 + p* t + r at t = (k - k_mid)/step + c*
    _, b1, b2, b3 = poly
    return CaseData(
        space=space,
        q=label[k_dst] - label[k_src],
        two_m1=2 * label[k_src],
        step=step,
        k_mid=k_mid,
        a=Fr(exponents[0] + exponents[2] - 2 * k_mid, 2 * step),
        energies=(Fr(d, step), Fr(s, step), Fr(o, step)),
        label_sums=tuple(Fr(d ** n + s ** n - 2 * o ** n, step ** n) for n in (1, 2, 3)),
        raise_op=raise_op,
        lower_op=lower_op,
        bracket_poly=tuple(Fr(b, den) for b in poly),
        intrinsic=(Fr(3 * b1 * b3 - b2 * b2, 3 * step * step * b3 * b3),
                   Fr(b2 + 3 * k_mid * b3, 3 * step * b3), Fr(den, step ** 3 * b3)),
    )


class CaseId(Enum):
    """The paper's three ladder cases, each an exponent pair on {1, x, x^3}."""

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
    CaseId.CASE1: derive_case(V3, 0, 1),
    CaseId.CASE2: derive_case(V3, 1, 3),
    CaseId.CASE3: derive_case(V3, 0, 3),
}
_PRINTED_LABEL_CONST = {CaseId.CASE1: Fr(-3, 4), CaseId.CASE2: Fr(0), CaseId.CASE3: Fr(-1, 6)}


def build_case_realization(
    data: CaseData, f: Scalar, g: Scalar, c: Scalar
) -> tuple[DiffOp, DiffOp, DiffOp]:
    """The differential triple (diagonal, raising, lowering) of a ladder case.

    The diagonal operator is (1/step) x D + (c - k_mid/step), for the label
    ``c`` that ``reps.solve_case`` or ``reps.intrinsic_gamma_and_product`` gives.
    """
    (c,), den = to_numerators([as_scalar(c)])
    j0 = _lowest({(0, 0): num_sub(num_mul(c, data.step), data.k_mid * den), (1, 1): den},
                 data.step * den)
    return j0, data.raise_op if f == 1 else data.raise_op.scale(f), data.lower_op.scale(g)
