"""The relations of the cubic deformation of sl(2,R) on concrete matrices.

The deformed algebra is generated by a diagonal operator J0 and ladder
operators J+- with [J0, J+-] = +-J+- and [J+, J-] equal to a cubic polynomial
alpha*J0^3 + beta*J0^2 + gamma*J0 + delta; the classic algebra is the special
point (0, 0, 2, 0).  This module evaluates the relation residuals of a
concrete matrix triple and forms its Casimir element.  J0 must be diagonal
(every representation here is given in a weight basis), which
``MatrixTriple`` checks once; the relations then need no matrix products
beyond J+J- and J-J+, and the Casimir element none beyond J+J-, which the
triple forms once for both.

Each entry of a residual or of the Casimir element is computed on its own,
on the matrices' stored numerators (``Matrix`` keeps numerators over one
denominator, as ``DiffOp`` does), and a zero entry costs integer work only.
J0 is diagonal, so the entry x of J+- at (i, j) gives x*(h_i - h_j -+ 1) in
[J0, J+-] -+ J+-.  With the h_i as J0's numerators T_i over its denominator
H (``MatrixTriple.diagonal_numerators``), that is x*d/H for the numerator
d = T_i - T_j -+ H, and only a nonzero d gives an entry.  The bracket is
formed in one pass over the rows of J+J- and J-J+, each entry (a - b) - c
as the matrix expression forms it, on numerators over one common
denominator, with the cubic c kept as its numerators.  The polynomials in J0
on the diagonal (the bracket's cubic and the Casimir quartic) are evaluated
on numerators too: the parameters (``AlgebraParams.numerators``), the h_i and
the diagonal of J+J- are integers or integer coordinates over their
denominators, and one sum of products is formed per entry on those.  Every
result is a matrix of numerators over a common denominator, reduced once.
The products and sums come in the order of the matrix expression (Horner's
scheme in J0, the Casimir sum with J+J- first), with the same operand on the
left, and each partial result is the matrix expression's times a nonzero
integer, which neither creates nor cancels a radical.  So the values are
those of the matrix expressions, and a call raises ``ScalarDomainError``
exactly when they would: at an irrational ladder entry x, a ladder residual
forms the expression's h_i*x and x*h_j on numerators, so that they raise
where an h_i or h_j lies over another radicand.  Where several entries mix
radicands, which of them is named is not fixed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .matrices import Matrix
from .scalars import Scalar, as_scalar, num_add, num_mul, num_sub, to_numerators


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

    @functools.cached_property
    def numerators(self) -> tuple[tuple, int]:
        """(alpha, beta, gamma, delta) as numerators over one denominator
        (``scalars.to_numerators``), formed on first use."""
        nums, den = to_numerators((self.alpha, self.beta, self.gamma, self.delta))
        return tuple(nums), den


@dataclass(frozen=True)
class MatrixTriple:
    """Concrete matrices (J0, J+, J-) of one representation, in a basis where
    J0 is diagonal."""

    j0: Matrix
    jplus: Matrix
    jminus: Matrix

    def __post_init__(self):
        dims = {self.j0.dimension, self.jplus.dimension, self.jminus.dimension}
        if len(dims) != 1:
            raise ValueError(f"triple members differ in dimension: {sorted(dims)}")
        for i, row in enumerate(self.j0._rows):
            for j in row:
                if i != j:
                    raise ValueError(f"J0 must be diagonal, but its entry ({i}, {j}) is nonzero")

    @property
    def dimension(self) -> int:
        return self.j0.dimension

    @functools.cached_property
    def ladder_product(self) -> Matrix:
        """J+ J-, formed on first use; the bracket and the Casimir element share it."""
        return self.jplus @ self.jminus

    @functools.cached_property
    def diagonal_numerators(self) -> tuple[list, int]:
        """(T, H): the h_i as J0 stores them, numerators T_i over its
        denominator H; the relations and the Casimir element share them."""
        j0 = self.j0
        return [row.get(i, 0) for i, row in enumerate(j0._rows)], j0._den


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


def _cubic(nums: Sequence, h: int, params: AlgebraParams) -> tuple[list, int]:
    """alpha*t^3 + beta*t^2 + gamma*t + delta at each t = T/h, for the
    numerators T of ``nums``, undivided: the numerators and their common
    denominator.

    With the parameters A/p, B/p, G/p, D/p over common denominators, the value
    is ((T*A + B*h)*T + G*h^2)*T + D*h^3 over p*h^3: Horner's scheme on
    numerators, T on the left of A and on the right of each partial sum.
    """
    (a, b, g, d), p = params.numerators
    b, g, d = num_mul(b, h), num_mul(g, h * h), num_mul(d, h * h * h)
    return [num_add(num_mul(num_add(num_mul(num_add(num_mul(t, a), b), t), g), t), d)
            for t in nums], p * h * h * h


def _shift_residual(rep: MatrixTriple, ladder: Matrix, shift: int) -> Matrix:
    """[J0, L] - shift*L for a ladder L: shift 1 for J+, -1 for J-.

    J0 is diagonal, so the entry x of L at (i, j) gives x*(h_i - h_j - shift),
    which is x*d/H for d = T_i - T_j - shift*H on the diagonal numerators:
    L's numerator times d, over L's denominator times H.  An entry is zero,
    and left out, exactly when d is, so a zero entry costs integer work only.
    Where x is irrational, the products T_i*x and x*T_j are formed first, in
    that order, and dropped: they raise where the matrix expression's h_i*x
    and x*h_j do, when h_i, then h_j, lies over another radicand.  Where x is
    rational, those raise when h_i and h_j lie over two radicands, and so
    does T_i - T_j.
    """
    ts, h = rep.diagonal_numerators
    sh = shift * h
    rows = []
    for ti, row in zip(ts, ladder._rows):
        out = {}
        for j, x in row.items():
            tj = ts[j]
            if type(x) is tuple:
                num_mul(ti, x)
                num_mul(x, tj)
            d = num_sub(num_sub(ti, tj), sh)
            if d:
                out[j] = num_mul(x, d)
        rows.append(out)
    return Matrix._lowest(rows, ladder._den * h)


def _bracket_residual(rep: MatrixTriple, params: AlgebraParams) -> Matrix:
    """J+J- - J-J+ - cubic(J0), one row at a time.

    Each entry is (a - b) - c, as the matrix expression forms it: a and b
    the entries of the two products (a lone b enters as -b), c the cubic at
    h_i on the diagonal and 0 elsewhere; a zero entry is left out.  It is
    formed on numerators over the lcm of the products' denominators and the
    cubic's, so no entry builds a scalar.
    """
    product, other = rep.ladder_product, rep.jminus @ rep.jplus
    vs, den = _cubic(*rep.diagonal_numerators, params)
    m = math.lcm(product._den, other._den, den)
    fa, fb, fv = m // product._den, m // other._den, m // den
    rows = []
    for i, (ra, rb, v) in enumerate(zip(product._rows, other._rows, vs)):
        cols = ra.keys() | rb.keys()
        if v:
            cols.add(i)
        out = {}
        for j in sorted(cols):
            x = num_mul(ra[j], fa) if j in ra else 0
            if j in rb:
                x = num_sub(x, num_mul(rb[j], fb))
            if j == i and v:
                x = num_sub(x, num_mul(v, fv))
            if x:
                out[j] = x
        rows.append(out)
    return Matrix._lowest(rows, m)


def check_deformed_relations(rep: MatrixTriple, params: AlgebraParams) -> RelationResiduals:
    return RelationResiduals(
        raising=_shift_residual(rep, rep.jplus, 1),
        lowering=_shift_residual(rep, rep.jminus, -1),
        bracket=_bracket_residual(rep, params),
    )


def casimir_matrix(rep: MatrixTriple, params: AlgebraParams) -> Matrix:
    """The central element J+J- + (a/4)J0^4 + (b/3 - a/2)J0^3 + ... on this rep.

    J+J- is the one matrix product, the triple's ``ladder_product``; the
    quartic in J0 is added to its diagonal, one term after another, at each
    h_i.  With the parameters' numerators over p, the quartic's coefficients
    are C4 = 3A, C3 = 4B - 6A, C2 = 3A - 6B + 6G and C1 = 2B - 6G + 12D over
    12p, formed in the order of a/4, b/3 - a/2, a/4 - b/2 + g/2 and
    b/6 - g/2 + d.  With h_i = T/h and the numerators X of J+J- over q, each
    diagonal entry is X + S*S*C4 + S*T*C3 + S*C2 + T*C1 over
    den = lcm(q, 12p*h^4), S = T*T, where X and the C's are scaled to den once
    per call.
    """
    (a, b, g, d), p = params.numerators
    c4 = num_mul(a, 3)
    c3 = num_sub(num_mul(b, 4), num_mul(a, 6))
    c2 = num_add(num_sub(num_mul(a, 3), num_mul(b, 6)), num_mul(g, 6))
    c1 = num_add(num_sub(num_mul(b, 2), num_mul(g, 6)), num_mul(d, 12))
    product = rep.ladder_product
    q = product._den
    ts, h = rep.diagonal_numerators
    ph4 = 12 * p * h * h * h * h
    den = math.lcm(q, ph4)
    fx, f = den // q, den // ph4
    c4, c3, c2, c1 = (num_mul(c4, f), num_mul(c3, f * h), num_mul(c2, f * h * h),
                      num_mul(c1, f * h * h * h))
    xs = [row.get(i, 0) for i, row in enumerate(product._rows)]
    rows = []
    for i, (row, x, t) in enumerate(zip(product._rows, xs, ts)):
        s = num_mul(t, t)
        e = num_mul(x, fx)
        e = num_add(e, num_mul(num_mul(s, s), c4))
        e = num_add(e, num_mul(num_mul(s, t), c3))
        e = num_add(e, num_mul(s, c2))
        e = num_add(e, num_mul(t, c1))
        out = {j: num_mul(y, fx) for j, y in row.items() if j != i}
        if e:
            out[i] = e
            out = dict(sorted(out.items()))
        rows.append(out)
    return Matrix._lowest(rows, den)
