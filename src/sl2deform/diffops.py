"""Exact calculus of linear differential operators with monomial coefficients.

An operator is a finite sum of terms ``coeff * x^m * D^n`` with integer x-power
``m`` (negative allowed, e.g. the lowering operator (1/6x) D^2), nonnegative
derivative order ``n``, and exact scalar coefficients.  Composition normal
orders all derivatives to the right, so operator equality is term-by-term.

An operator is its terms, and it is evaluated on x^k directly: the term
x^m D^n sends x^k to ``k(k-1)...(k-n+1) x^(k+m-n)``, and its matrix on a
monomial space is read off those images' numerators, as integer rows that the
Lie closure probe brackets with no Matrix and :meth:`DiffOp.matrix_on_space`
divides by the denominator.  The terms of one exponent shift s = m - n carry
falling factorials of distinct degrees, each with leading coefficient 1, so an
operator vanishes on every monomial exactly when it has no terms.  An operator
identity therefore holds "intrinsically" (for every monomial, hence
independently of any chosen module) exactly when the two sides have the same
terms.  :meth:`DiffOp.symbolic_action` writes the per-shift polynomials in k
out, for reports; ``cases`` reads the bracket's cubic off their numerators.

An operator is stored as numerators over one positive denominator, in lowest
terms: an int per rational coefficient and the integer coordinates (p, q, d)
of p + q*sqrt(d) per irrational one (``scalars.to_numerators``).  Sums,
products, images, matrices and the probe's rank kernel are formed on the
numerators by the ``scalars.num_*`` functions, the same for every field, and
only they raise the ScalarDomainError of mixed radicands.
:attr:`DiffOp.terms` gives the coefficients back as Fraction and QuadExt
values.  Results in lowest terms by construction skip the
validating constructor (:meth:`DiffOp._of`).  A commutator, and each residual
of :func:`closure_check`, is formed on unreduced numerators and reduced once.
Over at most one radicand a commutator is one pass over the term pairs that
never forms the terms c1 c2 x^(m1+m2) D^(n1+n2) that the two products share
and that cancel; over two it is the two products and their difference, whose
clashes are the operator expression's (:func:`_commutator`).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .matrices import Matrix, row_product
from .scalars import (
    DIGITS,
    Scalar,
    as_scalar,
    digit_limit,
    from_numerator,
    num_add,
    num_div,
    num_gcd,
    num_mul,
    num_sub,
    parse_scalar,
    render_numerator,
    scalar_is_zero,
    sqrt_exact,
    to_numerator,
    to_numerators,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .algebra import AlgebraParams


class SpaceEscapeError(ValueError):
    """An operator was asked for its matrix on a space it does not preserve."""


def _falling(k: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= k - i
    return out


@functools.cache
def _falling_coefficients(n: int) -> tuple[int, ...]:
    """Coefficients of k(k-1)...(k-n+1) in powers of k, constant term first."""
    coeffs = [1]
    for i in range(n):  # times (k - i)
        coeffs = [a - i * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return tuple(coeffs)


def _products(acc: dict, left: dict, right: dict) -> dict:
    """Add the normal-ordered product of two operators' numerators into ``acc``,
    and return it.

    ``left`` and ``right`` map (m, n) to a numerator; each pair of terms
    forms c1 * c2 once, and the sums keep their order.  Zero sums are left
    in ``acc``.
    """
    for (m1, n1), c1 in left.items():
        for (m2, n2), c2 in right.items():
            c = num_mul(c1, c2)
            w = 1  # C(n1, i) * m2 (m2 - 1) ... (m2 - i + 1)
            for i in range(n1 + 1):
                if not w:
                    break
                key = (m1 + m2 - i, n1 + n2 - i)
                cw = num_mul(c, w)
                acc[key] = num_add(acc[key], cw) if key in acc else cw
                w = w * (n1 - i) * (m2 - i) // (i + 1)
    return acc


def _lowest(acc: dict, den: int) -> "DiffOp":
    """The operator {key: v / den} over the nonzero numerators v of ``acc``, in
    lowest terms."""
    num = _terms(acc)
    g = num_gcd(den, num.values())
    if g != 1:
        num = {key: num_div(v, g) for key, v in num.items()}
    return DiffOp._of(num, den // g)


def _sum(acc: dict, den: int, terms: dict, tden: int, sign: int = 1) -> tuple[dict, int]:
    """acc/den + sign * terms/tden on the numerators, over lcm(den, tden), unreduced.

    ``acc`` is updated in place and returned with the new denominator; each
    numerator of ``terms`` is added with ``acc``'s numerator on the left, in
    their order, as the sum of the two operators adds them term by term.
    """
    m = math.lcm(den, tden)
    f, t = m // den, m // tden * sign
    if f != 1:
        for key in acc:
            acc[key] = num_mul(acc[key], f)
    for key, v in terms.items():
        v = num_mul(v, t)
        acc[key] = num_add(acc[key], v) if key in acc else v
    return acc, m


def _terms(acc: dict) -> dict:
    """The nonzero numerators of ``acc`` by ascending key: the terms, and
    their order, of the operator ``_lowest`` would make of it."""
    return dict(sorted([(key, v) for key, v in acc.items() if v]))


def _commutator(a: "DiffOp", b: "DiffOp") -> tuple[dict, int]:
    """a . b - b . a on the numerators, over a._den * b._den, unreduced.

    Over at most one radicand no ``num_*`` call can raise, and the bracket
    is taken in one pass over the term pairs.  The pair x^m1 D^n1 and
    x^m2 D^n2 puts its i-th exchange term at (m1 + m2 - i, n1 + n2 - i) in
    both orders, with the weights w1 = C(n1, i) m2^(i falling) in a . b and
    w2 = C(n2, i) m1^(i falling) in b . a.  So the i = 0 terms, c1 c2 in
    both, cancel and are not formed, and for i >= 1 only c1 c2 (w1 - w2) is
    added, when it is nonzero; a weight that reaches 0 stays 0, and the
    pair is done once both have.  The sums are exact, so they are the
    expression's.

    Over two or more radicands a clash may lie in terms that cancel, so
    each product gets its own accumulator, a . b first, and the terms of
    b . a are subtracted from a . b's in ascending key order.  A zero sum
    meets nothing it could clash with, so each product and the difference
    form the sums, and raise the ScalarDomainError, of the operator expression
    a . b - b . a; one shared accumulator would form sums it never forms.
    """
    left, right = a._num, b._num
    if len({v[2] for num in (left, right) for v in num.values() if type(v) is not int}) > 1:
        ab = _products({}, left, right)
        for key, v in sorted(_products({}, right, left).items()):
            ab[key] = num_sub(ab.get(key, 0), v)
        return ab, a._den * b._den
    acc: dict = {}
    for (m1, n1), c1 in left.items():
        for (m2, n2), c2 in right.items():
            w1, w2 = n1 * m2, n2 * m1
            if not (w1 or w2):
                continue
            c = num_mul(c1, c2)
            m, n, i = m1 + m2, n1 + n2, 1
            while w1 or w2:
                if w1 != w2:
                    key = (m - i, n - i)
                    cw = num_mul(c, w1 - w2)
                    acc[key] = num_add(acc[key], cw) if key in acc else cw
                w1 = w1 * (n1 - i) * (m2 - i) // (i + 1)
                w2 = w2 * (n2 - i) * (m1 - i) // (i + 1)
                i += 1
    return acc, a._den * b._den


def _require_diffop(other, method: str) -> None:
    """TypeError unless ``other``, the operand of DiffOp.``method``, is a DiffOp."""
    if not isinstance(other, DiffOp):
        raise TypeError(f"DiffOp.{method} needs a DiffOp, not {type(other).__name__}")


def _shift_polynomials(num: dict) -> dict[int, list]:
    """{shift: numerators of P_s in powers of k, constant first} of the operator
    with numerators ``num``, over its denominator (:meth:`DiffOp.symbolic_action`)."""
    per_shift: dict[int, list] = {}
    for (m, n), v in num.items():
        ff = _falling_coefficients(n)
        poly = per_shift.setdefault(m - n, [])
        poly.extend([0] * (len(ff) - len(poly)))
        for i, f in enumerate(ff):
            if f:
                poly[i] = num_add(poly[i], num_mul(v, f))
    return per_shift


def _matrix_rows(op: "DiffOp", space: "MonomialSpace") -> list[dict]:
    """The rows {column: nonzero numerator} of op's matrix on ``space`` times
    ``op._den``, columns ascending; SpaceEscapeError where a nonzero sum
    leaves the space."""
    pos = {e: i for i, e in enumerate(space.exponents)}
    rows: list[dict] = [{} for _ in pos]
    for col, k in enumerate(space.exponents):
        for e, v in op._image_numerators(k).items():
            if v:
                if e not in pos:
                    raise SpaceEscapeError(f"operator does not preserve the space {space.exponents}")
                rows[pos[e]][col] = v
    return rows


class DiffOp:
    """Normal-ordered linear differential operator with monomial coefficients."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[tuple[int, int], object] = ()):
        keys, values = [], []
        for (m, n), c in terms.items() if isinstance(terms, Mapping) else terms:
            if type(m) is not int or type(n) is not int:
                raise ValueError(f"term exponents must be ints, got {(m, n)!r}")
            if n < 0:
                raise ValueError("derivative order must be nonnegative")
            keys.append((m, n))
            values.append(as_scalar(c))
        nums, den = to_numerators(values)
        acc: dict = {}
        for key, v in zip(keys, nums):
            acc[key] = num_add(acc[key], v) if key in acc else v
        op = _lowest(acc, den)
        object.__setattr__(self, "_den", op._den)
        object.__setattr__(self, "_num", op._num)

    def __setattr__(self, *_):
        raise AttributeError("DiffOp is immutable")

    @property
    def terms(self) -> Mapping[tuple[int, int], Scalar]:
        """The coefficients, read-only: keys ascending, values Fraction or QuadExt."""
        den = self._den
        return MappingProxyType({key: from_numerator(v, den) for key, v in self._num.items()})

    @classmethod
    def _of(cls, num: dict[tuple[int, int], object], den: int) -> "DiffOp":
        """An operator from numerators over ``den`` in the form ``__init__`` leaves, unchecked.

        Trusted: ``num`` is sorted by key and holds no zero, each numerator is
        an int or the coordinates (p, q, d) of an irrational one, ``den`` is
        positive, and all are in lowest terms (``__eq__`` and ``__hash__`` rely
        on it).
        """
        out = object.__new__(cls)
        object.__setattr__(out, "_num", num)
        object.__setattr__(out, "_den", den)
        return out

    # -- arithmetic -------------------------------------------------------------
    def scale(self, s) -> "DiffOp":
        s = as_scalar(s)
        if scalar_is_zero(s):
            return DiffOp()
        (s_num,), s_den = to_numerators([s])
        return _lowest({key: num_mul(v, s_num) for key, v in self._num.items()},
                       self._den * s_den)

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Operator product self . other, normal ordered.

        Derivatives exchange past powers by D^n x^m = sum_i C(n,i) m(m-1)..(m-i+1)
        x^(m-i) D^(n-i); the falling factorial also handles negative m.  The
        product is formed on the numerators, over the product of the two
        denominators, and reduced by one gcd, whatever the field.  An
        ``other`` that is not a DiffOp raises TypeError.
        """
        _require_diffop(other, "compose")
        acc = _products({}, self._num, other._num)
        return _lowest(acc, self._den * other._den)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        """self . other - other . self, formed on the numerators over the
        product of the denominators and reduced once (:func:`_commutator`).
        Over one field it is one pass over the term pairs that forms none of
        the i = 0 exchange terms, which cancel; over two radicands it is two
        products and a difference, so a ScalarDomainError of mixed radicands
        is the one of the operator expression, two compositions and their
        difference.  An ``other`` that is not a DiffOp raises TypeError."""
        _require_diffop(other, "commutator")
        return _lowest(*_commutator(self, other))

    # -- action -----------------------------------------------------------------
    def _image_numerators(self, k: int) -> dict[int, object]:
        """The image of x^k times ``_den``, {exponent: sum}, zero sums kept."""
        out: dict[int, object] = {}
        for (m, n), v in self._num.items():
            w = _falling(k, n)
            if w:
                e = k + m - n
                vw = num_mul(v, w)
                out[e] = num_add(out[e], vw) if e in out else vw
        return out

    def symbolic_action(self) -> dict[int, tuple[Scalar, ...]]:
        """The action on x^k with k left indeterminate, for display.

        Maps each shift s = m - n to the coefficients, in powers of k, of the
        polynomial P_s with self x^k = sum_s P_s(k) x^(k+s).  Within a shift
        the falling factorials have distinct degrees and leading coefficient
        1, so a nonzero operator has a nonzero P_s for each shift it uses.
        """
        per_shift = _shift_polynomials(self._num)
        return {s: tuple([from_numerator(v, self._den) for v in per_shift[s]])
                for s in sorted(per_shift)}

    # -- module interaction -------------------------------------------------------
    def preserves_space(self, space: "MonomialSpace") -> bool:
        """Whether every monomial of ``space`` is sent into ``space``."""
        members = set(space.exponents)
        return all(e in members for k in space.exponents
                   for e, v in self._image_numerators(k).items() if v)

    def matrix_on_space(
        self, space: "MonomialSpace", norm_squares: Optional[Sequence] = None
    ) -> Matrix:
        """Matrix in the basis x^e of ``space``, which must be preserved.

        With ``norm_squares`` the basis vector i is sqrt(norm_squares[i]) * x^e_i;
        each entry picks up sqrt(N_col / N_row), taken exactly per entry so no
        shared quadratic extension is ever needed.
        """
        rows = _matrix_rows(self, space)
        if norm_squares is None:
            return Matrix._lowest(rows, self._den)
        ns = [Fraction(x) for x in norm_squares]
        entries = {}
        for r, row in enumerate(rows):
            for c, v in row.items():
                x, q = to_numerator(sqrt_exact(ns[c] / ns[r]))
                entries[(r, c)] = num_mul(v, x), self._den * q
        return Matrix.from_numerators(space.dimension, entries)

    # -- identity ------------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._den, tuple(self._num.items())))

    def __repr__(self):
        return f"DiffOp({self.to_text()!r})"

    # -- text format -----------------------------------------------------------------
    def to_text(self) -> str:
        """Render as e.g. ``1/3 * x^3 * D^2 - 1 * x^2 * D^1 + 1 * x^1 * D^0``."""
        num, den = self._num, self._den
        if not num:
            return "0"
        return _joined([_term(_coefficient(num[(m, n)], den), m, n)
                        for n, m in sorted([(n, m) for m, n in num], reverse=True)])


def _coefficient(v, den: int) -> str:
    """The signed text of the coefficient v / den of one term, e.g. ``+ 1/3``,
    ``- 2`` or ``+ (-1 + 1*sqrt(2))``."""
    if type(v) is not int:
        return f"+ ({render_numerator(v, den)})"
    if den == 1:
        return f"- {-v}" if v < 0 else f"+ {v}"
    g = math.gcd(v, den)
    value = f"{'-' if v < 0 else '+'} {abs(v) // g}"
    return value if g == den else f"{value}/{den // g}"


def _term(coefficient: str, m: int, n: int) -> str:
    """One term of the operator text format, led by its signed coefficient."""
    return f" {coefficient} * x^{m} * D^{n}"


def _joined(pieces: list[str]) -> str:
    """An operator's text from its term pieces, highest order first: the first
    piece's ``+`` is dropped and its ``-`` closed up to the number."""
    text = "".join(pieces)
    return "-" + text[3:] if text[1] == "-" else text[3:]


_TERM_RE = re.compile(
    rf"^\s*(?P<coeff>\(.*\)|[^*]*?)\s*\*\s*x\^(?P<m>-?{DIGITS})\s*\*\s*D\^(?P<n>{DIGITS})\s*$"
)


def parse_diffop(text: str) -> DiffOp:
    """Parse the operator text format produced by :meth:`DiffOp.to_text`."""
    text = text.strip()
    if text == "0":
        return DiffOp()
    # split on top-level +/- (not inside parentheses, not at position 0, and not
    # the sign of an exponent as in "x^-1")
    pieces: list[str] = []
    signs: list[int] = []
    depth = 0
    start = 0
    sign = 1
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > start:
            prev = text[:i].rstrip()
            if prev.endswith("^"):
                continue
            pieces.append(text[start:i])
            signs.append(sign)
            sign = 1 if ch == "+" else -1
            start = i + 1
    pieces.append(text[start:])
    signs.append(sign)
    if text.startswith("-"):
        signs[0] = -1
        pieces[0] = pieces[0].lstrip("-").strip()
    terms: list[tuple[tuple[int, int], Scalar]] = []
    for sgn, piece in zip(signs, pieces):
        m = _TERM_RE.match(piece)
        if not m:
            raise ValueError(f"cannot parse operator term {piece!r}")
        coeff_text = m.group("coeff").strip()
        if coeff_text.startswith("("):
            coeff_text = coeff_text[1:-1]
        coeff = parse_scalar(coeff_text) if coeff_text else Fraction(1)
        if sgn < 0:
            (v,), den = to_numerators((coeff,))
            coeff = from_numerator(num_mul(v, -1), den)
        terms.append(((int(m.group("m")), int(m.group("n"))), coeff))
    return DiffOp(terms)


@dataclass(frozen=True)
class MonomialSpace:
    """Span of one or more monomials x^e, e a strictly increasing exponent list."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(self.exponents)
        if not exps:
            raise ValueError("a monomial space needs at least one exponent")
        if list(exps) != sorted(set(exps)) or any(e < 0 for e in exps):
            raise ValueError("exponents must be distinct, sorted and nonnegative")
        object.__setattr__(self, "exponents", exps)

    @property
    def dimension(self) -> int:
        return len(self.exponents)

    def __contains__(self, e: int) -> bool:
        return e in self.exponents


#: The module spanned by 1, x and x^3 on which the three ladder cases live.
V3 = MonomialSpace((0, 1, 3))


# -- closure checking ---------------------------------------------------------------


@dataclass(frozen=True)
class ClosureReport:
    """Residuals of the deformed commutation relations for a differential triple."""

    mode: str                                  # "intrinsic" or "on-space"
    passed: bool
    residuals: tuple[tuple[str, DiffOp], ...]

    @classmethod
    def judge(
        cls,
        residuals: tuple[tuple[str, DiffOp], ...],
        space: Optional[MonomialSpace],
    ) -> "ClosureReport":
        """The verdict on residual operators, on ``space`` or, with None, intrinsically."""
        if space is None:
            passed = all(op.is_zero() for _, op in residuals)
            return cls(mode="intrinsic", passed=passed, residuals=residuals)
        passed = not any(any(op._image_numerators(k).values())
                         for _, op in residuals for k in space.exponents)
        return cls(mode="on-space", passed=passed, residuals=residuals)


def closure_check(
    triple: tuple[DiffOp, DiffOp, DiffOp],
    params: "AlgebraParams",
    space: Optional[MonomialSpace] = None,
) -> ClosureReport:
    """Check the ladder and cubic-bracket relations for a differential triple.

    ``space=None`` demands the relations as operator identities (every
    residual the zero operator); with a space they only need to hold on the
    listed monomials.  ``ClosureReport.judge`` gives the other verdict on the
    same residuals without building them again.

    Everything is formed on unreduced numerators, and each residual is
    reduced once.  The bracket's right-hand side F(J0) comes first, by
    Horner's scheme, ((alpha J0 + beta) J0 + gamma) J0 + delta, with the
    parameters as numerators over one denominator; then [J0, J+] - J+,
    [J0, J-] + J- and [J+, J-] - F(J0).  These are the sums and products of
    that operator expression, each step an operator in lowest terms, in its
    order and with the same left operands; only the reductions between the
    steps are left out, and, in a commutator of two operators over at most
    one radicand, the terms of its two products that cancel: the i = 0
    exchange terms c1 c2 x^(m1+m2) D^(n1+n2) of each term pair, and the
    exchange terms of equal weight in both orders (:func:`_commutator`).
    Over one field no sum of a commutator can raise, and over two it forms
    the expression's products.  Each partial result is the reduced one times a
    nonzero integer, so the residuals, and any ScalarDomainError, are theirs.
    """
    j0, jp, jm = triple
    (a, b, g, d), p = params.numerators
    n0, h = j0._num, j0._den
    one = (0, 0)
    rhs, den = _sum({key: num_mul(v, a) for key, v in n0.items()}, h * p, {one: b}, p)
    rhs, den = _sum(_products({}, _terms(rhs), n0), den * h, {one: g}, p)
    rhs, den = _sum(_products({}, _terms(rhs), n0), den * h, {one: d}, p)
    rhs = _terms(rhs)
    residuals = (
        ("raising", _lowest(*_sum(*_commutator(j0, jp), jp._num, jp._den, -1))),
        ("lowering", _lowest(*_sum(*_commutator(j0, jm), jm._num, jm._den))),
        ("bracket", _lowest(*_sum(*_commutator(jp, jm), rhs, den, -1))),
    )
    return ClosureReport.judge(residuals, space)


# -- preserving operators -------------------------------------------------------------


#: Largest accepted (max_order + 1) * window width * dimension, the size of
#: the dense preservation system.  It bounds the per-shift blocks and the
#: basis size alike.  The slowest accepted inputs found, (0,) and (3,) at
#: order 198, take about 0.22 s through the CLI in-process, nearly all of it
#: solving and writing their bases of 79,198 operators as text; the dense
#: 0..29 at order 29 takes about 0.012 s (2-vCPU VM, Python 3.11).
MAX_ENUMERATION_SIZE = 80_000


def _canonical(vec: dict, pc) -> dict:
    """The multiple of a sparse row of numerators that the span keeps, ``pc``
    being its pivot key: coprime integer coordinates and a positive int pivot.

    An irrational pivot (p, q, d) is first made its integer norm, the row
    multiplied by (p, -q, d).  This is the one rational multiple of that form
    on the row's line, whatever nonzero multiple of it, over Q or Q(sqrt(d)),
    comes in, and it keeps the coordinates small with no division.
    """
    p = vec[pc]
    if type(p) is not int:
        vec = {key: num_mul(v, (p[0], -p[1], p[2])) for key, v in vec.items()}
    g = num_gcd(0, vec.values())
    if vec[pc] < 0:
        g = -g
    return vec if g == 1 else {key: num_div(v, g) for key, v in vec.items()}


def _cross(p: int, a: dict, f, b: dict) -> dict:
    """The sparse row p*a - f*b of numerators, its zeros left out; p is a
    kept pivot, a positive int, and f is nonzero."""
    out = dict(a) if p == 1 else {key: num_mul(p, v) for key, v in a.items()}
    for key, v in b.items():
        w = num_sub(out.get(key, 0), num_mul(f, v))
        if w:
            out[key] = w
        else:
            del out[key]
    return out


def _bracket(a: list[dict], b: list[dict]) -> list[dict]:
    """AB - BA of two matrices given as rows {column: nonzero numerator},
    columns ascending, in that form.  AB and then BA are formed whole by ``Matrix @``'s
    :func:`~sl2deform.matrices.row_product`, and BA's nonzero entries are
    subtracted from AB's row by row, columns ascending: any ScalarDomainError
    is raised by a product or by that difference, in this order.
    """
    out = []
    for ab, ba in zip(row_product(a, b), row_product(b, a)):
        for j, y in sorted(ba.items()):
            if y:
                ab[j] = num_sub(ab.get(j, 0), y)
        out.append({j: ab[j] for j in sorted(ab) if ab[j]})
    return out


def _matrix_span_row(rows: list[dict]) -> dict:
    """Matrix rows {column: nonzero numerator} as one span row keyed (i, j)."""
    return {(i, j): x for i, r in enumerate(rows) for j, x in r.items()}


class _ExactSpan:
    """Incremental exact row space of sparse rows, reduced and fraction-free.

    A row is a dict {key: nonzero entry}, keys being any comparable columns,
    and the span keeps each of its rows under its pivot, the row's least key.
    Each kept row is zero in every other row's pivot and left of its own, so
    it is a nonzero multiple of the unique reduced row echelon form row of
    the span, whatever the insertion order.  Rows are combined by
    cross-multiplication, ``p*a - f*b`` with p the pivot of one row and f the
    other row's entry at that key, which needs no division and works over any
    integral domain (Bareiss, Math. Comp. 22, 1968).  Entries are numerators,
    an int or the coordinates (p, q, d) of p + q*sqrt(d), combined by the
    ``scalars.num_*`` functions, and every kept row is the coprime multiple
    with a positive int pivot (:func:`_canonical`), over Q and Q(sqrt(d))
    alike.  Only :func:`lie_closure_probe` uses it, for rank and membership.
    """

    def __init__(self):
        self.rows: dict = {}  # pivot key -> row

    def _reduce(self, vec: dict) -> dict:
        # a kept row is zero in every other pivot, so the pivots a combination
        # leaves nonzero are those of the input row
        rows = self.rows
        for pc in [key for key in vec if key in rows]:
            row = rows[pc]
            vec = _cross(row[pc], vec, vec[pc], row)
        return vec

    def contains(self, vec: dict) -> bool:
        return not self._reduce(vec)

    def add(self, vec: dict) -> bool:
        """Insert if independent; returns True when the span grew."""
        red = self._reduce(vec)
        if not red:
            return False
        pc = min(red)
        red = _canonical(red, pc)
        p = red[pc]
        rows = self.rows
        for key, row in rows.items():
            f = row.get(pc)
            if f:
                rows[key] = _canonical(_cross(p, row, f, red), key)
        rows[pc] = red
        return True

    @property
    def dimension(self) -> int:
        return len(self.rows)


def _null_vectors(a: int, w: int, escaping: Sequence[int]) -> list[list[tuple[int, int]]]:
    """Null vectors of one preservation block, one per free column, ascending.

    Column i of the block is the term order n = a + i, and an escaping
    exponent k gives the row (k^(a+i falling))_(i<w).  Since k^(a+i falling)
    = k^(a falling) (k - a)^(i falling), a row with k < a is zero, and the
    others are the falling-factorial basis t^(i falling) at the r distinct
    points x = k - a.  So c is a null vector exactly when sum_i c_i
    t^(i falling) is a multiple of W(t) = prod (t - x): none when r >= w, and
    otherwise the pivots are the first r columns and the RREF vector of free
    column f is t^(f falling) - (t^(f falling) mod W).  W is monic, so that
    vector has integer entries and the entry 1 at f; it is coprime, and is
    given as its nonzero (column, entry) pairs, negated if its first entry is
    negative.  Polynomials are kept in the falling-factorial basis, constant
    term first, where t^(j falling) (t - i) = t^(j+1 falling) + (j - i) t^(j falling).
    """
    points = [k - a for k in escaping if k >= a]
    r = len(points)
    if r >= w:
        return []
    monic = [1]  # W
    for x in points:
        monic = [p + (j - x) * c for j, (p, c) in enumerate(zip([0] + monic, monic + [0]))]
    rem = [-c for c in monic[:r]]  # t^(r falling) mod W
    vectors = []
    for f in range(r, w):
        vec = [(j, -c) for j, c in enumerate(rem) if c] + [(f, 1)]
        vectors.append(vec if vec[0][1] > 0 else [(j, -c) for j, c in vec])
        # times (t - f), then the t^(r falling) term reduced by W
        top = rem[-1] if r else 0
        rem = [p + (j - f) * c - top * m
               for j, (p, c, m) in enumerate(zip([0] + rem, rem, monic))]
    return vectors


def _preserving_terms(
    space: MonomialSpace, max_order: int
) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """The basis of :func:`enumerate_preserving_operators` as plain integers.

    Each basis operator is its shift s = m - n and its terms, the pairs
    (n, coefficient) with n ascending, the term of order n being
    coefficient * x^(s+n) * D^n.  Inputs over :data:`MAX_ENUMERATION_SIZE`
    raise ValueError before any work.

    A term x^m D^n sends x^k only to x^(k+s), so the system splits into one
    block per shift with at most max_order + 1 unknowns.  A block depends
    on the shift only through its derivative range and the exponents it
    sends out of the space, so shifts that agree in both share one
    solution; nothing is kept from one call to the next.  Each block's null
    vectors are the RREF ones, in closed form (:func:`_null_vectors`),
    ordered by their free term in (n, m) order, so the basis is that of the
    dense system.  Each vector is coprime integers with a positive first entry.
    """
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    lo, hi = -max_order, max(space.exponents) + max_order
    size = (max_order + 1) * (hi - lo + 1) * space.dimension
    if size > MAX_ENUMERATION_SIZE:
        with digit_limit("the size of the preservation system"):
            message = (
                f"(max_order + 1) * window * dimension = {size} exceeds "
                f"{MAX_ENUMERATION_SIZE}"
            )
        raise ValueError(message)
    members = set(space.exponents)
    # the block of shift s is fixed by its derivative range [a, b] and the
    # exponents it sends out of the space, so each distinct block is solved
    # once; column i of a null vector is the term of order a + i
    blocks: dict[tuple, list[tuple[tuple[int, int], ...]]] = {}
    found = []
    for s in range(lo - max_order, hi + 1):
        a, b = max(0, lo - s), min(max_order, hi - s)
        escaping = tuple([k for k in space.exponents if k + s not in members])
        vectors = blocks.get((a, b, escaping))
        if vectors is None:
            vectors = blocks[(a, b, escaping)] = [
                tuple([(a + i, v) for i, v in vec])
                for vec in _null_vectors(a, b - a + 1, escaping)
            ]
        for terms in vectors:
            free_n = terms[-1][0]
            # the free term (n, m) is one basis operator's alone
            found.append((free_n, s + free_n, s, terms))
    found.sort()
    return [(s, terms) for _, _, s, terms in found]


def enumerate_preserving_operators(
    space: MonomialSpace, max_order: int
) -> list[DiffOp]:
    """Basis of the operators sum c_(m,n) x^m D^n, n <= max_order, preserving the space.

    The x-power window is [-max_order, max(exponents) + max_order]; preservation
    is the exact linear condition that every image exponent outside the space
    (negative ones included) carries a zero total coefficient.  The basis spans
    the whole windowed solution space, the identity and the operators that
    annihilate every basis monomial included, so its length is the dimension
    of that space, not a number of generators.

    The basis is solved block by block in closed form
    (:func:`_preserving_terms`), and each operator is built from its integer
    terms over the denominator 1.  The operators are for callers that compute
    with them, such as :func:`lie_closure_probe`; ``enumerate-preserving``
    writes its report with :func:`preserving_basis_text` and builds no DiffOp.
    """
    return [DiffOp._of({(s + n, n): v for n, v in terms}, 1)
            for s, terms in _preserving_terms(space, max_order)]


def preserving_basis_text(space: MonomialSpace, max_order: int) -> list[str]:
    """``[op.to_text() for op in enumerate_preserving_operators(space, max_order)]``,
    written straight from the blocks' integer terms (:func:`_preserving_terms`)
    with no DiffOp.

    Each operator is its terms' pieces for its own shift, highest order
    first, with the coefficient text, term piece and leading-sign rule of
    :meth:`DiffOp.to_text`.  The size guard, and its ValueError, are
    :func:`_preserving_terms`'s.
    """
    return [_joined([_term(_coefficient(v, 1), s + n, n) for n, v in reversed(terms)])
            for s, terms in _preserving_terms(space, max_order)]


# -- Lie closure probing -----------------------------------------------------------------


@dataclass(frozen=True)
class LieClosureReport:
    closed_as_operators: bool
    failing_pairs: tuple[tuple[int, int], ...]
    matrix_lie_span_dimension: int
    rounds_used: int


def lie_closure_probe(ops: Sequence[DiffOp], space: MonomialSpace) -> LieClosureReport:
    """Probe whether pairwise brackets of ``ops`` stay inside their span.

    Operator level: each commutator must lie in span(ops) extended by x^i D^i,
    i <= 3, which span the polynomials of degree <= 3 in x*D ((xD)^i is x^i D^i
    plus lower x^j D^j), i.e. closure is granted even up to a cubic
    deformation.  Matrix level: the Lie algebra that the operators' matrices
    generate on the space is saturated and its dimension reported.  It is
    spanned by the left-normed brackets [g1, [g2, ... gk]] of independent
    generators (Jacobi), so the generators are bracketed pairwise once and
    each bracket the span keeps then with the generators only, first in,
    first out.  ``rounds_used`` is the bracket depth at which the span stops
    growing, the least k with D_k = D_(k+1) for D_1 = span(mats) and
    D_(k+1) = D_k + [mats, D_k]; 1 when the matrices alone span it.

    Every commutator is traceless (tr AB = tr BA), so the saturated span lies
    in span(mats) + sl(n): its dimension is at most n^2 - 1, or n^2 when some
    matrix has a nonzero trace.  Once the span reaches that bound no bracket
    can add to it: saturation stops there.  Rank and membership do not change
    under nonzero scaling, so each operator bracket is taken as its
    unreduced numerators (:func:`_commutator`, over one field one pass over
    the term pairs that skips the terms its two products cancel), each
    matrix times its operator's denominator, as rows read off the numerators
    (:func:`_matrix_rows`), and the matrices are bracketed as rows
    (:func:`_bracket`).  The span takes each matrix as its nonzero entries
    keyed (i, j), and each operator as its numerators keyed (m, n).
    """
    ops = list(ops)
    # _matrix_rows raises SpaceEscapeError for an operator leaving the space
    mats = [_matrix_rows(op, space) for op in ops]
    pairs = [(i, j) for i in range(len(ops)) for j in range(i + 1, len(ops))]
    brackets = [_terms(_commutator(ops[i], ops[j])[0]) for i, j in pairs]
    # a positive multiple of an operator spans the same line; x^i D^i is {(i, i): 1}
    span = _ExactSpan()
    for row in [op._num for op in ops] + [{(i, i): 1} for i in range(4)]:
        span.add(row)
    failing = tuple(pair for pair, br in zip(pairs, brackets) if not span.contains(br))

    n = space.dimension
    # every bracket is traceless, so the span saturates inside span(mats) +
    # sl(n), of dimension n^2 - 1, or n^2 once some matrix has a trace
    bound = n * n - 1
    mspan = _ExactSpan()
    gens: list[list[dict]] = []
    for mat in mats:
        if functools.reduce(num_add, [row.get(i, 0) for i, row in enumerate(mat)], 0):
            bound = n * n
        if mspan.add(_matrix_span_row(mat)):
            gens.append(mat)
    # the worklist of (generator, kept matrix, depth of their bracket) grows
    # as it is read, so the depths never decrease
    depth = 1
    work = [(a, b, 2) for i, a in enumerate(gens) for b in gens[i + 1:]]
    for a, b, k in work:
        if mspan.dimension == bound:
            break
        br = _bracket(a, b)
        if mspan.add(_matrix_span_row(br)):
            depth = k
            work.extend((g, br, k + 1) for g in gens)
    return LieClosureReport(
        closed_as_operators=not failing,
        failing_pairs=failing,
        matrix_lie_span_dimension=mspan.dimension,
        rounds_used=depth,
    )
