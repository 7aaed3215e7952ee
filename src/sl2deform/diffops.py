"""Exact calculus of linear differential operators with monomial coefficients.

An operator is a finite sum of terms ``coeff * x^m * D^n`` with integer x-power
``m`` (negative allowed, e.g. the lowering operator (1/6x) D^2), nonnegative
derivative order ``n``, and exact scalar coefficients.  Composition normal
orders all derivatives to the right, so operator equality is term-by-term.

An operator is its terms, and it is evaluated on x^k directly: the term
x^m D^n sends x^k to ``k(k-1)...(k-n+1) x^(k+m-n)`` (:meth:`DiffOp.image`), and
its matrix on a monomial space is read off those images.  The terms of one
exponent shift s = m - n carry falling factorials of distinct degrees, each
with leading coefficient 1, so an operator vanishes on every monomial exactly
when it has no terms.  An operator identity therefore holds "intrinsically"
(for every monomial, hence independently of any chosen module) exactly when
the two sides have the same terms.  :meth:`DiffOp.symbolic_action` writes the
per-shift polynomials in k out, for reports only.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .matrices import Matrix
from .scalars import (
    QuadExt,
    Scalar,
    as_scalar,
    parse_scalar,
    render_scalar,
    scalar_is_zero,
    sqrt_exact,
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


class DiffOp:
    """Normal-ordered linear differential operator with monomial coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], object] = ()):
        canon: dict[tuple[int, int], Scalar] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (m, n), c in items:
            if n < 0:
                raise ValueError("derivative order must be nonnegative")
            c = as_scalar(c)
            if (m, n) in canon:
                c = canon[(m, n)] + c
            if scalar_is_zero(c):
                canon.pop((m, n), None)
            else:
                canon[(m, n)] = c
        object.__setattr__(self, "terms", dict(sorted(canon.items())))

    def __setattr__(self, *_):
        raise AttributeError("DiffOp is immutable")

    # -- constructors ---------------------------------------------------------
    @classmethod
    def identity(cls) -> "DiffOp":
        return cls({(0, 0): Fraction(1)})

    @classmethod
    def x_power(cls, m: int) -> "DiffOp":
        return cls({(m, 0): Fraction(1)})

    @classmethod
    def derivative(cls, n: int = 1) -> "DiffOp":
        return cls({(0, n): Fraction(1)})

    @classmethod
    def euler(cls) -> "DiffOp":
        """x * D, the degree operator on monomials."""
        return cls({(1, 1): Fraction(1)})

    # -- ring structure ---------------------------------------------------------
    def __add__(self, other: "DiffOp") -> "DiffOp":
        merged = dict(self.terms)
        return DiffOp(list(merged.items()) + list(other.terms.items()))

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + other.scale(Fraction(-1))

    def __neg__(self) -> "DiffOp":
        return self.scale(Fraction(-1))

    def scale(self, s) -> "DiffOp":
        s = as_scalar(s)
        if scalar_is_zero(s):
            return DiffOp()
        return DiffOp({key: c * s for key, c in self.terms.items()})

    def __mul__(self, s):
        return self.scale(s)

    __rmul__ = __mul__

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Operator product self . other, normal ordered.

        Derivatives exchange past powers by D^n x^m = sum_i C(n,i) m(m-1)..(m-i+1)
        x^(m-i) D^(n-i); the falling factorial also handles negative m.
        """
        acc: dict[tuple[int, int], Scalar] = {}
        for (m1, n1), c1 in self.terms.items():
            for (m2, n2), c2 in other.terms.items():
                for i in range(n1 + 1):
                    w = math.comb(n1, i) * _falling(m2, i)
                    if w == 0:
                        continue
                    key = (m1 + m2 - i, n1 + n2 - i)
                    cur = acc.get(key, Fraction(0))
                    acc[key] = cur + c1 * c2 * w
        return DiffOp(acc)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other) - other.compose(self)

    def __pow__(self, exponent: int) -> "DiffOp":
        if exponent < 0:
            raise ValueError("negative operator powers are not defined")
        out = DiffOp.identity()
        for _ in range(exponent):
            out = out.compose(self)
        return out

    # -- action -----------------------------------------------------------------
    def image(self, k: int) -> dict[int, Scalar]:
        """Exact image of x^k, {exponent: nonzero coefficient}.

        The term c x^m D^n sends x^k to c k!/(k-n)! x^(k+m-n); a negative
        exponent is kept like any other.
        """
        out: dict[int, Scalar] = {}
        for (m, n), c in self.terms.items():
            w = _falling(k, n)
            if w:
                e = k + m - n
                out[e] = out[e] + c * w if e in out else c * w
        return {e: v for e, v in out.items() if not scalar_is_zero(v)}

    def symbolic_action(self) -> dict[int, tuple[Scalar, ...]]:
        """The action on x^k with k left indeterminate, for display.

        Maps each shift s = m - n to the coefficients, in powers of k, of the
        polynomial P_s with self x^k = sum_s P_s(k) x^(k+s).  Within a shift
        the falling factorials have distinct degrees and leading coefficient
        1, so a nonzero operator has a nonzero P_s for each shift it uses.
        """
        per_shift: dict[int, list[Scalar]] = {}
        for (m, n), c in self.terms.items():
            ff = _falling_coefficients(n)
            poly = per_shift.setdefault(m - n, [])
            poly.extend([Fraction(0)] * (len(ff) - len(poly)))
            for i, f in enumerate(ff):
                if f:
                    poly[i] = poly[i] + c * f
        return {s: tuple(per_shift[s]) for s in sorted(per_shift)}

    # -- module interaction -------------------------------------------------------
    def preserves_space(self, space: "MonomialSpace") -> bool:
        """Whether every monomial of ``space`` is sent into ``space``."""
        members = set(space.exponents)
        return all(e in members for k in space.exponents for e in self.image(k))

    def matrix_on_space(
        self, space: "MonomialSpace", norm_squares: Optional[Sequence] = None
    ) -> Matrix:
        """Matrix in the basis x^e of ``space``, which must be preserved.

        With ``norm_squares`` the basis vector i is sqrt(norm_squares[i]) * x^e_i;
        each entry picks up sqrt(N_col / N_row), taken exactly per entry so no
        shared quadratic extension is ever needed.
        """
        pos = {e: i for i, e in enumerate(space.exponents)}
        entries = {}
        for col, k in enumerate(space.exponents):
            for e, v in self.image(k).items():
                if e not in pos:
                    raise SpaceEscapeError(
                        f"operator does not preserve the space {space.exponents}"
                    )
                entries[(pos[e], col)] = v
        if norm_squares is not None:
            ns = [Fraction(x) for x in norm_squares]
            entries = {(r, c): v * sqrt_exact(ns[c] / ns[r])
                       for (r, c), v in sorted(entries.items())}
        return Matrix.from_entries(space.dimension, entries)

    # -- identity ------------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def __repr__(self):
        return f"DiffOp({self.to_text()!r})"

    # -- text format -----------------------------------------------------------------
    def to_text(self) -> str:
        """Render as e.g. ``1/3 * x^3 * D^2 - 1 * x^2 * D^1 + 1 * x^1 * D^0``."""
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda mn: (-mn[1], -mn[0]))
        pieces = []
        for m, n in keys:
            c = self.terms[(m, n)]
            if isinstance(c, Fraction):
                sign = "-" if c < 0 else "+"
                body = f"{abs(c)} * x^{m} * D^{n}"
            else:
                sign = "+"
                body = f"({render_scalar(c)}) * x^{m} * D^{n}"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text


_TERM_RE = re.compile(
    r"^\s*(?P<coeff>\(.*\)|[^*]*?)\s*\*\s*x\^(?P<m>-?\d+)\s*\*\s*D\^(?P<n>\d+)\s*$"
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
    if text[0] == "-":
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
        terms.append(((int(m.group("m")), int(m.group("n"))), coeff * sgn))
    return DiffOp(terms)


@dataclass(frozen=True)
class MonomialSpace:
    """Span of finitely many monomials x^e, e a strictly increasing exponent list."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(self.exponents)
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
        passed = not any(op.image(k) for _, op in residuals for k in space.exponents)
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
    """
    j0, jp, jm = triple
    ident = DiffOp.identity()
    rhs = (
        (j0 ** 3).scale(params.alpha)
        + (j0 ** 2).scale(params.beta)
        + j0.scale(params.gamma)
        + ident.scale(params.delta)
    )
    residuals = (
        ("raising", j0.commutator(jp) - jp),
        ("lowering", j0.commutator(jm) + jm),
        ("bracket", jp.commutator(jm) - rhs),
    )
    return ClosureReport.judge(residuals, space)


# -- preserving operators -------------------------------------------------------------


#: Largest accepted (max_order + 1) * window width * dimension, the size of
#: the dense preservation system.  It bounds the per-shift elimination and the
#: basis size alike.  The slowest accepted input found, (3,) at order 198,
#: takes about 2.3 s through the CLI, most of it building and printing its
#: basis; the dense 0..29 at order 29 takes 0.3-0.4 s (2-vCPU VM, Python 3.11).
MAX_ENUMERATION_SIZE = 80_000


def _integral(vec: Sequence) -> list:
    """A rational row times the lcm of its denominators, as a list of ints.

    A row holding a QuadExt is copied as it is.
    """
    kinds = set(map(type, vec))
    if kinds <= {int} or QuadExt in kinds:
        return list(vec)
    lcm = math.lcm(*(v.denominator for v in vec))
    return [v.numerator * (lcm // v.denominator) for v in vec]


def _canonical(vec: Sequence, pc: int) -> list:
    """The multiple of a row that the span keeps, ``pc`` being its pivot column.

    A rational row becomes coprime integers with a positive pivot.  A row
    holding a QuadExt is divided by its pivot: Q(sqrt(d)) has no gcd, and
    without one the entries of cross-multiplied rows grow exponentially.
    """
    vec = _integral(vec)
    if set(map(type, vec)) <= {int}:
        g = math.gcd(*vec)
        if vec[pc] < 0:
            g = -g
        return vec if g == 1 else [v // g for v in vec]
    p = as_scalar(vec[pc])
    return [v / p for v in vec]


class _ExactSpan:
    """Incremental exact row space, reduced and fraction-free.

    Each row is zero in every other row's pivot column and in every column
    left of its own pivot, so it is a nonzero multiple of the unique reduced
    row echelon form row of the span, whatever the insertion order.  Rows are
    combined by cross-multiplication, ``p*a - f*b`` with p the pivot of one
    row and f the other row's entry in that column, which needs no division
    and works over any integral domain (Bareiss, Math. Comp. 22, 1968).  A
    rational row is scaled to integers once, on entry, and every kept row is
    scaled as :func:`_canonical` says, so integer rows stay coprime integers
    and no Fraction is made while they are combined.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[Scalar]] = []
        self.pivot_cols: list[int] = []

    def _reduce(self, vec: Sequence) -> list:
        vec = _integral(vec)
        for row, pc in zip(self.rows, self.pivot_cols):
            f = vec[pc]
            if f:
                p = row[pc]
                vec = [p * a - f * b for a, b in zip(vec, row)]
        return vec

    def contains(self, vec: Sequence) -> bool:
        return not any(self._reduce(vec))

    def add(self, vec: Sequence) -> bool:
        """Insert if independent; returns True when the span grew."""
        red = self._reduce(vec)
        pc = next((i for i, v in enumerate(red) if v), None)
        if pc is None:
            return False
        red = _canonical(red, pc)
        p = red[pc]
        for i, row in enumerate(self.rows):
            f = row[pc]
            if f:
                self.rows[i] = _canonical(
                    [p * a - f * b for a, b in zip(row, red)], self.pivot_cols[i]
                )
        self.rows.append(red)
        self.pivot_cols.append(pc)
        return True

    def nullspace(self) -> list[dict[int, Scalar]]:
        """Basis of the vectors every row annihilates, one per free column, ascending.

        The vector of free column f is the RREF one, 1 at f and minus row
        i's entry f over its pivot at pivot i, scaled by the lcm of those
        pivots when the rows involved are integers, so that it is an integer
        vector.  It is given as {column: entry} over its nonzero entries.
        Only pivots left of f can be nonzero, so f is its largest column.
        """
        pivots = dict(zip(self.pivot_cols, self.rows))
        basis = []
        for fc in range(self.width):
            if fc in pivots:
                continue
            hits = [(pc, row[pc], row[fc]) for pc, row in pivots.items() if row[fc]]
            if all(type(p) is int and type(x) is int for _, p, x in hits):
                lead = math.lcm(*(p for _, p, _ in hits))
                vec = {fc: lead, **{pc: -x * (lead // p) for pc, p, x in hits}}
            else:
                vec = {fc: Fraction(1), **{pc: -x / as_scalar(p) for pc, p, x in hits}}
            basis.append(vec)
        return basis

    @property
    def dimension(self) -> int:
        return len(self.rows)


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

    A term x^m D^n sends x^k only to x^(k+s), s = m - n, so the system splits
    into one block per shift with at most max_order + 1 unknowns.  The rows
    of a block are falling factorials k!/(k-n)!, integers, so each block is
    eliminated fraction-free in integers (:class:`_ExactSpan`), its rows
    multiples of the unique RREF rows.  Its null vectors are integer multiples
    of the RREF ones, ordered by their free term in (n, m) order, so the
    basis is that of the dense system.  Each vector is scaled to coprime
    integers with a positive first entry.
    """
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    lo, hi = -max_order, max(space.exponents) + max_order
    size = (max_order + 1) * (hi - lo + 1) * space.dimension
    if size > MAX_ENUMERATION_SIZE:
        raise ValueError(
            f"(max_order + 1) * window * dimension = {size} exceeds "
            f"{MAX_ENUMERATION_SIZE}"
        )
    members = set(space.exponents)
    found = []
    for s in range(lo - max_order, hi + 1):
        keys = [(s + n, n) for n in range(max_order + 1) if lo <= s + n <= hi]
        span = _ExactSpan(len(keys))
        for k in space.exponents:
            if k + s not in members:
                span.add([_falling(k, n) for _, n in keys])
        for vec in span.nullspace():
            free_m, free_n = keys[max(vec)]
            found.append(((free_n, free_m), [(keys[i], vec[i]) for i in sorted(vec)]))
    found.sort(key=lambda item: item[0])
    ops = []
    for _, terms in found:
        values = _canonical([v for _, v in terms], 0)
        ops.append(DiffOp({key: v for (key, _), v in zip(terms, values)}))
    return ops


# -- Lie closure probing -----------------------------------------------------------------


@dataclass(frozen=True)
class LieClosureReport:
    closed_as_operators: bool
    failing_pairs: tuple[tuple[int, int], ...]
    matrix_lie_span_dimension: int
    rounds_used: int


def lie_closure_probe(
    ops: Sequence[DiffOp], space: MonomialSpace, max_rounds: int = 6
) -> LieClosureReport:
    """Probe whether pairwise brackets of ``ops`` stay inside their span.

    Operator level: each commutator must lie in span(ops) extended by all
    diagonal operators of order <= 3 (polynomials of degree <= 3 in x*D),
    i.e. closure is granted even up to a cubic deformation.  Matrix level:
    the span of the operators' matrices on the space is saturated under
    commutators and its dimension reported.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be positive")
    ops = list(ops)
    # matrix_on_space raises SpaceEscapeError for an operator leaving the space
    mats = [op.matrix_on_space(space) for op in ops]
    diagonal_allowance = [DiffOp.euler() ** i for i in range(4)]
    pairs = [(i, j) for i in range(len(ops)) for j in range(i + 1, len(ops))]
    brackets = [ops[i].commutator(ops[j]) for i, j in pairs]
    # operators are compared in their term coordinates (m, n)
    every = ops + diagonal_allowance + brackets
    keys = sorted(set().union(*(op.terms for op in every)))
    zero = Fraction(0)
    vectors = [[op.terms.get(key, zero) for key in keys] for op in every]
    cut = len(ops) + len(diagonal_allowance)
    span = _ExactSpan(len(vectors[0]))
    for vec in vectors[:cut]:
        span.add(vec)
    failing = tuple(
        pair for pair, vec in zip(pairs, vectors[cut:]) if not span.contains(vec)
    )

    n = space.dimension

    def flat(mat: Matrix) -> list[Scalar]:
        vec: list[Scalar] = [Fraction(0)] * (n * n)
        for i, j, x in mat.entries():
            vec[i * n + j] = x
        return vec

    mspan = _ExactSpan(n * n)
    basis_mats: list[Matrix] = []
    for mat in mats:
        if mspan.add(flat(mat)):
            basis_mats.append(mat)
    # semi-naive saturation: pairs of matrices older than the last round were
    # bracketed already, and their brackets stay in the growing span
    rounds = done = 0
    for _ in range(max_rounds):
        rounds += 1
        grew = False
        current = list(basis_mats)
        for i in range(len(current)):
            for j in range(max(i + 1, done), len(current)):
                br = (current[i] @ current[j]) - (current[j] @ current[i])
                if mspan.add(flat(br)):
                    basis_mats.append(br)
                    grew = True
        done = len(current)
        if not grew:
            break
    return LieClosureReport(
        closed_as_operators=not failing,
        failing_pairs=failing,
        matrix_lie_span_dimension=mspan.dimension,
        rounds_used=rounds,
    )
