"""Exact scalar arithmetic: rationals and single quadratic extensions Q(sqrt(D)).

A value of this package is either a ``fractions.Fraction`` or a ``QuadExt``
value ``a + b*sqrt(D)`` with rational ``a``, ``b`` and squarefree integer
``D >= 2``: that is what parsing gives and rendering, ``DiffOp.terms`` and the
entries of a ``Matrix`` take.  A ``QuadExt`` stores integers,
``(p + q*sqrt(D))/n`` in lowest terms with ``n > 0``; it is parsed, rendered,
compared and hashed, and has no arithmetic operators.

Arithmetic runs on numerators over one positive denominator instead
(:func:`to_numerators`, :func:`from_numerator`).  A numerator is an int, or,
for an irrational value, the integer coordinates ``(p, q, d)`` of
``p + q*sqrt(d)`` with ``q != 0`` and ``d`` squarefree and >= 2.  The
``num_*`` functions are the one arithmetic of Q(sqrt(D)) in this package:
``DiffOp``, ``Matrix``, the relations, the case solvers and the probe's rank
kernel call them on their stored numerators, and :func:`quotient` turns a
quotient of two numerators back into a value.  Arithmetic is exact, and a
result whose radical part cancels comes back as an int numerator, or as a
``Fraction`` value.  Mixing two different radicands is an error, never a
silent coercion: ``num_add``, ``num_sub`` and ``num_mul`` raise the one
``ScalarDomainError``, naming the two radicands in operand order, and where
a matrix computation mixes them at several entries, which entry's clash is
reported is not fixed.

A radicand is split into its square and squarefree parts once, where a value
enters: by :func:`parse_scalar`, :func:`sqrt_exact`, :func:`quadext` or the
validating ``QuadExt`` constructor.  Arithmetic keeps the radicand its
operands were built with and never factors it again.
"""

from __future__ import annotations

import contextlib
import re
import sys
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterator, Sequence, Union


class ScalarDomainError(ArithmeticError):
    """A value would leave the single quadratic extension: two different
    radicands meet in ``num_add``, ``num_sub`` or ``num_mul``, or
    :func:`sqrt_exact` is asked for the square root of an irrational."""


def mixed_radicands(d1: int, d2: int) -> ScalarDomainError:
    """The error of an operation whose left operand lies over sqrt(d1) and its
    right one over sqrt(d2), d1 != d2."""
    return ScalarDomainError(f"mixed radicands sqrt({d1}) and sqrt({d2})")


class NegativeRadicandError(ValueError):
    """An exact square root of a negative rational was requested."""


# Trial division stops at this prime.  What is left over must then be below
# about its cube (10**18), so that it has at most two prime factors; above
# that, splitting would take a general factoring algorithm and is refused.
# Reaching the limit takes about 0.1 s (Python 3.11 on a 2-vCPU VM).
MAX_TRIAL_PRIME = 10**6


@contextlib.contextmanager
def digit_limit(what: str) -> Iterator[None]:
    """Report an integer past Python's limit on int <-> str conversion as a
    one-line ValueError naming ``what``, instead of Python's own advice.

    Python sets the limit (4300 digits by default) against quadratic-time
    conversions; it is reported here, not lifted.
    """
    try:
        yield
    except ValueError as exc:
        if "int_max_str_digits" not in str(exc):
            raise
        raise ValueError(
            f"{what} has an integer of more than {sys.get_int_max_str_digits()} "
            "digits, the most that is converted to or from text"
        ) from None


def squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, d) with n = s**2 * d and d squarefree, for n >= 0.

    Trial division runs while p**3 <= m, m the cofactor not yet divided out.
    The m left then has at most two prime factors, so it is squarefree unless
    it is a perfect square, which ``math.isqrt`` decides.  Raises
    ``ValueError`` when m still exceeds MAX_TRIAL_PRIME**3 once every prime up
    to MAX_TRIAL_PRIME is divided out.
    """
    if n < 0:
        raise NegativeRadicandError(f"cannot split negative integer {n}")
    if n == 0:
        return 0, 1
    s, d = 1, 1
    p = 2
    while p * p * p <= n:
        if p > MAX_TRIAL_PRIME:
            raise ValueError(
                f"radicand too large to split: a factor above {MAX_TRIAL_PRIME}**3 "
                f"has no prime factor up to {MAX_TRIAL_PRIME}"
            )
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    r = isqrt(n)
    if r * r == n:  # the square of a prime, or 1
        return s * r, d
    return s, d * n  # a prime or a product of two distinct primes


class QuadExt:
    """(p + q*sqrt(d))/n, stored as integers: n > 0, q != 0, gcd(p, q, n) == 1
    and d squarefree and >= 2.

    The form is canonical, so two values are equal exactly when their four
    integers are.  ``a`` = p/n and ``b`` = q/n give the rational parts of
    a + b*sqrt(d) as ``Fraction``s.  Use :func:`quadext` to build values that
    may be rational; the constructor insists on a genuine radical part so that
    a ``QuadExt`` is never secretly a rational number.  It also checks that d
    is squarefree, which the ``num_*`` arithmetic never does again: every
    result keeps its operands' d.  The attributes are read-only.

    A ``QuadExt`` is a value only: it defines no arithmetic operator, so
    ``+ - * / **`` and unary ``-`` raise ``TypeError``.  Compute on its
    numerator (:func:`to_numerators`) with the ``num_*`` functions.
    """

    __slots__ = ("_p", "_q", "_n", "_d")

    def __init__(self, a, b, d: int):
        a = Fraction(a)
        b = Fraction(b)
        if b == 0:
            raise ValueError("QuadExt requires a nonzero radical part; use quadext()")
        if d < 2 or squarefree_split(d) != (1, d):
            raise ValueError(f"radicand must be squarefree and >= 2, got {d}")
        p = a.numerator * b.denominator
        q = b.numerator * a.denominator
        n = a.denominator * b.denominator
        g = gcd(p, q, n)
        self._p, self._q, self._n, self._d = p // g, q // g, n // g, d

    p = property(lambda self: self._p, doc="Integer rational part, over n.")
    q = property(lambda self: self._q, doc="Integer coefficient of sqrt(d), over n; never 0.")
    n = property(lambda self: self._n, doc="Common denominator, > 0.")
    d = property(lambda self: self._d, doc="Squarefree radicand, >= 2.")

    @property
    def a(self) -> Fraction:
        """Rational part p/n."""
        return Fraction(self._p, self._n)

    @property
    def b(self) -> Fraction:
        """Coefficient q/n of sqrt(d); never zero."""
        return Fraction(self._q, self._n)

    # -- identity -----------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return (
                self._p == other._p and self._q == other._q
                and self._n == other._n and self._d == other._d
            )
        if isinstance(other, (int, Fraction)):
            return False  # q != 0 by construction
        return NotImplemented

    def __hash__(self):
        return hash((self._p, self._q, self._n, self._d))

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self._d})"

    def __str__(self):
        return render_scalar(self)

    def __bool__(self):
        return True  # never zero


Scalar = Union[Fraction, QuadExt]

_new = object.__new__


def _quad(p: int, q: int, n: int, d: int) -> Scalar:
    """(p + q*sqrt(d))/n in lowest terms; the rational p/n when q == 0.

    Trusted: n > 0 and d squarefree and >= 2 are assumed, not checked.
    """
    if not q:
        return Fraction(p, n)
    out = _new(QuadExt)
    g = gcd(p, q, n)
    if g == 1:
        out._p, out._q, out._n = p, q, n
    else:
        out._p, out._q, out._n = p // g, q // g, n // g
    out._d = d
    return out


def quadext(a, b, d: int) -> Scalar:
    """Canonical a + b*sqrt(d): folds square factors of d, demotes when b == 0."""
    a = Fraction(a)
    b = Fraction(b)
    if d < 0:
        raise NegativeRadicandError(f"negative radicand {d}")
    s, d0 = squarefree_split(d)
    if d0 == 1:
        # d was a perfect square (or 0); sqrt folds into b
        return a + b * s
    return _quad(
        a.numerator * b.denominator,
        b.numerator * s * a.denominator,
        a.denominator * b.denominator,
        d0,
    )


def to_numerators(values: Sequence) -> tuple[list, int]:
    """The values over the lcm ``den`` of their denominators: their numerators
    and ``den``, in lowest terms: no prime divides ``den`` and every numerator.
    """
    den = lcm(*[v._n if type(v) is QuadExt else v.denominator for v in values])
    return [
        (v._p * (den // v._n), v._q * (den // v._n), v._d) if type(v) is QuadExt
        else v.numerator * (den // v.denominator)
        for v in values
    ], den


def from_numerator(v, den: int) -> Scalar:
    """The scalar v / den of a numerator v, den > 0."""
    return Fraction(v, den) if type(v) is int else _quad(v[0], v[1], den, v[2])


def num_add(a, b):
    """a + b of two numerators."""
    if type(a) is int:
        return a + b if type(b) is int else (a + b[0], b[1], b[2])
    if type(b) is int:
        return a[0] + b, a[1], a[2]
    if a[2] != b[2]:
        raise mixed_radicands(a[2], b[2])
    q = a[1] + b[1]
    return (a[0] + b[0], q, a[2]) if q else a[0] + b[0]


def num_sub(a, b):
    """a - b of two numerators."""
    if type(a) is int:
        return a - b if type(b) is int else (a - b[0], -b[1], b[2])
    if type(b) is int:
        return a[0] - b, a[1], a[2]
    if a[2] != b[2]:
        raise mixed_radicands(a[2], b[2])
    q = a[1] - b[1]
    return (a[0] - b[0], q, a[2]) if q else a[0] - b[0]


def num_mul(a, b):
    """a * b of two numerators."""
    if type(a) is int:
        if type(b) is int:
            return a * b
        return (a * b[0], a * b[1], b[2]) if a else 0
    if type(b) is int:
        return (a[0] * b, a[1] * b, a[2]) if b else 0
    p, q, d = a
    r, s, e = b
    if d != e:
        raise mixed_radicands(d, e)
    t = p * s + q * r
    return (p * r + q * s * d, t, d) if t else p * r + q * s * d


def quotient(x, y) -> Scalar:
    """The scalar x / y of two numerators over one denominator: x times the
    conjugate of y, over y's integer norm with its sign moved into the
    numerator.  The norm r^2 - s^2*e of y = (r, s, e) is nonzero, as sqrt(e)
    is irrational."""
    if not y:
        raise ZeroDivisionError("division by zero")
    if type(y) is int:
        n = y
    else:
        r, s, e = y
        x, n = num_mul(x, (r, -s, e)), r * r - s * s * e
    return from_numerator(x, n) if n > 0 else from_numerator(num_mul(x, -1), -n)


def num_gcd(g: int, values) -> int:
    """The gcd of g and the coordinates of the numerators ``values``."""
    for v in values:
        if g == 1:
            break
        g = gcd(g, v) if type(v) is int else gcd(g, v[0], v[1])
    return g


def num_div(v, g: int):
    """The numerator v divided by an int g that divides it exactly."""
    return v // g if type(v) is int else (v[0] // g, v[1] // g, v[2])


def as_scalar(value) -> Scalar:
    t = type(value)
    if t is Fraction or t is QuadExt:
        return value
    if t is int:
        return Fraction(value)
    # subclasses, and bool, which is an int
    if isinstance(value, (Fraction, QuadExt)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def scalar_is_zero(value: Scalar) -> bool:
    t = type(value)
    if t is Fraction or t is int:
        return not value
    if t is QuadExt:
        return False
    return isinstance(value, (int, Fraction)) and value == 0


def sqrt_exact(value) -> Scalar:
    """Exact nonnegative square root of a rational.

    Perfect squares come back rational; otherwise the result is a pure radical
    r*sqrt(D) with D the squarefree part, satisfying (r*sqrt(D))**2 == value.
    The root of an irrational value leaves the quadratic extension.
    """
    if isinstance(value, QuadExt):
        raise ScalarDomainError(f"square root of irrational value {render_scalar(value)}")
    value = Fraction(value)
    if value < 0:
        raise NegativeRadicandError(f"square root of negative value {render_scalar(value)}")
    if value == 0:
        return Fraction(0)
    p, q = value.numerator, value.denominator
    # sqrt(p/q) = sqrt(p*q)/q
    s, d = squarefree_split(p * q)
    return _quad(0, s, q, d) if d > 1 else Fraction(s, q)


# -- text format -------------------------------------------------------------
#
# Rational:  "p" or "p/q".   Extension: "a + b*sqrt(D)" (also "a - b*sqrt(D)",
# "b*sqrt(D)", "sqrt(D)", "-sqrt(D)").  render/parse round-trip exactly.

#: The one grammar of an integer read from text, exponents and scalars
#: alike: ASCII digits, after an optional sign.  ``int`` alone would also
#: take the digits of other scripts and "_" separators.
DIGITS = "[0-9]+"
_INTEGER = rf"[+-]?{DIGITS}"
_RAT = rf"{_INTEGER}(?:/{DIGITS})?"
_SQRT_RE = re.compile(
    rf"^\s*(?:(?P<a>{_RAT})\s*(?P<sign>[+-])\s*)?(?P<b>{_RAT}|[+-])?\s*\*?\s*sqrt\((?P<d>{DIGITS})\)\s*$"
)
_RAT_RE = re.compile(rf"^\s*(?P<r>{_RAT})\s*$")
_INT_RE = re.compile(rf"^\s*{_INTEGER}\s*$")


def parse_int(text: str) -> int:
    """The integer ``text`` writes as a sign and ASCII digits, whitespace
    around it allowed; ValueError for anything else."""
    if not _INT_RE.match(text):
        raise ValueError(f"cannot parse integer {text!r}")
    return int(text)


def _ratio(text: str) -> tuple[int, int]:
    """The numerator and denominator a ``_RAT`` match writes, read with ``int``;
    a zero denominator raises ZeroDivisionError as ``Fraction`` does."""
    num, _, den = text.partition("/")
    num, den = int(num), int(den) if den else 1
    if not den:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    return num, den


def parse_scalar(text: str) -> Scalar:
    try:  # not a with block: this runs for every scalar of every input
        m = _RAT_RE.match(text)
        if m:
            return Fraction(*_ratio(m["r"]))
        m = _SQRT_RE.match(text)
        if m:
            # a + b*sqrt(D) = (an*bd + bn*sqrt(D)*ad) / (ad*bd), in integers
            an, ad = _ratio(m["a"]) if m["a"] else (0, 1)
            b = m["b"] or "1"
            if b in "+-":  # a bare signed radical, "-sqrt(D)"
                b += "1"
            bn, bd = _ratio(b)
            if m["sign"] == "-":
                bn = -bn
            s, d = squarefree_split(int(m["d"]))
            if d == 1:  # D was a perfect square (or 0): sqrt(D) = s
                return Fraction(an * bd + bn * s * ad, ad * bd)
            return _quad(an * bd, bn * s * ad, ad * bd, d)
    except ValueError:
        with digit_limit("an input scalar"):
            raise
    raise ValueError(f"cannot parse scalar {text!r}")


def render_scalar(value: Scalar) -> str:
    value = as_scalar(value)
    try:  # not a with block: this runs for every scalar of every report
        if isinstance(value, Fraction):
            return str(value)
        radical = f"{Fraction(abs(value.q), value.n)}*sqrt({value.d})"
        if not value.p:
            return radical if value.q > 0 else f"-{radical}"
        joiner = " + " if value.q > 0 else " - "
        return f"{value.a}{joiner}{radical}"
    except ValueError:
        with digit_limit("a report value"):
            raise
