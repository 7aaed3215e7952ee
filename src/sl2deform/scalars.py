"""Exact scalar arithmetic: rationals and single quadratic extensions Q(sqrt(D)).

Every number handled by this package is either a ``fractions.Fraction`` or a
``QuadExt`` value ``a + b*sqrt(D)`` with rational ``a``, ``b`` and squarefree
integer ``D >= 2``.  Arithmetic is exact, and a result whose radical part
cancels comes back as a ``Fraction``.  Mixing two different radicands is an
error, never a silent coercion.

A radicand is split into its square and squarefree parts once, where a value
enters: by :func:`parse_scalar`, :func:`sqrt_exact`, :func:`quadext` or the
validating ``QuadExt`` constructor.  Arithmetic on ``QuadExt`` values keeps the
radicand its operands were built with and never factors it again.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt
from typing import Union


class ScalarDomainError(ArithmeticError):
    """A value would leave the single quadratic extension: two different
    radicands meet, or the square root of an irrational is asked for."""


class NegativeRadicandError(ValueError):
    """An exact square root of a negative rational was requested."""


# Trial division stops at this prime.  What is left over must then be below
# about its cube (10**18), so that it has at most two prime factors; above
# that, splitting would take a general factoring algorithm and is refused.
# Reaching the limit takes about 0.1 s (Python 3.11 on a 2-vCPU VM).
MAX_TRIAL_PRIME = 10**6


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
    """a + b*sqrt(d) with rational a, b != 0 and squarefree d >= 2.

    Use :func:`quadext` to build values that may be rational; the constructor
    insists on a genuine radical part so that a ``QuadExt`` is never secretly
    a rational number.  It also checks that d is squarefree, which the
    arithmetic below never does again: every result keeps its operands' d.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        a = Fraction(a)
        b = Fraction(b)
        if b == 0:
            raise ValueError("QuadExt requires a nonzero radical part; use quadext()")
        if d < 2 or squarefree_split(d) != (1, d):
            raise ValueError(f"radicand must be squarefree and >= 2, got {d}")
        self._init(a, b, d)

    def _init(self, a: Fraction, b: Fraction, d: int) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @classmethod
    def _make(cls, a: Fraction, b: Fraction, d: int) -> "Scalar":
        """a + b*sqrt(d) from Fraction parts and a d known to be squarefree
        and >= 2, with no check; the rational a when b == 0."""
        if not b:
            return a
        out = object.__new__(cls)
        out._init(a, b, d)
        return out

    def __setattr__(self, *_):
        raise AttributeError("QuadExt is immutable")

    # -- helpers ------------------------------------------------------------
    def conjugate(self) -> "QuadExt":
        return QuadExt._make(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm (a + b sqrt d)(a - b sqrt d); never zero for b != 0."""
        return self.a * self.a - self.b * self.b * self.d

    def _coerce(self, other):
        """The parts (a, b) of an operand; b is the int 0 for a rational one."""
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ScalarDomainError(
                    f"mixed radicands sqrt({self.d}) and sqrt({other.d})"
                )
            return other.a, other.b
        if isinstance(other, Fraction):
            return other, 0
        if isinstance(other, int):
            return Fraction(other), 0
        return None

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        oa, ob = co
        return QuadExt._make(self.a + oa, self.b + ob if ob else self.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        oa, ob = co
        return QuadExt._make(self.a - oa, self.b - ob if ob else self.b, self.d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        oa, ob = co
        if not ob:
            return QuadExt._make(self.a * oa, self.b * oa, self.d)
        return QuadExt._make(
            self.a * oa + self.b * ob * self.d,
            self.a * ob + self.b * oa,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        oa, ob = co
        if not ob:
            if oa == 0:
                raise ZeroDivisionError("division of QuadExt by zero")
            return QuadExt._make(self.a / oa, self.b / oa, self.d)
        nrm = oa * oa - ob * ob * self.d
        # (a+b√d)/(oa+ob√d) = (a+b√d)(oa−ob√d)/nrm ; nrm != 0 since √d irrational
        return QuadExt._make(
            (self.a * oa - self.b * ob * self.d) / nrm,
            (self.b * oa - self.a * ob) / nrm,
            self.d,
        )

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            return Fraction(0)
        nrm = self.norm()
        return QuadExt._make(other * self.a / nrm, -other * self.b / nrm, self.d)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out: Scalar = Fraction(1)
        for _ in range(exponent):
            out = out * self
        return out

    # -- identity -----------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return (self.a, self.b, self.d) == (other.a, other.b, other.d)
        if isinstance(other, (int, Fraction)):
            return False  # b != 0 by construction
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        return render_scalar(self)

    def __bool__(self):
        return True  # never zero


Scalar = Union[Fraction, QuadExt]


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
    return QuadExt._make(a, b * s, d0)


def as_scalar(value) -> Scalar:
    if type(value) is Fraction or isinstance(value, (Fraction, QuadExt)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def scalar_is_zero(value: Scalar) -> bool:
    if type(value) is Fraction:
        return not value
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
        raise NegativeRadicandError(f"square root of negative value {value}")
    if value == 0:
        return Fraction(0)
    p, q = value.numerator, value.denominator
    # sqrt(p/q) = sqrt(p*q)/q
    s, d = squarefree_split(p * q)
    return QuadExt._make(Fraction(0), Fraction(s, q), d) if d > 1 else Fraction(s, q)


# -- text format -------------------------------------------------------------
#
# Rational:  "p" or "p/q".   Extension: "a + b*sqrt(D)" (also "a - b*sqrt(D)",
# "b*sqrt(D)", "sqrt(D)").  render/parse round-trip exactly.

_RAT = r"[+-]?\d+(?:/\d+)?"
_SQRT_RE = re.compile(
    rf"^\s*(?:(?P<a>{_RAT})\s*(?P<sign>[+-])\s*)?(?P<b>{_RAT})?\s*\*?\s*sqrt\((?P<d>\d+)\)\s*$"
)
_RAT_RE = re.compile(rf"^\s*(?P<r>{_RAT})\s*$")


def parse_scalar(text: str) -> Scalar:
    m = _RAT_RE.match(text)
    if m:
        return Fraction(m.group("r"))
    m = _SQRT_RE.match(text)
    if m:
        a = Fraction(m.group("a")) if m.group("a") else Fraction(0)
        b = Fraction(m.group("b")) if m.group("b") else Fraction(1)
        if m.group("sign") == "-":
            b = -b
        return quadext(a, b, int(m.group("d")))
    raise ValueError(f"cannot parse scalar {text!r}")


def render_scalar(value: Scalar) -> str:
    value = as_scalar(value)
    if isinstance(value, Fraction):
        return str(value)
    radical = f"{abs(value.b)}*sqrt({value.d})"
    if value.a == 0:
        return radical if value.b > 0 else f"-{radical}"
    joiner = " + " if value.b > 0 else " - "
    return f"{value.a}{joiner}{radical}"
