"""Exact arithmetic of Q(sqrt(d)) on Fraction pairs, for the test oracles.

A :class:`Q` is ``a + b*sqrt(d)`` with ``Fraction`` parts ``a`` and ``b``;
``d`` is a squarefree integer >= 2 when ``b != 0``, and 0 for a rational.  Its
``+ - * /``, ``**`` and unary ``-`` work on the pairs alone, with no call into
the package's numerator arithmetic, so an oracle written with them is
independent of the ``num_*`` functions it checks.  Either operand may be an
int, a ``Fraction``, a ``QuadExt`` or a ``Q``, and the result is a ``Q``.

Where two irrationals over different radicands meet, it raises the package's
error, ``scalars.mixed_radicands(d1, d2)``, naming the left operand's first,
so that an oracle compares messages too.  A result whose radical part cancels
is rational and meets any radicand.  :attr:`Q.value` gives the package's
scalar: the ``Fraction`` part of a rational, and ``quadext`` of an irrational.

Where an operand is rational, the products and sums with its zero radical
part are left out: they are zero, so the values are those of the full
formulas, formed with fewer ``Fraction`` operations.
"""

from __future__ import annotations

from fractions import Fraction

from sl2deform.scalars import QuadExt, mixed_radicands, quadext

_ZERO = Fraction(0)


class Q:
    """a + b*sqrt(d), held as two Fractions and d; d == 0 exactly when b == 0."""

    __slots__ = ("a", "b", "d")

    def __init__(self, x):
        if type(x) is Fraction:
            self.a, self.b, self.d = x, _ZERO, 0
        elif isinstance(x, (Q, QuadExt)):
            self.a, self.b, self.d = x.a, x.b, x.d
        elif isinstance(x, (int, Fraction)):
            self.a, self.b, self.d = Fraction(x), _ZERO, 0
        else:
            raise TypeError(f"not an exact scalar: {x!r}")

    @classmethod
    def _of(cls, a: Fraction, b: Fraction, d: int) -> "Q":
        out = object.__new__(cls)
        out.a, out.b, out.d = a, b, d if b else 0
        return out

    @property
    def value(self):
        """The package's scalar: a ``Fraction``, or a ``QuadExt`` when b != 0."""
        return quadext(self.a, self.b, self.d) if self.d else self.a

    def _pair(self, other, reflected: bool):
        """(left, right, d): self and other lifted, in operand order, and
        their common radicand."""
        x, y = (Q(other), self) if reflected else (self, Q(other))
        if x.d and y.d and x.d != y.d:
            raise mixed_radicands(x.d, y.d)
        return x, y, x.d or y.d

    def _add(self, other, sign: int, reflected: bool = False):
        x, y, d = self._pair(other, reflected)
        a = x.a + y.a if sign > 0 else x.a - y.a
        if not d:
            return Q._of(a, _ZERO, 0)
        return Q._of(a, x.b + y.b if sign > 0 else x.b - y.b, d)

    def _mul(self, other, reflected: bool = False):
        x, y, d = self._pair(other, reflected)
        if not x.d:
            return Q._of(x.a * y.a, x.a * y.b if d else _ZERO, d)
        if not y.d:
            return Q._of(x.a * y.a, x.b * y.a, d)
        return Q._of(x.a * y.a + x.b * y.b * d, x.a * y.b + x.b * y.a, d)

    def _div(self, other, reflected: bool = False):
        x, y, d = self._pair(other, reflected)
        norm = y.a * y.a - y.b * y.b * d  # nonzero unless y is, as sqrt(d) is irrational
        if not norm:
            raise ZeroDivisionError("division by zero")
        return Q._of((x.a * y.a - x.b * y.b * d) / norm, (x.b * y.a - x.a * y.b) / norm, d)

    def __add__(self, other):
        return self._add(other, 1)

    def __radd__(self, other):
        return self._add(other, 1, True)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return self._add(other, -1, True)

    def __mul__(self, other):
        return self._mul(other)

    def __rmul__(self, other):
        return self._mul(other, True)

    def __truediv__(self, other):
        return self._div(other)

    def __rtruediv__(self, other):
        return self._div(other, True)

    def __neg__(self):
        return Q._of(-self.a, -self.b, self.d)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = Q(1)
        for _ in range(exponent):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if not isinstance(other, (int, Fraction, QuadExt, Q)):
            return NotImplemented
        other = Q(other)
        return (self.a, self.b, self.d) == (other.a, other.b, other.d)

    def __repr__(self):
        return f"Q({self.value})"
