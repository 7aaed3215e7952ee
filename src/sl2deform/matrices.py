"""Small sparse square matrices over exact scalars.

Just enough linear algebra for representation checking: the product ``@``,
the scalar-multiple-of-identity test, and the coordinate block decomposition
used to split reducible representations.  A matrix stores only its nonzero
entries, so every operation costs time in proportion to them: the ladder
matrices of this package have one entry per column.  No sum, no scalar
multiple, no inversion, no eigensolving; entries stay exact throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator, Mapping, Optional, Sequence

from .scalars import (
    Scalar,
    as_scalar,
    from_numerator,
    num_add,
    num_div,
    num_gcd,
    num_mul,
    render_scalar,
    scalar_is_zero,
    to_numerators,
)

_ZERO = Fraction(0)


class Matrix:
    """Immutable n x n matrix of exact scalars, stored as numerators of its
    nonzero entries over one denominator.

    ``_rows[i]`` maps each column of a nonzero entry of row i to that entry's
    numerator (``scalars.to_numerators``), columns ascending, and ``_den`` is
    their common positive denominator, in lowest terms, as a ``DiffOp``
    stores its terms.  Values enter only through :meth:`from_entries` and
    :meth:`diagonal`, as Fractions and QuadExts, and leave as those through
    :attr:`rows`, :meth:`entries` and indexing.  ``@`` is the one operation:
    it multiplies the rows by :func:`row_product`, which the Lie closure
    probe applies to its rows with no Matrix.  Entries may live in different
    quadratic extensions; compatibility is enforced lazily, by the numerator
    arithmetic of a product that actually combines two entries.  Any other
    operator, and ``Matrix(rows)``, raises ``TypeError``.
    """

    __slots__ = ("dimension", "_rows", "_den")

    def __new__(cls, *_):
        raise TypeError("a Matrix is built by Matrix.from_entries or Matrix.diagonal")

    @classmethod
    def _of(cls, n: int, rows: Sequence[dict], den: int) -> "Matrix":
        """Trusted: the n x n matrix whose row i is ``rows[i]`` over ``den``, taken as given.

        Each row must hold no zero numerator and list its columns in ascending
        order, and the numerators and ``den`` > 0 must be in lowest terms,
        nothing of which is checked: ``__eq__``, ``__hash__`` and
        :meth:`entries` rely on it.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "dimension", n)
        object.__setattr__(out, "_rows", tuple(rows))
        object.__setattr__(out, "_den", den)
        return out

    @classmethod
    def _lowest(cls, rows: Sequence[dict], den: int) -> "Matrix":
        """The matrix of numerator rows over ``den`` > 0, divided by their
        common factor; trusted as :meth:`_of` is, but for that factor."""
        g = num_gcd(den, chain.from_iterable(map(dict.values, rows)))
        if g != 1:
            rows = [{j: num_div(v, g) for j, v in row.items()} for row in rows]
        return cls._of(len(rows), rows, den // g)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_entries(cls, n: int, entries: Mapping[tuple[int, int], object]) -> "Matrix":
        """The n x n matrix with the given {(row, column): value} entries, zero elsewhere."""
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        nonzero = []
        for (i, j), x in sorted(entries.items()):
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"entry ({i}, {j}) lies outside a {n} x {n} matrix")
            x = as_scalar(x)
            if not scalar_is_zero(x):
                nonzero.append((i, j, x))
        return cls._of(n, *_numerator_rows(n, nonzero))

    @classmethod
    def diagonal(cls, entries: Sequence) -> "Matrix":
        return cls.from_entries(len(entries), {(i, i): x for i, x in enumerate(entries)})

    @property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        """Dense row-major view, zeros included."""
        return tuple([tuple(row) for row in self._dense(_ZERO, lambda x: x)])

    def _dense(self, zero, render) -> list[list]:
        out = []
        den = self._den
        for row in self._rows:
            dense = [zero] * self.dimension
            for j, v in row.items():
                dense[j] = render(from_numerator(v, den))
            out.append(dense)
        return out

    def entries(self) -> Iterator[tuple[int, int, Scalar]]:
        """The nonzero entries as (row, column, value), row-major."""
        den = self._den
        for i, row in enumerate(self._rows):
            for j, v in row.items():
                yield i, j, from_numerator(v, den)

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        n = self.dimension
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"entry ({i}, {j}) lies outside a {n} x {n} matrix")
        v = self._rows[i].get(j)
        return _ZERO if v is None else from_numerator(v, self._den)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Product; entry (i, j) sums a_ik * b_kj in ascending k.

        Only products of two nonzero entries are formed, each added to its
        entry as k runs upward, so every entry takes the operations of the
        dense triple loop that skips zero factors, in that loop's order, on
        the numerators over the product of the denominators: the values are
        that loop's, and a product raises ``ScalarDomainError`` exactly when
        the loop would, though where several entries mix radicands it may
        name another of them.
        """
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.dimension != other.dimension:
            raise ValueError(f"dimension mismatch: {self.dimension} vs {other.dimension}")
        return Matrix._lowest([
            {j: acc[j] for j in sorted(acc) if acc[j]}
            for acc in row_product(self._rows, other._rows)
        ], self._den * other._den)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.dimension == other.dimension and self._den == other._den
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.dimension, self._den, tuple(tuple(row.items()) for row in self._rows)))

    def is_zero(self) -> bool:
        return not any(self._rows)

    def to_strings(self) -> list[list[str]]:
        """Row-major rendering for reports."""
        return self._dense(render_scalar(_ZERO), render_scalar)

    def __repr__(self):
        return f"Matrix({self.to_strings()})"


def _numerator_rows(n: int, entries: Sequence[tuple[int, int, Scalar]]) -> tuple[list, int]:
    """The n rows {column: numerator} and the denominator of the nonzero
    entries (row, column, value), given row-major."""
    nums, den = to_numerators([x for _, _, x in entries])
    rows: list[dict] = [{} for _ in range(n)]
    for (i, j, _), v in zip(entries, nums):
        rows[i][j] = v
    return rows, den


def row_product(a: Sequence[dict], b: Sequence[dict]) -> list[dict]:
    """The rows of AB, for matrices given as rows {column: nonzero numerator}:
    entry j of row i sums a_ik * b_kj in ascending k, zero sums kept."""
    rows = []
    for a_row in a:
        acc: dict = {}
        for k, x in a_row.items():
            for j, y in b[k].items():
                xy = num_mul(x, y)
                acc[j] = num_add(acc[j], xy) if j in acc else xy
        rows.append(acc)
    return rows


def is_scalar_multiple_of_identity(m: Matrix) -> Optional[Scalar]:
    """The scalar lambda with m == lambda * I, or None if m is not scalar.

    Row i must be {i: lambda}, or empty when lambda is 0; ``IndexError`` for
    the 0 x 0 matrix, which has no lambda.
    """
    lam = m[0, 0]
    if scalar_is_zero(lam):
        return lam if m.is_zero() else None
    v = m._rows[0][0]
    for i, row in enumerate(m._rows):
        if len(row) != 1 or row.get(i) != v:
            return None
    return lam


@dataclass(frozen=True)
class BlockSplit:
    """Partition of basis indices into jointly invariant coordinate blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = [i for block in self.blocks for i in block]
        if sorted(seen) != list(range(len(seen))) or not all(self.blocks):
            raise ValueError("blocks must be disjoint, nonempty and cover all indices")


def coordinate_block_split(ops: Sequence[Matrix]) -> BlockSplit:
    """Finest partition of {0..n-1} whose parts are invariant under every op.

    Computed as the connected components of the union of all off-diagonal
    nonzero patterns; order of ``ops`` is irrelevant.
    """
    if not ops:
        raise ValueError("need at least one matrix")
    n = ops[0].dimension
    for op in ops:
        if op.dimension != n:
            raise ValueError("all matrices must share one dimension")
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for op in ops:
        for i, row in enumerate(op._rows):
            for j in row:
                if i != j:
                    adj[i].add(j)
                    adj[j].add(i)
    blocks = []
    unseen = set(range(n))
    while unseen:
        start = min(unseen)
        stack, comp = [start], set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adj[v] - comp)
        unseen -= comp
        blocks.append(tuple(sorted(comp)))
    blocks.sort(key=lambda b: b[0])
    return BlockSplit(tuple(blocks))
