"""Small sparse square matrices over exact scalars.

Just enough linear algebra for representation checking: ring operations, the
commutator, the scalar-multiple-of-identity test, and the coordinate block
decomposition used to split reducible representations.  A matrix stores only
its nonzero entries, so every operation costs time in proportion to them:
the ladder matrices of this package have one entry per column.  No
inversion, no eigensolving; entries stay exact throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .scalars import Scalar, as_scalar, render_scalar, scalar_is_zero

_ZERO = Fraction(0)


def _nonzero(items: Iterable[tuple[int, Scalar]]) -> dict[int, Scalar]:
    return {j: x for j, x in items if not scalar_is_zero(x)}


class Matrix:
    """Immutable n x n matrix of exact scalars, stored by its nonzero entries.

    ``_rows[i]`` maps each column of a nonzero entry of row i to that entry,
    columns ascending.  Entries may live in different quadratic extensions;
    compatibility is enforced lazily, by the scalar arithmetic of whatever
    operation actually combines two entries.  ``@`` multiplies the rows by
    :func:`row_product`, which the Lie closure probe applies to integer rows
    with no Matrix.
    """

    __slots__ = ("dimension", "_rows")

    def __init__(self, rows: Iterable[Iterable]):
        rows = [[as_scalar(x) for x in row] for row in rows]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        self._init(n, [_nonzero(enumerate(row)) for row in rows])

    def _init(self, n: int, rows: Sequence[dict[int, Scalar]]) -> None:
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "_rows", tuple(rows))

    @classmethod
    def _of(cls, n: int, rows: Sequence[dict[int, Scalar]]) -> "Matrix":
        """Trusted: the n x n matrix whose row i is ``rows[i]``, taken as given.

        Each row must hold no zero entry and list its columns in ascending
        order, nothing of which is checked: ``__eq__``, ``__hash__`` and
        :meth:`entries` rely on it.
        """
        out = object.__new__(cls)
        out._init(n, rows)
        return out

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_entries(cls, n: int, entries: Mapping[tuple[int, int], object]) -> "Matrix":
        """The n x n matrix with the given {(row, column): value} entries, zero elsewhere."""
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        rows: list[dict[int, Scalar]] = [{} for _ in range(n)]
        for (i, j), x in sorted(entries.items()):
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"entry ({i}, {j}) lies outside a {n} x {n} matrix")
            x = as_scalar(x)
            if not scalar_is_zero(x):
                rows[i][j] = x
        return cls._of(n, rows)

    @classmethod
    def zeros(cls, n: int) -> "Matrix":
        return cls.from_entries(n, {})

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.diagonal([Fraction(1)] * n)

    @classmethod
    def diagonal(cls, entries: Sequence) -> "Matrix":
        return cls.from_entries(len(entries), {(i, i): x for i, x in enumerate(entries)})

    @property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        """Dense row-major view, zeros included."""
        return tuple([tuple(row) for row in self._dense(_ZERO, lambda x: x)])

    def _dense(self, zero, render) -> list[list]:
        out = []
        for row in self._rows:
            dense = [zero] * self.dimension
            for j, x in row.items():
                dense[j] = render(x)
            out.append(dense)
        return out

    def entries(self) -> Iterator[tuple[int, int, Scalar]]:
        """The nonzero entries as (row, column, value), row-major."""
        for i, row in enumerate(self._rows):
            for j, x in row.items():
                yield i, j, x

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        n = self.dimension
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"entry ({i}, {j}) lies outside a {n} x {n} matrix")
        return self._rows[i].get(j, _ZERO)

    def _check_dim(self, other: "Matrix"):
        if self.dimension != other.dimension:
            raise ValueError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )

    def _combine(self, other: "Matrix", both, lone) -> "Matrix":
        """Entrywise ``both(a, b)``; an entry only ``other`` has becomes ``lone(b)``."""
        self._check_dim(other)
        rows = []
        for ra, rb in zip(self._rows, other._rows):
            out = {}
            for j in sorted(ra.keys() | rb.keys()):
                if j not in rb:
                    out[j] = ra[j]
                elif j not in ra:
                    out[j] = lone(rb[j])
                else:
                    x = both(ra[j], rb[j])
                    if not scalar_is_zero(x):
                        out[j] = x
            rows.append(out)
        return Matrix._of(self.dimension, rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, lambda a, b: a + b, lambda b: b)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, lambda a, b: a - b, lambda b: -b)

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.dimension, [{j: -x for j, x in row.items()} for row in self._rows])

    def __mul__(self, scalar) -> "Matrix":
        s = as_scalar(scalar)
        return Matrix._of(
            self.dimension, [_nonzero((j, x * s) for j, x in row.items()) for row in self._rows]
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Product; entry (i, j) sums a_ik * b_kj in ascending k.

        Only products of two nonzero entries are formed, each added to its
        entry as k runs upward, so every entry takes the operations of the
        dense triple loop that skips zero factors, in that loop's order: the
        values are that loop's, and a product raises ``ScalarDomainError``
        exactly when the loop would, though where several entries mix
        radicands it may name another of them.
        """
        self._check_dim(other)
        return Matrix._of(self.dimension, [
            {j: acc[j] for j in sorted(acc) if not scalar_is_zero(acc[j])}
            for acc in row_product(self._rows, other._rows)])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.dimension == other.dimension and self._rows == other._rows

    def __hash__(self):
        return hash((self.dimension, tuple(tuple(row.items()) for row in self._rows)))

    def is_zero(self) -> bool:
        return not any(self._rows)

    def to_strings(self) -> list[list[str]]:
        """Row-major rendering for reports."""
        return self._dense(render_scalar(_ZERO), render_scalar)

    def __repr__(self):
        return f"Matrix({self.to_strings()})"


def row_product(a: Sequence[dict], b: Sequence[dict]) -> list[dict]:
    """The rows of AB, for matrices given as rows {column: nonzero entry}:
    entry j of row i sums a_ik * b_kj in ascending k, zero sums kept."""
    rows = []
    for a_row in a:
        acc: dict = {}
        for k, x in a_row.items():
            for j, y in b[k].items():
                acc[j] = acc[j] + x * y if j in acc else x * y
        rows.append(acc)
    return rows


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """AB - BA, exactly."""
    return (a @ b) - (b @ a)


def is_scalar_multiple_of_identity(m: Matrix) -> Optional[Scalar]:
    """The scalar lambda with m == lambda * I, or None if m is not scalar.

    Row i must be {i: lambda}, or empty when lambda is 0; ``IndexError`` for
    the 0 x 0 matrix, which has no lambda.
    """
    lam = m[0, 0]
    if scalar_is_zero(lam):
        return lam if m.is_zero() else None
    for i, row in enumerate(m._rows):
        if len(row) != 1 or row.get(i) != lam:
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
        for i, j, _ in op.entries():
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
