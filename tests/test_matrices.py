from fractions import Fraction as Fr

import pytest

from sl2deform.matrices import (
    BlockSplit,
    Matrix,
    coordinate_block_split,
    is_scalar_multiple_of_identity,
)
from sl2deform.scalars import (
    ScalarDomainError,
    quadext,
    render_scalar,
    scalar_is_zero,
    sqrt_exact,
)

from conftest import assert_names_two_radicands, rand_fraction
from exact_field import Q


def matrix(rows):
    """The Matrix of a square list of dense rows, through ``from_entries``."""
    return Matrix.from_entries(
        len(rows), {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row)})


def rand_matrix(rng, n):
    return matrix([[rand_fraction(rng) for _ in range(n)] for _ in range(n)])


def bracket(a, b):
    """AB - BA: the two products of ``@``, subtracted in the tests' arithmetic."""
    return matrix(dense_entrywise((a @ b).rows, (b @ a).rows, lambda x, y: (Q(x) - y).value))


def test_defining_sl2_commutator():
    h = Matrix.diagonal([1, -1])
    e12 = matrix([[0, 1], [0, 0]])
    assert bracket(h, e12) == matrix([[0, 2], [0, 0]])


def test_identity_commutes(rng):
    b = rand_matrix(rng, 4)
    one = Matrix.diagonal([1] * 4)
    assert one @ b == b @ one == b


def test_spin_half_ladder_bracket():
    # 2x2 spin matrices: [j+, j-] = 2 j0
    jp = matrix([[0, 0], [1, 0]])
    jm = matrix([[0, 1], [0, 0]])
    assert bracket(jp, jm) == Matrix.diagonal([-1, 1])


def test_commutator_antisymmetry_and_jacobi(rng):
    for _ in range(10):
        a, b, c = (rand_matrix(rng, 3) for _ in range(3))
        assert bracket(a, b).rows == as_tuples(
            [[(-Q(x)).value for x in row] for row in bracket(b, a).rows])
        terms = (bracket(a, bracket(b, c)), bracket(b, bracket(c, a)), bracket(c, bracket(a, b)))
        jacobi = [Q(x) + y + z for rows in zip(*(t.rows for t in terms)) for x, y, z in zip(*rows)]
        assert not any(jacobi)


def test_quadext_entries_multiply():
    root2 = sqrt_exact(2)
    m = matrix([[0, root2], [root2, 0]])
    assert (m @ m) == Matrix.diagonal([2, 2])


def test_is_scalar_multiple_of_identity():
    assert is_scalar_multiple_of_identity(Matrix.diagonal([5, 5, 5])) == Fr(5)
    assert is_scalar_multiple_of_identity(Matrix.diagonal([1, 2])) is None
    assert is_scalar_multiple_of_identity(matrix([[1, 1], [0, 1]])) is None


def test_block_split_diagonals_are_singletons():
    ops = [Matrix.diagonal([1, 2, 3]), Matrix.diagonal([4, 5, 6])]
    assert coordinate_block_split(ops).blocks == ((0,), (1,), (2,))


def test_block_split_dense_is_single_block(rng):
    dense = matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert coordinate_block_split([dense]).blocks == ((0, 1, 2),)


def test_block_split_permutation_invariant(rng):
    a = matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    b = matrix([[0, 0, 0], [1, 0, 0], [0, 0, 1]])
    c = Matrix.diagonal([1, 1, 1])
    expected = ((0, 1), (2,))
    for ops in ([a, b, c], [c, b, a], [b, a, c]):
        assert coordinate_block_split(ops).blocks == expected


def test_block_split_needs_matching_dimensions():
    with pytest.raises(ValueError):
        coordinate_block_split([Matrix.diagonal([1] * 2), Matrix.diagonal([1] * 3)])
    with pytest.raises(ValueError):
        coordinate_block_split([])


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
        Matrix.diagonal([1] * 2) @ Matrix.diagonal([1] * 3)


def test_matrix_has_no_ring_arithmetic():
    # values enter through from_entries and diagonal, and @ is the one
    # operation: every other operator raises Python's own TypeError, in both
    # operand orders, against a scalar of each kind and against a Matrix
    root2 = sqrt_exact(2)
    m = matrix([[1, root2], [0, Fr(-1, 2)]])
    binary = (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
              lambda x, y: x / y, lambda x, y: x ** y)
    for other in (2, Fr(1, 3), quadext(1, 1, 2), m, Matrix.diagonal([1, 1])):
        for op in binary:
            for left, right in ((m, other), (other, m)):
                with pytest.raises(TypeError):
                    op(left, right)
    with pytest.raises(TypeError):
        -m
    for args in ([[1, 0], [0, 1]],), ():
        with pytest.raises(TypeError, match="^a Matrix is built by Matrix.from_entries"):
            Matrix(*args)
    # what a Matrix does
    assert m @ m == matrix([[1, quadext(0, Fr(1, 2), 2)], [0, Fr(1, 4)]])
    assert m == matrix([[1, root2], [0, Fr(-1, 2)]]) and m != Matrix.diagonal([1, 1])
    assert hash(m) == hash(Matrix.from_entries(2, {(1, 1): Fr(-1, 2), (0, 0): 1, (0, 1): root2}))
    assert (m[0, 1], m[1, 0]) == (root2, 0)
    assert list(m.entries()) == [(0, 0, 1), (0, 1, root2), (1, 1, Fr(-1, 2))]
    assert m.rows == ((1, root2), (0, Fr(-1, 2)))
    assert m.to_strings() == [["1", "1*sqrt(2)"], ["0", "-1/2"]]


def test_a_product_with_a_foreign_operand_raises_type_error():
    # @ declines what is not a Matrix, so Python raises TypeError rather
    # than an AttributeError from inside the product
    m = Matrix.diagonal([1, 2])
    for other in (2, Fr(1, 3), quadext(1, 1, 2), [[1, 0], [0, 1]]):
        for left, right in ((m, other), (other, m)):
            with pytest.raises(TypeError, match="unsupported operand type"):
                left @ right


def test_block_split_validation():
    with pytest.raises(ValueError):
        BlockSplit(((0, 1), (1, 2)))  # overlapping
    with pytest.raises(ValueError):
        BlockSplit(((0,), (2,)))  # gap


def test_to_strings_row_major():
    m = matrix([[Fr(1, 2), 0], [sqrt_exact(3), 1]])
    assert m.to_strings() == [["1/2", "0"], ["1*sqrt(3)", "1"]]


# -- oracle: a naive dense triple loop -----------------------------------------
#
# The reference below works on lists of rows with every zero stored, the way
# the matrices were once kept, in the tests' own arithmetic (exact_field.Q).
# Each Matrix operation must give the same entries, and raise the same
# ScalarDomainError, as this loop.


def dense_matmul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = Q(0)
            for k in range(n):
                if scalar_is_zero(a[i][k]) or scalar_is_zero(b[k][j]):
                    continue
                acc = acc + Q(a[i][k]) * b[k][j]
            row.append(acc.value)
        out.append(row)
    return out


def dense_entrywise(a, b, op):
    return [[op(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_blocks(a_list, n):
    """Connected components of the off-diagonal pattern, grown to a fixed point."""
    comp = list(range(n))
    changed = True
    while changed:
        changed = False
        for a in a_list:
            for i in range(n):
                for j in range(n):
                    if i != j and not scalar_is_zero(a[i][j]) and comp[i] != comp[j]:
                        low = min(comp[i], comp[j])
                        comp = [low if c in (comp[i], comp[j]) else c for c in comp]
                        changed = True
    groups = {}
    for i, c in enumerate(comp):
        groups.setdefault(c, []).append(i)
    return tuple(sorted(tuple(g) for g in groups.values()))


def dense_scalar_of(a):
    lam = a[0][0]
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if (x != lam) if i == j else not scalar_is_zero(x):
                return None
    return lam


def as_tuples(rows):
    return tuple(tuple(row) for row in rows)


def rand_entry(rng, radicands):
    value = rand_fraction(rng, nonzero=True)
    d = rng.choice(radicands)
    if d == 1 or rng.random() < 0.3:
        return value
    return quadext(rand_fraction(rng), value, d)


def rand_sparse(rng, n, density, radicands):
    return [[rand_entry(rng, radicands) if rng.random() < density else Fr(0)
             for _ in range(n)] for _ in range(n)]


FIELDS = ((1,), (1, 2))  # Q, and Q(sqrt 2) with rational entries mixed in


@pytest.mark.parametrize("radicands", FIELDS)
def test_sparse_matches_the_dense_loop(rng, radicands):
    for n in range(13):
        for density in (0.0, 0.1, 0.3, 0.6, 1.0):
            a, b = (rand_sparse(rng, n, density, radicands) for _ in range(2))
            ma, mb = matrix(a), matrix(b)
            assert ma.dimension == n and ma.rows == as_tuples(a)
            assert ma.to_strings() == [[render_scalar(x) for x in row] for row in a]
            assert ma.is_zero() == all(scalar_is_zero(x) for row in a for x in row)
            assert (ma @ mb).rows == as_tuples(dense_matmul(a, b))
            assert (ma == mb) == (a == b)
            assert ma == matrix(a) and hash(ma) == hash(matrix(a))
            assert (ma == Matrix.from_entries(n, {})) == ma.is_zero()
            if n:
                assert coordinate_block_split([ma, mb]).blocks == dense_blocks([a, b], n)
                assert is_scalar_multiple_of_identity(ma) == dense_scalar_of(a)


@pytest.mark.parametrize("radicands", FIELDS)
def test_scalar_multiples_of_identity_match_the_dense_test(rng, radicands):
    with pytest.raises(IndexError):
        is_scalar_multiple_of_identity(matrix([]))
    with pytest.raises(IndexError):
        dense_scalar_of([])
    for n in range(1, 13):
        for lam in (Fr(0), rand_entry(rng, radicands)):
            a = [[lam if i == j else Fr(0) for j in range(n)] for i in range(n)]
            variants = [a]
            i, j = rng.randrange(n), rng.randrange(n)
            bumped = [row[:] for row in a]
            bumped[i][j] = (Q(bumped[i][j]) + rand_entry(rng, radicands)).value
            variants.append(bumped)
            for rows in variants:
                got = is_scalar_multiple_of_identity(matrix(rows))
                assert got == dense_scalar_of(rows)
            assert is_scalar_multiple_of_identity(matrix(a)) == lam


def assert_same_or_both_mix_radicands(sparse, dense, radicands):
    """Equal values, or both sides raise ScalarDomainError naming two distinct
    radicands of the inputs."""
    results = []
    for fn in (sparse, dense):
        try:
            results.append(fn())
        except ScalarDomainError as exc:
            assert_names_two_radicands(str(exc), radicands)
            results.append(ScalarDomainError)
    assert results[0] == results[1]


def test_mixed_radicands_raise_what_the_dense_loop_raises(rng):
    # the k-ordered terms of an entry meet sqrt(2) first, then sqrt(3) ...
    r2, r3, r5 = (sqrt_exact(d) for d in (2, 3, 5))
    a = [[r2, Fr(0), r3], [Fr(0)] * 3, [Fr(0)] * 3]
    b = [[Fr(1), Fr(0), Fr(0)], [Fr(0)] * 3, [Fr(1), Fr(0), Fr(0)]]
    with pytest.raises(ScalarDomainError, match=r"sqrt\(2\) and sqrt\(3\)"):
        matrix(a) @ matrix(b)
    # ... and the other way round when k runs the other way
    a = [[r3, Fr(0), r2], [Fr(0)] * 3, [Fr(0)] * 3]
    with pytest.raises(ScalarDomainError, match=r"sqrt\(3\) and sqrt\(2\)"):
        matrix(a) @ matrix(b)
    # entry (0, 0) meets a clash at k = 2, entry (0, 1) at k = 1: the product
    # raises, naming either
    a = [[r2, r3, r5], [Fr(0)] * 3, [Fr(0)] * 3]
    b = [[Fr(1), Fr(1), Fr(0)], [Fr(0), Fr(1), Fr(0)], [Fr(1), Fr(0), Fr(0)]]
    with pytest.raises(ScalarDomainError):
        matrix(a) @ matrix(b)
    # random matrices over three fields: the same value, or both raise
    radicands = (1, 2, 3, 5)
    for n in range(1, 9):
        for density in (0.2, 0.5, 1.0):
            a, b = (rand_sparse(rng, n, density, radicands) for _ in range(2))
            ma, mb = matrix(a), matrix(b)
            assert_same_or_both_mix_radicands(
                lambda: (ma @ mb).rows, lambda: as_tuples(dense_matmul(a, b)), radicands)


def test_from_entries_matches_dense_rows(rng):
    for n in range(6):
        rows = rand_sparse(rng, n, 0.4, (1, 2))
        entries = {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row)}
        built = Matrix.from_entries(n, entries)
        assert built.rows == as_tuples(rows)
        nonzero = {key: x for key, x in reversed(entries.items()) if not scalar_is_zero(x)}
        assert built == Matrix.from_entries(n, nonzero)
        assert hash(built) == hash(Matrix.from_entries(n, nonzero))
        assert list(built.entries()) == [
            (i, j, x) for (i, j), x in sorted(entries.items()) if not scalar_is_zero(x)
        ]
    # a position outside the matrix is refused in either index, zero or not
    for i, j in ((0, 2), (2, 0), (-1, 1), (1, -1)):
        for value in (1, 0):
            with pytest.raises(ValueError, match=rf"^entry \({i}, {j}\) lies outside a 2 x 2 matrix$"):
                Matrix.from_entries(2, {(i, j): value})


def test_from_numerators_reads_unreduced_pairs_in_any_order(rng):
    # each nonzero entry as its numerator and denominator times k, zeros as
    # (0, k) pairs, the entries shuffled: the matrix of the dense rows
    for n in range(6):
        rows = rand_sparse(rng, n, 0.5, (1, 2, 3))
        pairs = []
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                k = rng.randint(1, 4)
                if isinstance(x, Fr):
                    pairs.append(((i, j), (x.numerator * k, x.denominator * k)))
                else:
                    pairs.append(((i, j), ((x.p * k, x.q * k, x.d), x.n * k)))
        rng.shuffle(pairs)
        built = Matrix.from_numerators(n, dict(pairs))
        assert built.rows == as_tuples(rows)
        assert built == matrix(rows) and hash(built) == hash(matrix(rows))


def test_classic_spin_twenty_exactly():
    from sl2deform.algebra import AlgebraParams, casimir_matrix, check_deformed_relations

    from reference_solvers import build_classic_sl2_matrices

    classic = AlgebraParams(0, 0, 2, 0)
    triple = build_classic_sl2_matrices(40)
    assert check_deformed_relations(triple, classic).all_zero
    j = Fr(20)
    assert casimir_matrix(triple, classic) == Matrix.diagonal([j * (j + 1)] * 41)
