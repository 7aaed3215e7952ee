from fractions import Fraction as Fr

import pytest

from sl2deform.matrices import (
    BlockSplit,
    Matrix,
    commutator,
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


def rand_matrix(rng, n):
    return Matrix([[rand_fraction(rng) for _ in range(n)] for _ in range(n)])


def test_defining_sl2_commutator():
    h = Matrix.diagonal([1, -1])
    e12 = Matrix([[0, 1], [0, 0]])
    assert commutator(h, e12) == e12 * 2


def test_identity_commutes(rng):
    b = rand_matrix(rng, 4)
    assert commutator(Matrix.identity(4), b).is_zero()


def test_spin_half_ladder_bracket():
    # 2x2 spin matrices: [j+, j-] = 2 j0
    j0 = Matrix.diagonal([Fr(-1, 2), Fr(1, 2)])
    jp = Matrix([[0, 0], [1, 0]])
    jm = Matrix([[0, 1], [0, 0]])
    assert commutator(jp, jm) == j0 * 2


def test_commutator_antisymmetry_and_jacobi(rng):
    for _ in range(10):
        a, b, c = (rand_matrix(rng, 3) for _ in range(3))
        assert commutator(a, b) == -commutator(b, a)
        jacobi = (
            commutator(a, commutator(b, c))
            + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b))
        )
        assert jacobi.is_zero()


def test_quadext_entries_multiply():
    root2 = sqrt_exact(2)
    m = Matrix([[0, root2], [root2, 0]])
    assert (m @ m) == Matrix.identity(2) * 2


def test_is_scalar_multiple_of_identity():
    assert is_scalar_multiple_of_identity(Matrix.diagonal([5, 5, 5])) == Fr(5)
    assert is_scalar_multiple_of_identity(Matrix.diagonal([1, 2])) is None
    assert is_scalar_multiple_of_identity(Matrix([[1, 1], [0, 1]])) is None


def test_block_split_diagonals_are_singletons():
    ops = [Matrix.diagonal([1, 2, 3]), Matrix.diagonal([4, 5, 6])]
    assert coordinate_block_split(ops).blocks == ((0,), (1,), (2,))


def test_block_split_dense_is_single_block(rng):
    dense = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert coordinate_block_split([dense]).blocks == ((0, 1, 2),)


def test_block_split_permutation_invariant(rng):
    a = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    b = Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 1]])
    c = Matrix.diagonal([1, 1, 1])
    expected = ((0, 1), (2,))
    for ops in ([a, b, c], [c, b, a], [b, a, c]):
        assert coordinate_block_split(ops).blocks == expected


def test_block_split_needs_matching_dimensions():
    with pytest.raises(ValueError):
        coordinate_block_split([Matrix.identity(2), Matrix.identity(3)])
    with pytest.raises(ValueError):
        coordinate_block_split([])


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        Matrix.identity(2) + Matrix.identity(3)
    with pytest.raises(ValueError):
        Matrix.identity(2) @ Matrix.identity(3)


def test_matrix_is_square():
    with pytest.raises(ValueError):
        Matrix([[1, 2, 3], [4, 5, 6]])


def test_block_split_validation():
    with pytest.raises(ValueError):
        BlockSplit(((0, 1), (1, 2)))  # overlapping
    with pytest.raises(ValueError):
        BlockSplit(((0,), (2,)))  # gap


def test_to_strings_row_major():
    m = Matrix([[Fr(1, 2), 0], [sqrt_exact(3), 1]])
    assert m.to_strings() == [["1/2", "0"], ["1*sqrt(3)", "1"]]


# -- oracle: a naive dense triple loop -----------------------------------------
#
# The reference below works on lists of rows with every zero stored, the way
# the matrices were once kept.  Each Matrix operation must give the same
# entries, and raise the same ScalarDomainError, as this loop.


def dense_matmul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = Fr(0)
            for k in range(n):
                if scalar_is_zero(a[i][k]) or scalar_is_zero(b[k][j]):
                    continue
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
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
    scalars = [Fr(0), Fr(-3, 2), quadext(1, 1, 2) if 2 in radicands else Fr(5)]
    for n in range(13):
        for density in (0.0, 0.1, 0.3, 0.6, 1.0):
            a, b = (rand_sparse(rng, n, density, radicands) for _ in range(2))
            ma, mb = Matrix(a), Matrix(b)
            assert ma.dimension == n and ma.rows == as_tuples(a)
            assert ma.to_strings() == [[render_scalar(x) for x in row] for row in a]
            assert ma.is_zero() == all(scalar_is_zero(x) for row in a for x in row)
            assert (ma + mb).rows == as_tuples(dense_entrywise(a, b, lambda x, y: x + y))
            assert (ma - mb).rows == as_tuples(dense_entrywise(a, b, lambda x, y: x - y))
            assert (-ma).rows == as_tuples([[-x for x in row] for row in a])
            for s in scalars:
                expected = as_tuples([[x * s for x in row] for row in a])
                assert (ma * s).rows == expected and (s * ma).rows == expected
            ab, ba = dense_matmul(a, b), dense_matmul(b, a)
            assert (ma @ mb).rows == as_tuples(ab)
            assert commutator(ma, mb).rows == as_tuples(
                dense_entrywise(ab, ba, lambda x, y: x - y))
            assert (ma == mb) == (a == b)
            assert ma == Matrix(a) and hash(ma) == hash(Matrix(a))
            assert (ma == Matrix.zeros(n)) == ma.is_zero()
            if n:
                assert coordinate_block_split([ma, mb]).blocks == dense_blocks([a, b], n)
                assert is_scalar_multiple_of_identity(ma) == dense_scalar_of(a)


@pytest.mark.parametrize("radicands", FIELDS)
def test_scalar_multiples_of_identity_match_the_dense_test(rng, radicands):
    with pytest.raises(IndexError):
        is_scalar_multiple_of_identity(Matrix([]))
    with pytest.raises(IndexError):
        dense_scalar_of([])
    for n in range(1, 13):
        for lam in (Fr(0), rand_entry(rng, radicands)):
            a = [[lam if i == j else Fr(0) for j in range(n)] for i in range(n)]
            variants = [a]
            i, j = rng.randrange(n), rng.randrange(n)
            bumped = [row[:] for row in a]
            bumped[i][j] = bumped[i][j] + rand_entry(rng, radicands)
            variants.append(bumped)
            for rows in variants:
                got = is_scalar_multiple_of_identity(Matrix(rows))
                assert got == dense_scalar_of(rows)
            assert is_scalar_multiple_of_identity(Matrix(a)) == lam


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
        Matrix(a) @ Matrix(b)
    # ... and the other way round when k runs the other way
    a = [[r3, Fr(0), r2], [Fr(0)] * 3, [Fr(0)] * 3]
    with pytest.raises(ScalarDomainError, match=r"sqrt\(3\) and sqrt\(2\)"):
        Matrix(a) @ Matrix(b)
    # entry (0, 0) meets a clash at k = 2, entry (0, 1) at k = 1: the product
    # raises, naming either
    a = [[r2, r3, r5], [Fr(0)] * 3, [Fr(0)] * 3]
    b = [[Fr(1), Fr(1), Fr(0)], [Fr(0), Fr(1), Fr(0)], [Fr(1), Fr(0), Fr(0)]]
    with pytest.raises(ScalarDomainError):
        Matrix(a) @ Matrix(b)
    # random matrices over three fields: the same value, or both raise
    radicands = (1, 2, 3, 5)
    for n in range(1, 9):
        for density in (0.2, 0.5, 1.0):
            a, b = (rand_sparse(rng, n, density, radicands) for _ in range(2))
            ma, mb = Matrix(a), Matrix(b)
            cases = (
                (lambda: (ma @ mb).rows, lambda: as_tuples(dense_matmul(a, b))),
                (lambda: (ma + mb).rows,
                 lambda: as_tuples(dense_entrywise(a, b, lambda x, y: x + y))),
                (lambda: (ma - mb).rows,
                 lambda: as_tuples(dense_entrywise(a, b, lambda x, y: x - y))),
            )
            for sparse, dense in cases:
                assert_same_or_both_mix_radicands(sparse, dense, radicands)


def test_from_entries_matches_dense_rows(rng):
    for n in range(6):
        rows = rand_sparse(rng, n, 0.4, (1, 2))
        entries = {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row)}
        built = Matrix.from_entries(n, entries)
        assert built == Matrix(rows)
        assert list(built.entries()) == [
            (i, j, x) for (i, j), x in sorted(entries.items()) if not scalar_is_zero(x)
        ]
    with pytest.raises(ValueError):
        Matrix.from_entries(2, {(0, 2): 1})


def test_classic_spin_twenty_exactly():
    from sl2deform.algebra import (
        AlgebraParams,
        build_classic_sl2_matrices,
        casimir_matrix,
        check_deformed_relations,
    )

    classic = AlgebraParams(0, 0, 2, 0)
    triple = build_classic_sl2_matrices(40)
    assert check_deformed_relations(triple, classic).all_zero
    j = Fr(20)
    assert casimir_matrix(triple, classic) == Matrix.identity(41) * (j * (j + 1))
