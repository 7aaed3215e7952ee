from fractions import Fraction as Fr

import pytest

from sl2deform.algebra import (
    AlgebraParams,
    MatrixTriple,
    build_classic_sl2_diffops,
    build_classic_sl2_matrices,
    casimir_matrix,
    check_deformed_relations,
    classic_norm_squares,
    cubic_in,
)
from sl2deform.cases import CaseId, build_case_realization
from sl2deform.diffops import V3
from sl2deform.matrices import Matrix, commutator
from sl2deform.reps import case_rep_spec, intrinsic_gamma_and_product, solve_case
from sl2deform.scalars import sqrt_exact

from conftest import rand_fraction

CLASSIC = AlgebraParams(0, 0, 2, 0)


def solved_case_matrices(case, alpha, beta):
    intr = intrinsic_gamma_and_product(case, alpha, beta)
    sol = solve_case(case, alpha, beta, intr.gamma, intr.branch)
    spec = case_rep_spec(case, sol)
    ops = build_case_realization(case, alpha, beta, f=spec.f, g=spec.g, c=sol.c)
    triple = MatrixTriple(*(op.matrix_on_space(V3) for op in ops))
    params = AlgebraParams(alpha, beta, intr.gamma, sol.delta)
    return triple, params


def test_classic_spin_zero_is_trivial():
    triple = build_classic_sl2_matrices(0)
    assert triple.dimension == 1
    assert triple.j0.is_zero() and triple.jplus.is_zero() and triple.jminus.is_zero()


def test_classic_spin_half_ladders_are_unit():
    triple = build_classic_sl2_matrices(1)
    assert triple.jplus.rows[1][0] == Fr(1)
    assert triple.jminus.rows[0][1] == Fr(1)
    assert triple.j0 == Matrix.diagonal([Fr(-1, 2), Fr(1, 2)])


def test_classic_spin_one_raising_entry():
    # raising from the lowest state multiplies by sqrt(2)
    triple = build_classic_sl2_matrices(2)
    assert triple.jplus.rows[1][0] == sqrt_exact(2)


def test_classic_relations_up_to_spin_three():
    for two_j in range(0, 7):
        triple = build_classic_sl2_matrices(two_j)
        assert check_deformed_relations(triple, CLASSIC).all_zero, two_j


def test_classic_diffop_diagonal_action():
    j0, jp, jm = build_classic_sl2_diffops(4)
    # x D - j multiplies x^k by (k - j)
    action = j0.symbolic_action().as_dict()
    assert list(action) == [0]
    for k in range(5):
        assert action[0](k) == k - Fr(4, 2)
    assert jm.apply_to_monomial(0) == []


def test_classic_diffops_match_matrices_on_normalized_basis():
    two_j = 2
    ops = build_classic_sl2_diffops(two_j)
    norms = classic_norm_squares(two_j)
    space_exponents = tuple(range(two_j + 1))
    from sl2deform.diffops import MonomialSpace

    space = MonomialSpace(space_exponents)
    built = [op.matrix_on_space(space, norm_squares=norms) for op in ops]
    classic = build_classic_sl2_matrices(two_j)
    assert built[0] == classic.j0
    assert built[1] == classic.jplus
    assert built[2] == classic.jminus


def test_zero_matrices_zero_params():
    zeros = MatrixTriple(Matrix.zeros(3), Matrix.zeros(3), Matrix.zeros(3))
    assert check_deformed_relations(zeros, AlgebraParams(0, 0, 0, 0)).all_zero


def test_constant_term_cannot_vanish_on_zero_matrices():
    zeros = MatrixTriple(Matrix.zeros(3), Matrix.zeros(3), Matrix.zeros(3))
    res = check_deformed_relations(zeros, AlgebraParams(0, 0, 0, 1))
    assert res.bracket == -Matrix.identity(3)
    assert not res.all_zero


def test_casimir_with_zero_params_is_plain_product(rng):
    triple = build_classic_sl2_matrices(2)
    cas = casimir_matrix(triple, AlgebraParams(0, 0, 0, 0))
    assert cas == triple.jplus @ triple.jminus


def test_casimir_commutes_when_relations_hold(rng):
    triples = [
        (build_classic_sl2_matrices(3), CLASSIC),
        solved_case_matrices(CaseId.CASE1, Fr(2), Fr(3)),
        solved_case_matrices(CaseId.CASE3, Fr(-1), Fr(2)),
    ]
    for triple, params in triples:
        assert check_deformed_relations(triple, params).all_zero
        cas = casimir_matrix(triple, params)
        for gen in (triple.j0, triple.jplus, triple.jminus):
            assert commutator(cas, gen).is_zero()


def test_case2_casimir_vanishes_at_beta_zero():
    triple, params = solved_case_matrices(CaseId.CASE2, Fr(1), Fr(0))
    assert casimir_matrix(triple, params).is_zero()


def test_case3_casimir_value_at_unit_alpha():
    triple, params = solved_case_matrices(CaseId.CASE3, Fr(1), Fr(0))
    cas = casimir_matrix(triple, params)
    assert cas == Matrix.identity(3) * Fr(-1045, 82944)


def test_case1_casimir_value_at_unit_alpha():
    triple, params = solved_case_matrices(CaseId.CASE1, Fr(1), Fr(0))
    assert casimir_matrix(triple, params) == Matrix.identity(3) * Fr(315, 1024)


def test_gauge_scaling_leaves_bracket_and_casimir_alone(rng):
    triple, params = solved_case_matrices(CaseId.CASE1, Fr(2), Fr(3))
    for lam in (Fr(2), Fr(-1, 3), Fr(7, 5)):
        scaled = MatrixTriple(triple.j0, triple.jplus * lam, triple.jminus * (1 / lam))
        res0 = check_deformed_relations(triple, params)
        res1 = check_deformed_relations(scaled, params)
        assert res1.bracket == res0.bracket
        assert res1.all_zero == res0.all_zero
        assert casimir_matrix(scaled, params) == casimir_matrix(triple, params)


def test_cubic_in_matches_direct_expansion(rng):
    m = Matrix([[rand_fraction(rng) for _ in range(3)] for _ in range(3)])
    params = AlgebraParams(
        rand_fraction(rng), rand_fraction(rng), rand_fraction(rng), rand_fraction(rng)
    )
    direct = (
        (m @ m @ m) * params.alpha
        + (m @ m) * params.beta
        + m * params.gamma
        + Matrix.identity(3) * params.delta
    )
    assert cubic_in(m, params) == direct


def test_triple_dimension_validation():
    with pytest.raises(ValueError):
        MatrixTriple(Matrix.zeros(2), Matrix.zeros(3), Matrix.zeros(3))
