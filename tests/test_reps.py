import re
import types
from fractions import Fraction as Fr

import pytest

from sl2deform.algebra import AlgebraParams, casimir_matrix, check_deformed_relations
from sl2deform.cases import CaseId, derive_case
from sl2deform.diffops import MonomialSpace
from sl2deform.matrices import Matrix
from sl2deform.reps import (
    CaseSolution,
    RepSpec,
    TrivialAlgebraError,
    build_new_rep_matrices,
    case_rep_spec,
    constraint_residuals,
    decompose_rep,
    intrinsic_gamma_and_product,
    solve_case,
)
from sl2deform.scalars import NegativeRadicandError, QuadExt, scalar_is_zero

from conftest import rand_fraction
from published_cases import PUBLISHED


def cubic(t, params):
    return params.alpha * t**3 + params.beta * t**2 + params.gamma * t + params.delta


def rand_params(rng, **kw):
    return AlgebraParams(*(rand_fraction(rng, **kw) for _ in range(4)))


# -- label bookkeeping ---------------------------------------------------------


def test_step_and_a_for_the_three_cases():
    assert [case.data.step for case in CaseId] == [1, 2, 3]
    assert [case.data.a for case in CaseId] == [Fr(1, 2), Fr(1, 4), Fr(1, 6)]


def test_the_cases_are_the_three_ladders_of_v3():
    # (q, M1) of M = -1 -> 0, 0 -> 1 and -1 -> 1, on the exponents 0, 1 and 3
    assert [(case.data.q, Fr(case.data.two_m1, 2)) for case in CaseId] == [
        (1, Fr(-1)), (1, Fr(0)), (2, Fr(-1))
    ]
    assert [case.data.raise_op.image(k) for case, k in zip(CaseId, (0, 1, 0))] == [
        {1: 1}, {3: 1}, {3: 1}
    ]


def test_rep_spec_validation():
    with pytest.raises(ValueError):
        RepSpec(two_j=2, q=3, two_m1=-2, a=1, c=0, f=1, g=1)  # q > 2J
    with pytest.raises(ValueError):
        RepSpec(two_j=2, q=1, two_m1=2, a=1, c=0, f=1, g=1)  # M1 + q > J
    with pytest.raises(ValueError):
        RepSpec(two_j=2, q=1, two_m1=-1, a=1, c=0, f=1, g=1)  # parity


# -- matrix construction ---------------------------------------------------------


def case1_spec(c, f=1, g=1):
    return RepSpec(two_j=2, q=1, two_m1=-2, a=Fr(1, 2), c=c, f=f, g=g)


def test_case1_diagonal_entries():
    spec = case1_spec(c=Fr(5))
    triple = build_new_rep_matrices(spec)
    assert triple.j0 == Matrix.diagonal([Fr(4), Fr(5), Fr(7)])  # (c-1, c, c+2)


def test_zero_ladder_coefficients():
    spec = case1_spec(c=Fr(1, 3), f=0, g=0)
    triple = build_new_rep_matrices(spec)
    assert triple.jplus.is_zero() and triple.jminus.is_zero()
    assert not triple.j0.is_zero()


def test_case3_raising_position():
    spec = RepSpec(two_j=2, q=2, two_m1=-2, a=Fr(1, 6), c=0, f=Fr(7), g=Fr(2))
    triple = build_new_rep_matrices(spec)
    # raise by q=2 means column of M=-1 (index 0) to row of M=+1 (index 2)
    assert triple.jplus.rows[2][0] == Fr(7)
    assert triple.jminus.rows[0][2] == Fr(2)


# -- constraint residuals ----------------------------------------------------------


def test_case1_first_residual_reduces_to_plain_cubic(rng):
    # for (q=1, M1=-1, a=1/2) the raised-state argument is exactly c
    for _ in range(10):
        params = rand_params(rng)
        spec = case1_spec(c=rand_fraction(rng), f=rand_fraction(rng), g=rand_fraction(rng))
        res = constraint_residuals(spec, params)
        assert res[0] == cubic(spec.c, params) - spec.f * spec.g


def test_case3_extra_constraint_is_cubic_at_c(rng):
    for _ in range(10):
        params = rand_params(rng)
        spec = RepSpec(
            two_j=2, q=2, two_m1=-2, a=Fr(1, 6),
            c=rand_fraction(rng), f=rand_fraction(rng), g=rand_fraction(rng),
        )
        res = constraint_residuals(spec, params)
        assert len(res) == 3
        assert res[2] == cubic(spec.c, params)


ELIMINATED = {
    # the two ladder constraints eliminate f*g into one polynomial in c
    CaseId.CASE1: lambda c, p: (
        2 * p.alpha * c**3 + (2 * p.beta - 3 * p.alpha) * c**2
        + (2 * p.gamma + 3 * p.alpha - 2 * p.beta) * c
        + 2 * p.delta - p.gamma + p.beta - p.alpha
    ),
    CaseId.CASE2: lambda c, p: (
        2 * p.alpha * c**3 + (2 * p.beta + 3 * p.alpha) * c**2
        + (2 * p.gamma + 3 * p.alpha + 2 * p.beta) * c
        + 2 * p.delta + p.gamma + p.beta + p.alpha
    ),
    CaseId.CASE3: lambda c, p: (
        2 * p.alpha * c**3 + (2 * p.beta + p.alpha) * c**2
        + (2 * p.gamma + Fr(5, 3) * p.alpha + Fr(2, 3) * p.beta) * c
        + 2 * p.delta + p.gamma / 3 + Fr(5, 9) * p.beta + Fr(7, 27) * p.alpha
    ),
}


def test_elimination_identity_per_case(rng):
    for case, closed_form in ELIMINATED.items():
        data = case.data
        for _ in range(10):
            params = rand_params(rng)
            c = rand_fraction(rng)
            spec = RepSpec(
                two_j=2, q=data.q, two_m1=data.two_m1, a=data.a,
                c=c, f=rand_fraction(rng), g=rand_fraction(rng),
            )
            res = constraint_residuals(spec, params)
            assert res[0] + res[1] == closed_form(c, params)


# -- case solving ---------------------------------------------------------------------


def test_case1_alpha_zero_closed_form():
    sol = solve_case(CaseId.CASE1, 0, 1, 0)
    assert sol == CaseSolution(
        c=Fr(-7, 10), delta=Fr(-169, 100), fg=sol.fg, branch="alpha-zero"
    )
    # fg comes from the raised-state cubic at c, here beta*c^2 + delta
    assert sol.fg == sol.c**2 + sol.delta
    residuals = constraint_residuals(
        case_rep_spec(CaseId.CASE1, sol), AlgebraParams(0, 1, 0, sol.delta)
    )
    assert all(scalar_is_zero(r) for r in residuals)


def test_case2_alpha_zero_closed_form():
    sol = solve_case(CaseId.CASE2, 0, 1, 0)
    assert (sol.c, sol.delta) == (Fr(-1, 8), Fr(-25, 64))


def test_case3_alpha_zero_closed_form():
    sol = solve_case(CaseId.CASE3, 0, 1, 0)
    assert (sol.c, sol.delta) == (Fr(-5, 6), Fr(-25, 36))


def test_trivial_pair_rejected():
    with pytest.raises(TrivialAlgebraError):
        solve_case(CaseId.CASE1, 0, 0, 1)


@pytest.mark.parametrize("exponents", [(0, 1, 2), (0, 2, 4)])
def test_an_outer_ladder_with_s1_zero_is_refused_by_both_solvers(exponents):
    # evenly spaced: the outer ladder's label sum S1 = e_dst + e_src - 2 e_oth is 0
    case = types.SimpleNamespace(data=derive_case(MonomialSpace(exponents), 0, exponents[2]))
    assert case.data.label_sums[0] == 0
    message = re.escape(f"the ladder x^0 -> x^{exponents[2]} on {list(exponents)} has S1 = 0")
    for alpha in (1, 0):
        with pytest.raises(ValueError, match=message):
            solve_case(case, alpha, 1, 1)
    with pytest.raises(ValueError, match=message):
        intrinsic_gamma_and_product(case, 1, 1)


def test_negative_radicand_rejected():
    # alpha = 1, beta = 0, gamma huge positive makes the radicand negative
    with pytest.raises(NegativeRadicandError):
        solve_case(CaseId.CASE1, 1, 0, 100, "upper")


def test_case1_intrinsic_lower_branch_is_rational():
    intr = intrinsic_gamma_and_product(CaseId.CASE1, Fr(2), Fr(3))
    assert intr.gamma == Fr(-19, 8)
    sol = solve_case(CaseId.CASE1, Fr(2), Fr(3), intr.gamma, "lower")
    assert sol.c == Fr(-5, 4)
    assert isinstance(sol.c, Fr) and isinstance(sol.delta, Fr)


def test_both_branches_solve_the_constraints(rng):
    for case in CaseId:
        for _ in range(5):
            alpha = rand_fraction(rng, nonzero=True)
            beta = rand_fraction(rng)
            # pick gamma so the published radicand is a chosen nonnegative target
            target = Fr(rng.randint(0, 40))
            gamma = PUBLISHED[case].gamma_for_radicand(alpha, beta, target)
            for branch in ("upper", "lower"):
                sol = solve_case(case, alpha, beta, gamma, branch)
                params = AlgebraParams(alpha, beta, gamma, sol.delta)
                res = constraint_residuals(case_rep_spec(case, sol), params)
                assert all(scalar_is_zero(r) for r in res), (case, branch)


def test_irrational_solutions_still_solve(rng):
    # a non-square radicand takes c and delta into a quadratic extension
    sol = solve_case(CaseId.CASE1, 1, 0, Fr(-579, 300) - 1, "upper")
    assert isinstance(sol.c, QuadExt)
    params = AlgebraParams(1, 0, Fr(-579, 300) - 1, sol.delta)
    res = constraint_residuals(case_rep_spec(CaseId.CASE1, sol), params)
    assert all(scalar_is_zero(r) for r in res)


def test_intrinsic_products():
    assert intrinsic_gamma_and_product(CaseId.CASE1, 2, 0).fg == Fr(3)
    assert intrinsic_gamma_and_product(CaseId.CASE2, 16, 0).fg == Fr(3)
    assert intrinsic_gamma_and_product(CaseId.CASE3, -18, 0).fg == Fr(1)


def test_case2_radicand_collapses_under_intrinsic_gamma(rng):
    for _ in range(10):
        alpha = rand_fraction(rng, nonzero=True)
        beta = rand_fraction(rng)
        gamma = intrinsic_gamma_and_product(CaseId.CASE2, alpha, beta).gamma
        assert PUBLISHED[CaseId.CASE2].radicand_at(alpha, beta, gamma) == (3 * alpha) ** 2


def test_branch_conditions():
    # the intrinsic c is on the upper branch for alpha < 0 in case 1 and for
    # alpha > 0 in cases 2 and 3
    for case, alpha, branch in [
        (CaseId.CASE1, Fr(1), "lower"),
        (CaseId.CASE1, Fr(-2), "upper"),
        (CaseId.CASE2, Fr(1), "upper"),
        (CaseId.CASE2, Fr(-1, 3), "lower"),
        (CaseId.CASE3, Fr(-1), "lower"),
        (CaseId.CASE3, Fr(5, 2), "upper"),
    ]:
        intr = intrinsic_gamma_and_product(case, alpha, 0)
        assert intr.branch == branch, (case, alpha)
        assert solve_case(case, alpha, 0, intr.gamma, branch).c == intr.c


# -- equivalence with the matrix relations ----------------------------------------------


def satisfying_samples(rng):
    """Mix of representation/parameter pairs that satisfy the relations."""
    out = []
    # the solved three-dimensional cases, both branches
    for case in CaseId:
        alpha = rand_fraction(rng, nonzero=True)
        beta = rand_fraction(rng)
        intr = intrinsic_gamma_and_product(case, alpha, beta)
        sol = solve_case(case, alpha, beta, intr.gamma, intr.branch)
        out.append((case_rep_spec(case, sol),
                    AlgebraParams(alpha, beta, intr.gamma, sol.delta)))
    # two-dimensional ladders: no spectator states, delta closes the system
    for _ in range(10):
        a = rand_fraction(rng)
        c = rand_fraction(rng)
        alpha, beta, gamma = (rand_fraction(rng) for _ in range(3))
        spec0 = RepSpec(two_j=1, q=1, two_m1=-1, a=a, c=c, f=1, g=1)
        h_hi = spec0.diagonal_value(Fr(1, 2))
        h_lo = spec0.diagonal_value(Fr(-1, 2))
        poly = lambda t: alpha * t**3 + beta * t**2 + gamma * t
        delta = -(poly(h_hi) + poly(h_lo)) / 2
        params = AlgebraParams(alpha, beta, gamma, delta)
        fg = poly(h_hi) + delta
        f = rand_fraction(rng, nonzero=True)
        spec = RepSpec(two_j=1, q=1, two_m1=-1, a=a, c=c, f=f, g=fg / f)
        out.append((spec, params))
    return out


def random_spec(rng):
    two_j = rng.choice([1, 2, 2, 3, 4])
    q = rng.randint(1, two_j)
    two_m1 = rng.choice(range(-two_j, two_j - 2 * q + 1, 2))
    return RepSpec(
        two_j=two_j, q=q, two_m1=two_m1,
        a=rand_fraction(rng), c=rand_fraction(rng),
        f=rand_fraction(rng), g=rand_fraction(rng),
    )


def test_constraints_equal_matrix_relations(rng):
    samples = satisfying_samples(rng)
    samples += [(random_spec(rng), rand_params(rng)) for _ in range(40)]
    seen_true = seen_false = 0
    for spec, params in samples:
        by_constraints = all(
            scalar_is_zero(r) for r in constraint_residuals(spec, params)
        )
        by_matrices = check_deformed_relations(
            build_new_rep_matrices(spec), params
        ).all_zero
        assert by_constraints == by_matrices
        seen_true += by_constraints
        seen_false += not by_constraints
    assert seen_true >= 5 and seen_false >= 5  # genuinely mixed


def test_gauge_freedom_of_the_product_split(rng):
    case = CaseId.CASE1
    alpha, beta = Fr(2), Fr(3)
    intr = intrinsic_gamma_and_product(case, alpha, beta)
    sol = solve_case(case, alpha, beta, intr.gamma, "lower")
    params = AlgebraParams(alpha, beta, intr.gamma, sol.delta)
    reference = None
    for t in (Fr(1), Fr(3), Fr(-2, 5)):
        spec = case_rep_spec(case, sol, f=t)
        assert spec.f * spec.g == sol.fg
        assert all(scalar_is_zero(r) for r in constraint_residuals(spec, params))
        triple = build_new_rep_matrices(spec)
        cas = casimir_matrix(triple, params)
        blocks = tuple(b.indices for b in decompose_rep(triple))
        if reference is None:
            reference = (cas, blocks)
        else:
            assert (cas, blocks) == reference


# -- decomposition ------------------------------------------------------------------------


def solved_triple(case, alpha, beta):
    intr = intrinsic_gamma_and_product(case, alpha, beta)
    sol = solve_case(case, alpha, beta, intr.gamma, intr.branch)
    params = AlgebraParams(alpha, beta, intr.gamma, sol.delta)
    return build_new_rep_matrices(case_rep_spec(case, sol)), params, sol


def test_case1_splits_off_the_top_state():
    triple, params, sol = solved_triple(CaseId.CASE1, Fr(2), Fr(3))
    blocks = decompose_rep(triple)
    assert [b.indices for b in blocks] == [(0, 1), (2,)]
    assert [b.two_j_label for b in blocks] == [1, 0]
    beta_over = Fr(3) / (3 * Fr(2))
    assert blocks[1].c_label == Fr(5, 4) - beta_over
    assert blocks[0].c_label == (sol.c - 1, sol.c)


def test_case2_splits_off_the_bottom_state():
    triple, params, sol = solved_triple(CaseId.CASE2, Fr(3), Fr(-1))
    blocks = decompose_rep(triple)
    assert [b.indices for b in blocks] == [(0,), (1, 2)]
    assert blocks[0].c_label == Fr(-1, 2) - Fr(-1) / (3 * Fr(3))


def test_case3_splits_off_the_middle_state():
    triple, params, sol = solved_triple(CaseId.CASE3, Fr(5), Fr(2))
    blocks = decompose_rep(triple)
    assert [b.indices for b in blocks] == [(0, 2), (1,)]
    assert blocks[1].c_label == Fr(-1, 12) - Fr(2) / (3 * Fr(5))
    assert blocks[1].c_label == sol.c
