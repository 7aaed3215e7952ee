"""The case data derived from the exponent pairs, against the published constants."""

import itertools
import random
from fractions import Fraction as Fr

import pytest

from sl2deform.cases import CaseId, derive_case
from sl2deform.diffops import V3, DiffOp, MonomialSpace
from sl2deform.reps import (
    RepSpec,
    TrivialAlgebraError,
    intrinsic_gamma_and_product,
    solve_case,
)
from sl2deform.scalars import NegativeRadicandError, ScalarDomainError, quadext

from conftest import rand_fraction
from published_cases import PUBLISHED, published_intrinsic, published_solution


def _seeded_spaces(count=30):
    rng = random.Random("three-monomial-spaces")
    return [MonomialSpace(tuple(sorted(rng.sample(range(14), 3)))) for _ in range(count)]


def test_the_space_0_2_5_from_0_to_5():
    data = derive_case(MonomialSpace((0, 2, 5)), 0, 5)
    assert (data.q, data.two_m1, data.a) == (2, -2, Fr(1, 10))
    assert (data.step, data.k_mid) == (5, 2)


def test_every_label_sits_on_its_exponent():
    # e(M) = (k_M - k_mid)/step is the diagonal eigenvalue less c of the
    # single-step representation with the case's (q, M1, a), on every space
    for space in _seeded_spaces():
        for k_src, k_dst in itertools.combinations(space.exponents, 2):
            data = derive_case(space, k_src, k_dst)
            spec = RepSpec(two_j=2, q=data.q, two_m1=data.two_m1, a=data.a, c=0, f=1, g=1)
            for m, k in zip((-1, 0, 1), space.exponents):
                assert spec.diagonal_value(m) == Fr(k - data.k_mid, data.step), (space, m)


def test_every_ladder_moves_one_monomial_and_brackets_to_a_cubic():
    for space in _seeded_spaces():
        for k_src, k_dst in itertools.combinations(space.exponents, 2):
            data = derive_case(space, k_src, k_dst)
            for k in space.exponents:
                assert data.raise_op.image(k) == ({k_dst: 1} if k == k_src else {})
                assert data.lower_op.image(k) == ({k_src: 1} if k == k_dst else {})
            bracket = data.raise_op.commutator(data.lower_op).symbolic_action()
            assert list(bracket) == [0] and bracket[0] == data.bracket_poly
            assert len(data.bracket_poly) == 4 and data.bracket_poly[3] != 0


def test_the_three_labels_are_the_derivable_ones():
    derivable = []
    for k_src, k_dst in itertools.product(range(5), repeat=2):
        try:
            derive_case(V3, k_src, k_dst)
        except ValueError:
            continue
        derivable.append((k_src, k_dst))
    assert derivable == [(0, 1), (0, 3), (1, 3)]
    # in CaseId order: M = -1 -> 0, 0 -> 1 and -1 -> 1
    pairs = [(0, 1), (1, 3), (0, 3)]
    assert [case.data for case in CaseId] == [derive_case(V3, *pair) for pair in pairs]
    assert [(case.data.q, case.data.two_m1) for case in CaseId] == [(1, -2), (1, 0), (2, -2)]


def test_a_label_that_does_not_fit_is_rejected():
    for space, k_src, k_dst in [
        (V3, 3, 0),                       # reversed
        (V3, 1, 1),                       # equal
        (V3, 0, 2),                       # 2 is not an exponent of the space
        (V3, -1, 1),
        (MonomialSpace((0, 1)), 0, 1),    # two exponents
        (MonomialSpace((0, 1, 3, 6)), 0, 1),  # four exponents
    ]:
        with pytest.raises(ValueError, match="three exponents"):
            derive_case(space, k_src, k_dst)


def test_derived_ladders_and_product_shift_are_the_published_ones():
    for case in CaseId:
        data, pub = case.data, PUBLISHED[case]
        assert data.raise_op == DiffOp(pub.raise_terms)
        assert data.lower_op == DiffOp(pub.lower_terms)
        assert data.energies[0] == pub.fg_shift


def test_derived_solutions_match_the_published_closed_forms():
    """Seeded grid: both branches at nonnegative radicands, alpha = 0, and the
    intrinsic locus, for each case."""
    rng = random.Random(4)
    for case in CaseId:
        pub = PUBLISHED[case]
        for _ in range(60):
            alpha = rand_fraction(rng, nonzero=True)
            beta = rand_fraction(rng)
            target = Fr(rng.randint(0, 60), rng.choice((1, 4, 9)))
            gamma = pub.gamma_for_radicand(alpha, beta, target / pub.radicand_premul)
            for branch in ("upper", "lower"):
                sol = solve_case(case, alpha, beta, gamma, branch)
                assert sol.branch == branch
                assert (sol.c, sol.delta, sol.fg) == published_solution(
                    case, alpha, beta, gamma, branch
                ), (case, alpha, beta, gamma, branch)

            beta0, gamma0 = rand_fraction(rng, nonzero=True), rand_fraction(rng)
            sol = solve_case(case, 0, beta0, gamma0, "lower")
            assert sol.branch == "alpha-zero"
            assert (sol.c, sol.delta, sol.fg) == published_solution(
                case, Fr(0), beta0, gamma0
            )

            intr = intrinsic_gamma_and_product(case, alpha, beta)
            assert (intr.gamma, intr.fg, intr.c, intr.branch) == published_intrinsic(
                case, alpha, beta
            )
            sol = solve_case(case, alpha, beta, intr.gamma, intr.branch)
            assert (sol.c, sol.fg) == (intr.c, intr.fg)
            assert (sol.c, sol.delta, sol.fg) == published_solution(
                case, alpha, beta, intr.gamma, intr.branch
            )


def test_negative_radicands_are_rejected_where_the_published_ones_are_negative():
    rng = random.Random(5)
    for case in CaseId:
        pub = PUBLISHED[case]
        for _ in range(10):
            alpha = rand_fraction(rng, nonzero=True)
            beta = rand_fraction(rng)
            target = -Fr(rng.randint(1, 60), rng.choice((1, 4, 9)))
            gamma = pub.gamma_for_radicand(alpha, beta, target)
            with pytest.raises(NegativeRadicandError):
                solve_case(case, alpha, beta, gamma, "upper")


def test_the_parameter_region_is_guarded_once_for_both_solvers():
    root2 = quadext(0, 1, 2)
    for call in (
        lambda: solve_case(CaseId.CASE1, 0, 0, 1),
        lambda: intrinsic_gamma_and_product(CaseId.CASE1, 0, 0),
    ):
        with pytest.raises(TrivialAlgebraError):
            call()
    for call in (
        lambda: solve_case(CaseId.CASE1, root2, 1, 0),
        lambda: intrinsic_gamma_and_product(CaseId.CASE1, root2, 1),
    ):
        with pytest.raises(ValueError, match="must be rational"):
            call()
    # an irrational radicand has no root in the extension
    for call in (
        lambda: solve_case(CaseId.CASE3, 1, 0, root2),
        lambda: solve_case(CaseId.CASE2, 1, root2, root2),
    ):
        with pytest.raises(ScalarDomainError, match="irrational"):
            call()
    # an irrational beta is fine while beta^2 keeps the radicand rational
    for case in CaseId:
        intr = intrinsic_gamma_and_product(case, 1, 1 + root2)
        sol = solve_case(case, 1, 1 + root2, intr.gamma, intr.branch)
        assert (sol.c, sol.fg) == (intr.c, intr.fg)
    with pytest.raises(ValueError, match="alpha != 0"):
        intrinsic_gamma_and_product(CaseId.CASE1, 0, 1)
    # alpha = 0 keeps irrational beta and gamma
    sol = solve_case(CaseId.CASE1, 0, root2, 1)
    assert sol.branch == "alpha-zero"


def test_each_case_carries_the_space_it_was_derived_on():
    assert [case.data.space for case in CaseId] == [V3] * 3
    space = MonomialSpace((0, 2, 5))
    assert derive_case(space, 0, 5).space is space
