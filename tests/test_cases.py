"""The case data derived from the labels, against the published constants."""

import random
from fractions import Fraction as Fr

import pytest

from sl2deform.cases import CaseId, derive_case, enumerate_case_labels, p_and_a
from sl2deform.diffops import V3, DiffOp
from sl2deform.reps import (
    TrivialAlgebraError,
    intrinsic_gamma_and_product,
    solve_case,
)
from sl2deform.scalars import NegativeRadicandError, ScalarDomainError, quadext

from conftest import rand_fraction
from published_cases import PUBLISHED, published_intrinsic, published_solution


def test_every_label_sits_on_the_exponents_of_v3():
    # p fixes p*e(M) = M^2/2 + 3M/2, so M = -1, 0, 1 land on 0, 1, 3 for any
    # label; the cases differ only in where the ladder starts and ends
    for q in range(1, 5):
        for two_m1 in range(-7, 8):
            try:
                p, a = p_and_a(q, Fr(two_m1, 2))
            except ValueError:
                continue
            linear = Fr(1, q) - a * q - a * two_m1
            assert tuple(1 + p * (a * m * m + linear * m) for m in (-1, 0, 1)) == V3.exponents


def test_the_three_labels_are_the_derivable_ones():
    derivable = []
    for q in range(1, 4):
        for two_m1 in range(-5, 6):
            try:
                derive_case(q, Fr(two_m1, 2))
            except ValueError:
                continue
            derivable.append((q, Fr(two_m1, 2)))
    assert derivable == enumerate_case_labels(2)
    assert [(case.data.q, Fr(case.data.two_m1, 2)) for case in CaseId] == derivable


def test_a_label_that_does_not_fit_is_rejected():
    for q, m1 in [(2, 0), (3, -1), (1, 1), (1, -2)]:  # ladder leaves -1..1; p = 0
        with pytest.raises(ValueError):
            derive_case(q, m1)


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
