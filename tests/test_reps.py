import dataclasses
import json
import os
import random
import re
import sys
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from sl2deform import cli
from sl2deform.algebra import AlgebraParams, casimir_matrix, check_deformed_relations
from sl2deform.cases import CaseId, build_case_realization, derive_case
from sl2deform.diffops import MonomialSpace
from sl2deform.matrices import Matrix
from sl2deform.reps import (
    CaseSolution,
    TrivialAlgebraError,
    carried_label,
    decompose_rep,
    intrinsic_gamma_and_product,
    solve_case,
)
from sl2deform.scalars import (
    NegativeRadicandError,
    QuadExt,
    ScalarDomainError,
    quadext,
    render_scalar,
    scalar_is_zero,
)

import reference_solvers as reference
from conftest import image, rand_fraction
from exact_field import Q
from published_cases import PUBLISHED
from reference_solvers import (
    RepSpec,
    build_new_rep_matrices,
    case_rep_spec,
    constraint_residuals,
    diagonal_value,
)


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
    assert [image(case.data.raise_op, k) for case, k in zip(CaseId, (0, 1, 0))] == [
        {1: 1}, {3: 1}, {3: 1}
    ]


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
    sol = solve_case(CaseId.CASE1.data, 0, 1, 0)
    assert sol == CaseSolution(
        c=Fr(-7, 10), delta=Fr(-169, 100), fg=sol.fg, branch="alpha-zero"
    )
    # fg comes from the raised-state cubic at c, here beta*c^2 + delta
    assert sol.fg == sol.c**2 + sol.delta
    residuals = constraint_residuals(
        case_rep_spec(CaseId.CASE1.data, sol), AlgebraParams(0, 1, 0, sol.delta)
    )
    assert all(scalar_is_zero(r) for r in residuals)


def test_case2_alpha_zero_closed_form():
    sol = solve_case(CaseId.CASE2.data, 0, 1, 0)
    assert (sol.c, sol.delta) == (Fr(-1, 8), Fr(-25, 64))


def test_case3_alpha_zero_closed_form():
    sol = solve_case(CaseId.CASE3.data, 0, 1, 0)
    assert (sol.c, sol.delta) == (Fr(-5, 6), Fr(-25, 36))


def test_trivial_pair_rejected():
    with pytest.raises(TrivialAlgebraError):
        solve_case(CaseId.CASE1.data, 0, 0, 1)


@pytest.mark.parametrize("exponents", [(0, 1, 2), (0, 2, 4)])
def test_an_outer_ladder_with_s1_zero_is_refused_by_both_solvers(exponents):
    # evenly spaced: the outer ladder's label sum S1 = e_dst + e_src - 2 e_oth is 0
    data = derive_case(MonomialSpace(exponents), 0, exponents[2])
    assert data.label_sums[0] == 0
    message = re.escape(f"the ladder x^0 -> x^{exponents[2]} on {list(exponents)} has S1 = 0")
    for alpha in (1, 0):
        with pytest.raises(ValueError, match=message):
            solve_case(data, alpha, 1, 1)
    with pytest.raises(ValueError, match=message):
        intrinsic_gamma_and_product(data, 1, 1)


def test_negative_radicand_rejected():
    # alpha = 1, beta = 0, gamma huge positive makes the radicand negative
    with pytest.raises(NegativeRadicandError):
        solve_case(CaseId.CASE1.data, 1, 0, 100, "upper")


def test_case1_intrinsic_lower_branch_is_rational():
    intr = intrinsic_gamma_and_product(CaseId.CASE1.data, Fr(2), Fr(3))
    assert intr.gamma == Fr(-19, 8)
    sol = solve_case(CaseId.CASE1.data, Fr(2), Fr(3), intr.gamma, "lower")
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
                sol = solve_case(case.data, alpha, beta, gamma, branch)
                params = AlgebraParams(alpha, beta, gamma, sol.delta)
                res = constraint_residuals(case_rep_spec(case.data, sol), params)
                assert all(scalar_is_zero(r) for r in res), (case, branch)


def test_irrational_solutions_still_solve(rng):
    # a non-square radicand takes c and delta into a quadratic extension
    sol = solve_case(CaseId.CASE1.data, 1, 0, Fr(-579, 300) - 1, "upper")
    assert isinstance(sol.c, QuadExt)
    params = AlgebraParams(1, 0, Fr(-579, 300) - 1, sol.delta)
    res = constraint_residuals(case_rep_spec(CaseId.CASE1.data, sol), params)
    assert all(scalar_is_zero(r) for r in res)


def test_intrinsic_products():
    assert intrinsic_gamma_and_product(CaseId.CASE1.data, 2, 0).fg == Fr(3)
    assert intrinsic_gamma_and_product(CaseId.CASE2.data, 16, 0).fg == Fr(3)
    assert intrinsic_gamma_and_product(CaseId.CASE3.data, -18, 0).fg == Fr(1)


def test_case2_radicand_collapses_under_intrinsic_gamma(rng):
    for _ in range(10):
        alpha = rand_fraction(rng, nonzero=True)
        beta = rand_fraction(rng)
        gamma = intrinsic_gamma_and_product(CaseId.CASE2.data, alpha, beta).gamma
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
        intr = intrinsic_gamma_and_product(case.data, alpha, 0)
        assert intr.branch == branch, (case, alpha)
        assert solve_case(case.data, alpha, 0, intr.gamma, branch).c == intr.c


# -- equivalence with the matrix relations ----------------------------------------------


def satisfying_samples(rng):
    """Mix of representation/parameter pairs that satisfy the relations."""
    out = []
    # the solved three-dimensional cases, both branches
    for case in CaseId:
        alpha = rand_fraction(rng, nonzero=True)
        beta = rand_fraction(rng)
        intr = intrinsic_gamma_and_product(case.data, alpha, beta)
        sol = solve_case(case.data, alpha, beta, intr.gamma, intr.branch)
        out.append((case_rep_spec(case.data, sol),
                    AlgebraParams(alpha, beta, intr.gamma, sol.delta)))
    # two-dimensional ladders: no spectator states, delta closes the system
    for _ in range(10):
        a = rand_fraction(rng)
        c = rand_fraction(rng)
        alpha, beta, gamma = (rand_fraction(rng) for _ in range(3))
        spec0 = RepSpec(two_j=1, q=1, two_m1=-1, a=a, c=c, f=1, g=1)
        h_hi = diagonal_value(spec0, Fr(1, 2))
        h_lo = diagonal_value(spec0, Fr(-1, 2))
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
    intr = intrinsic_gamma_and_product(case.data, alpha, beta)
    sol = solve_case(case.data, alpha, beta, intr.gamma, "lower")
    params = AlgebraParams(alpha, beta, intr.gamma, sol.delta)
    first = None
    for t in (Fr(1), Fr(3), Fr(-2, 5)):
        spec = case_rep_spec(case.data, sol, f=t)
        assert spec.f * spec.g == sol.fg
        assert all(scalar_is_zero(r) for r in constraint_residuals(spec, params))
        triple = build_new_rep_matrices(spec)
        cas = casimir_matrix(triple, params)
        blocks = tuple(b.indices for b in decompose_rep(triple))
        if first is None:
            first = (cas, blocks)
        else:
            assert (cas, blocks) == first


# -- decomposition ------------------------------------------------------------------------


def solved_triple(case, alpha, beta):
    intr = intrinsic_gamma_and_product(case.data, alpha, beta)
    sol = solve_case(case.data, alpha, beta, intr.gamma, intr.branch)
    params = AlgebraParams(alpha, beta, intr.gamma, sol.delta)
    return build_new_rep_matrices(case_rep_spec(case.data, sol)), params, sol


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


# -- the numerator solvers against the Fraction-pair reference ------------------------

_Q = st.builds(Fr, st.integers(-12, 12), st.integers(1, 8))
# Q, Q(sqrt 2) and Q(sqrt 3): quadext folds sqrt(1) into the rational part
_SCALAR = st.builds(quadext, _Q, _Q, st.sampled_from([1, 2, 3]))


def _oracle_cases():
    """The three V3 cases, a ladder on each of 12 seeded spaces and the two
    evenly spaced outer ladders, whose S1 is 0."""
    rng = random.Random("numerator-solver-oracle")
    out = [case.data for case in CaseId]
    for _ in range(12):
        space = MonomialSpace(tuple(sorted(rng.sample(range(14), 3))))
        out.append(derive_case(space, *sorted(rng.sample(space.exponents, 2))))
    out += [derive_case(MonomialSpace(e), 0, e[2]) for e in ((0, 1, 2), (0, 2, 4))]
    return out


_ORACLE_CASES = _oracle_cases()


def _normal_gamma(data, alpha, beta, tau, rho):
    """gamma at which the radicand of solve_case is (alpha tau)^2 rho, rho >= 1."""
    s1, s2, s3 = data.label_sums
    a, b = 3 * s1, 3 * s2
    p = ((b * b - 4 * a * a * tau * tau * rho) / (4 * a) - s3) / s1
    s = Q(beta) / (3 * alpha)
    return (alpha * (p + 3 * s * s)).value


def _outcome(fn, *args):
    """fn(*args) as (type, value) pairs, field by field, or the type and
    message of the error it raises."""
    try:
        value = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    if dataclasses.is_dataclass(value):
        value = [getattr(value, field.name) for field in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return [(type(v), v) for v in value]
    return type(value), value


def _same_as_reference(data, alpha, beta, gamma, branch, f):
    """The intrinsic locus, the solution, the printed label's shift and, for
    a solution, its realization, each as the reference forms them, and at
    f = 1 the reference's constraint residuals of the solution, all zero;
    returns the solution's outcome."""
    assert _outcome(intrinsic_gamma_and_product, data, alpha, beta) == _outcome(
        reference.intrinsic_gamma_and_product, data, alpha, beta)
    if isinstance(alpha, Fr) and alpha:
        assert _outcome(carried_label, Fr(-1, 6), alpha, beta) == _outcome(
            reference.printed_label, Fr(-1, 6), alpha, beta)
    solved = _outcome(solve_case, data, alpha, beta, gamma, branch)
    assert solved == _outcome(reference.solve_case, data, alpha, beta, gamma, branch)
    if isinstance(solved, list):
        c, delta, fg, _ = (v for _, v in solved)
        assert build_case_realization(data, f, fg, c) == reference.build_case_realization(
            data, f, fg, c)
        if f == 1:
            spec = case_rep_spec(data, CaseSolution(c, delta, fg, solved[3][1]))
            params = AlgebraParams(alpha, beta, gamma, delta)
            assert all(v == 0 for v in constraint_residuals(spec, params))
    return solved


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    data=st.sampled_from(_ORACLE_CASES),
    alpha=st.one_of(st.just(Fr(0)), *[_Q.filter(bool)] * 4, _SCALAR),
    beta=_SCALAR,
    gamma_mode=st.sampled_from(["free", "normal", "intrinsic"]),
    gamma=_SCALAR,
    tau=_Q,
    rho=st.sampled_from([1, 2, 3, 6]),
    branch=st.sampled_from(["upper", "lower", "upper", "lower", "middle"]),
    f=st.one_of(st.just(1), _SCALAR),
)
def test_the_numerator_solvers_equal_the_fraction_reference(
        data, alpha, beta, gamma_mode, gamma, tau, rho, branch, f):
    # a free gamma over Q(sqrt d) mostly gives an irrational radicand; the
    # normal-form gamma gives the radicand (alpha tau)^2 rho, whose root may
    # lie over another radicand than beta, and the intrinsic one a square
    on_locus = isinstance(alpha, Fr) and alpha and data.label_sums[0]
    if on_locus and gamma_mode == "normal":
        gamma = _normal_gamma(data, alpha, beta, tau, rho)
    elif on_locus and gamma_mode == "intrinsic" and not isinstance(
            _outcome(reference.intrinsic_gamma_and_product, data, alpha, beta), tuple):
        gamma = reference.intrinsic_gamma_and_product(data, alpha, beta).gamma
    _same_as_reference(data, alpha, beta, gamma, branch, f)


def test_each_solver_outcome_equals_the_fraction_reference():
    root2, root3, one_root2 = quadext(0, 1, 2), quadext(0, 1, 3), quadext(1, 1, 2)
    case1, case2, case3 = (case.data for case in CaseId)
    flat = derive_case(MonomialSpace((0, 1, 2)), 0, 2)
    expected = [
        (case1, 0, 0, 1, "upper", TrivialAlgebraError),
        (case1, root2, 1, 0, "upper", ValueError),
        (case2, 0, root2, root3, "upper", ScalarDomainError),  # gamma's radicand named first
        (case2, 1, root2, root3, "lower", ScalarDomainError),
        (flat, 1, 1, 1, "upper", ValueError),  # S1 = 0
        (flat, 0, 1, 1, "upper", ValueError),
        (case1, 1, 0, 0, "middle", ValueError),
        (case1, 1, 0, 100, "upper", NegativeRadicandError),
        (case1, 3, root3, quadext(Fr(1, 2), 1, 3), "lower", ScalarDomainError),  # irrational radicand
        # beta over sqrt(2) meets a root over sqrt(3) where c is summed
        (case3, Fr(-2), root2, _normal_gamma(case3, Fr(-2), root2, Fr(1), 3), "upper",
         ScalarDomainError),
        (case3, Fr(5, 3), one_root2, _normal_gamma(case3, Fr(5, 3), one_root2, Fr(2), 2),
         "lower", QuadExt),
        (case1, Fr(1, 2), root3, _normal_gamma(case1, Fr(1, 2), root3, Fr(3), 1), "upper",
         QuadExt),
        (case2, 0, root2, one_root2, "middle", QuadExt),
        (case1, 2, 3, Fr(-19, 8), "lower", Fr),
    ]
    for data, alpha, beta, gamma, branch, kind in expected:
        outcome = _same_as_reference(data, alpha, beta, gamma, branch, root2)
        assert outcome[0] is kind if isinstance(outcome, tuple) else outcome[0][0] is kind, (
            alpha, beta, gamma, outcome)
    assert _same_as_reference(case2, 0, root2, one_root2, "upper", 1)[0] == (
        QuadExt, quadext(Fr(-5, 8), Fr(-1, 4), 2))


_FRACTION_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
    "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__pow__",
    "__rpow__", "__neg__", "__pos__", "__abs__",
)


def test_verify_case_solves_without_fraction_or_quadext_operators(monkeypatch, capsys):
    # intrinsic, explicit rational and explicit irrational gamma, and alpha = 0
    # with beta and gamma over sqrt(2), on each case: the solvers, the
    # realization and the flagged label compute on numerators, so no Fraction
    # operator is called from reps, cases or cli (QuadExt has no operators)
    callers = []

    def nearest_caller():
        frame = sys._getframe(2)
        while os.path.basename(frame.f_code.co_filename) in ("scalars.py", "fractions.py"):
            frame = frame.f_back
        return os.path.basename(frame.f_code.co_filename)

    def spy(owner, name, kind):
        original = getattr(owner, name)

        def spied(*args):
            callers.append((kind, nearest_caller()))
            return original(*args)

        monkeypatch.setattr(owner, name, spied)

    # off the locus, with beta and gamma over sqrt(2) and the root sqrt(2)/2
    irrational = [render_scalar(_normal_gamma(case.data, 1, quadext(1, 1, 2), Fr(1, 2), 2))
                  for case in CaseId]
    for name in _FRACTION_OPERATORS:
        spy(Fr, name, "Fraction")
    reports = []
    for case, gamma in zip(CaseId, irrational):
        for run in (
            ["--alpha", "-1", "--beta", "sqrt(2)"],
            ["--alpha", "3", "--beta", "-1/4", "--gamma", "-4183/720"],
            ["--alpha", "1", "--beta", "1 + sqrt(2)", "--gamma", gamma, "--branch", "lower"],
            ["--alpha", "0", "--beta", "sqrt(2)", "--gamma", "1 + sqrt(2)"],
        ):
            assert cli.main(["verify-case", "--case", str(case.value)] + run) == 0, run
            reports.append(json.loads(capsys.readouterr().out))
    assert Fr(1, 2) + 1 == Fr(3, 2)  # the spy sees Fraction arithmetic
    monkeypatch.undo()
    assert ("Fraction", "test_reps.py") in callers
    assert [c for c in callers if c[1] in ("reps.py", "cases.py", "cli.py")] == []
    assert sum("sqrt(2)" in report["sections"][1]["values"]["c"] for report in reports) == 9
