"""The case data derived from the exponent pairs, against the published constants."""

import dataclasses
import fractions
import itertools
import random
import sys
from fractions import Fraction as Fr

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from sl2deform import cases
from sl2deform.algebra import AlgebraParams, MatrixTriple, check_deformed_relations
from sl2deform.cases import CaseData, CaseId, build_case_realization, derive_case
from sl2deform.diffops import V3, DiffOp, MonomialSpace, closure_check
from sl2deform.reps import TrivialAlgebraError, intrinsic_gamma_and_product, solve_case
from sl2deform.scalars import NegativeRadicandError, ScalarDomainError, quadext, scalar_is_zero

import reference_solvers as reference
from conftest import image, rand_fraction
from exact_field import Q
from published_cases import PUBLISHED, published_intrinsic, published_solution


def _seeded_spaces(count=30):
    rng = random.Random("three-monomial-spaces")
    return [MonomialSpace(tuple(sorted(rng.sample(range(14), 3)))) for _ in range(count)]


def test_the_space_0_2_5_from_0_to_5():
    data = derive_case(MonomialSpace((0, 2, 5)), 0, 5)
    assert (data.q, data.two_m1, data.a) == (2, -2, Fr(1, 10))
    assert (data.step, data.k_mid) == (5, 2)
    # the solvers take it as they take the paper's cases
    intr = intrinsic_gamma_and_product(data, 1, 2)
    sol = solve_case(data, 1, 2, intr.gamma, intr.branch)
    assert (intr.gamma, intr.c, intr.fg, intr.branch) == (
        Fr(1147, 1200), Fr(-43, 60), Fr(-3, 50), "upper"
    )
    assert (sol.c, sol.fg, sol.delta) == (Fr(-43, 60), Fr(-3, 50), Fr(559, 21600))


def test_every_label_sits_on_its_exponent():
    # e(M) = (k_M - k_mid)/step is the diagonal eigenvalue less c of the
    # single-step representation with the case's (q, M1, a), on every space
    for space in _seeded_spaces():
        for k_src, k_dst in itertools.combinations(space.exponents, 2):
            data = derive_case(space, k_src, k_dst)
            spec = reference.RepSpec(two_j=2, q=data.q, two_m1=data.two_m1, a=data.a, c=0, f=1,
                                     g=1)
            for m, k in zip((-1, 0, 1), space.exponents):
                assert reference.diagonal_value(spec, m) == Fr(k - data.k_mid, data.step), (
                    space, m)


def test_every_ladder_moves_one_monomial_and_brackets_to_a_cubic():
    for space in _seeded_spaces():
        for k_src, k_dst in itertools.combinations(space.exponents, 2):
            data = derive_case(space, k_src, k_dst)
            for k in space.exponents:
                assert image(data.raise_op, k) == ({k_dst: 1} if k == k_src else {})
                assert image(data.lower_op, k) == ({k_src: 1} if k == k_dst else {})
            bracket = data.raise_op.commutator(data.lower_op).symbolic_action()
            assert list(bracket) == [0] and bracket[0] == data.bracket_poly
            assert len(data.bracket_poly) == 4 and data.bracket_poly[3] != 0


def _atlas():
    """The 360 ladders of the spaces {0, a, b} with 0 < a < b <= 16."""
    return [(MonomialSpace((0, a, b)), k_src, k_dst)
            for b in range(2, 17) for a in range(1, b)
            for k_src, k_dst in itertools.combinations((0, a, b), 2)]


def _typed(value):
    """A field value with the type of every scalar in it."""
    if isinstance(value, tuple):
        return tuple(_typed(v) for v in value)
    return value, type(value)


def test_the_integer_derivation_is_the_fraction_one_on_every_atlas_ladder():
    atlas = _atlas()
    assert len(atlas) == 360
    for space, k_src, k_dst in atlas:
        got = derive_case(space, k_src, k_dst)
        want = reference.derive_case(space, k_src, k_dst)
        for field in dataclasses.fields(CaseData):
            name = field.name
            assert _typed(getattr(got, name)) == _typed(getattr(want, name)), (space, name)
        assert got.raise_op.to_text() == want.raise_op.to_text()
        assert got.lower_op.to_text() == want.lower_op.to_text()
        assert got.numerators == want.numerators


def test_deriving_the_cases_enters_no_fraction_arithmetic():
    # the cases are derived on integers: from a cases.py frame a Fraction is
    # only made, read, compared or hashed, never added, multiplied or divided
    allowed = {"__new__", "numerator", "denominator", "__eq__", "__hash__"}
    entered: dict = {}

    def spy(frame, event, _arg):
        if (event == "call" and frame.f_code.co_filename == fractions.__file__
                and frame.f_back is not None
                and frame.f_back.f_code.co_filename == cases.__file__):
            entered[frame.f_code.co_name] = entered.get(frame.f_code.co_name, 0) + 1

    ladders = [(space, k_src, k_dst) for space in [V3, *_seeded_spaces()]
               for k_src, k_dst in itertools.combinations(space.exponents, 2)]
    sys.setprofile(spy)
    try:
        for space, k_src, k_dst in ladders:
            derive_case(space, k_src, k_dst)
    finally:
        sys.setprofile(None)
    assert entered.get("__new__", 0) >= 12 * len(ladders), entered
    assert set(entered) <= allowed, entered


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
                sol = solve_case(case.data, alpha, beta, gamma, branch)
                assert sol.branch == branch
                assert (sol.c, sol.delta, sol.fg) == published_solution(
                    case, alpha, beta, gamma, branch
                ), (case, alpha, beta, gamma, branch)

            beta0, gamma0 = rand_fraction(rng, nonzero=True), rand_fraction(rng)
            sol = solve_case(case.data, 0, beta0, gamma0, "lower")
            assert sol.branch == "alpha-zero"
            assert (sol.c, sol.delta, sol.fg) == published_solution(
                case, Fr(0), beta0, gamma0
            )

            intr = intrinsic_gamma_and_product(case.data, alpha, beta)
            assert (intr.gamma, intr.fg, intr.c, intr.branch) == published_intrinsic(
                case, alpha, beta
            )
            sol = solve_case(case.data, alpha, beta, intr.gamma, intr.branch)
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
                solve_case(case.data, alpha, beta, gamma, "upper")


def test_the_parameter_region_is_guarded_once_for_both_solvers():
    root2 = quadext(0, 1, 2)
    for call in (
        lambda: solve_case(CaseId.CASE1.data, 0, 0, 1),
        lambda: intrinsic_gamma_and_product(CaseId.CASE1.data, 0, 0),
    ):
        with pytest.raises(TrivialAlgebraError):
            call()
    for call in (
        lambda: solve_case(CaseId.CASE1.data, root2, 1, 0),
        lambda: intrinsic_gamma_and_product(CaseId.CASE1.data, root2, 1),
    ):
        with pytest.raises(ValueError, match="must be rational"):
            call()
    # an irrational radicand has no root in the extension
    for call in (
        lambda: solve_case(CaseId.CASE3.data, 1, 0, root2),
        lambda: solve_case(CaseId.CASE2.data, 1, root2, root2),
    ):
        with pytest.raises(ScalarDomainError, match="irrational"):
            call()
    # an irrational beta is fine while beta^2 keeps the radicand rational
    for case in CaseId:
        intr = intrinsic_gamma_and_product(case.data, 1, quadext(1, 1, 2))
        sol = solve_case(case.data, 1, quadext(1, 1, 2), intr.gamma, intr.branch)
        assert (sol.c, sol.fg) == (intr.c, intr.fg)
    with pytest.raises(ValueError, match="alpha != 0"):
        intrinsic_gamma_and_product(CaseId.CASE1.data, 0, 1)
    # alpha = 0 keeps irrational beta and gamma
    sol = solve_case(CaseId.CASE1.data, 0, root2, 1)
    assert sol.branch == "alpha-zero"
    # but not over two radicands: the shift would square beta's away and
    # meet sqrt(3) alone, failing later on an irrational radicand instead
    for case, alpha in itertools.product(CaseId, (0, 1)):
        with pytest.raises(ScalarDomainError) as err:
            solve_case(case.data, alpha, root2, quadext(0, 1, 3))
        assert str(err.value) == "mixed radicands sqrt(3) and sqrt(2)", (case, alpha)


def test_each_case_carries_the_space_it_was_derived_on():
    assert [case.data.space for case in CaseId] == [V3] * 3
    space = MonomialSpace((0, 2, 5))
    assert derive_case(space, 0, 5).space is space


def test_printed_label_constants_against_the_intrinsic_label():
    # the paper's whole-module constant is c* in cases 1 and 2, and twice c*
    # in case 3, the discrepancy verify-case reports
    c_star = {case: case.data.intrinsic[1] for case in CaseId}
    assert c_star == {CaseId.CASE1: Fr(-3, 4), CaseId.CASE2: Fr(0), CaseId.CASE3: Fr(-1, 12)}
    for case in (CaseId.CASE1, CaseId.CASE2):
        assert case.printed_label_const == c_star[case]
    assert CaseId.CASE3.printed_label_const == Fr(-1, 6) != c_star[CaseId.CASE3]


def _residue(expr, root, square):
    """The numerator of ``expr`` reduced modulo root^2 = square, in ``root``."""
    num, _ = sympy.fraction(sympy.together(expr))
    return sympy.expand(sympy.rem(sympy.expand(num), root**2 - square, root))


def test_the_transport_law_is_the_published_closed_forms():
    """Normal form at (1, 0, p), carried by c = c' - s, f*g = alpha fg' and
    delta = alpha (s^3 + p s + delta'), against the published expressions as
    identities in symbolic (alpha, beta, gamma); alpha = 0 likewise from
    (0, 1, 0) with delta = beta (s^2 + delta')."""
    alpha, beta, gamma, root = sympy.symbols("alpha beta gamma root")
    for case in CaseId:
        data, pub = case.data, PUBLISHED[case]
        s1, s2, s3 = map(sympy.Rational, data.label_sums)
        e_dst, _, e_oth = map(sympy.Rational, data.energies)
        p_star, c_star, fg_star = map(sympy.Rational, data.intrinsic)
        ra, rb, rc = map(sympy.Rational, pub.radicand)
        published_radicand = pub.radicand_premul * (
            ra * alpha**2 + rb * beta**2 + rc * alpha * gamma
        )

        s = beta / (3 * alpha)
        p = gamma / alpha - 3 * s**2
        a, b, c0 = 3 * s1, 3 * s2, p * s1 + s3
        radicand = alpha**2 * (b * b - 4 * a * c0) / (4 * a * a)
        assert sympy.simplify(radicand * pub.c_sqrt_den**2 - published_radicand) == 0
        assert -b / (2 * a) == sympy.Rational(pub.c_const)

        for sign in (1, -1):
            # root/(c_sqrt_den alpha) is the signed square root over alpha
            c_prime = -b / (2 * a) + sign * root / (pub.c_sqrt_den * alpha)
            delta_prime = -((c_prime + e_oth) ** 3 + p * (c_prime + e_oth))
            fg_prime = (c_prime + e_dst) ** 3 + p * (c_prime + e_dst) + delta_prime
            c = c_prime - s
            delta = alpha * (s**3 + p * s + delta_prime)
            fg = alpha * fg_prime

            published_c = (
                pub.c_const - beta / (3 * alpha) + sign * root / (pub.c_sqrt_den * alpha)
            )
            published_delta = (
                pub.delta_alpha * alpha
                - sympy.Rational(2, 27) * beta**3 / alpha**2
                + beta * gamma / (3 * alpha)
                + sign
                * (pub.delta_b2 * beta**2 / alpha**2 + pub.delta_g * gamma / alpha
                   + pub.delta_const)
                * root
                / pub.d_sqrt_den
            )
            t = published_c + pub.fg_shift
            published_fg = ((alpha * t + beta) * t + gamma) * t + published_delta
            for got, want in ((c, published_c), (delta, published_delta), (fg, published_fg)):
                assert _residue(got - want, root, published_radicand) == 0, case

        # alpha = 0 from (0, 1, 0)
        s0 = gamma / (2 * beta)
        c_prime = -s2 / (2 * s1)
        delta_prime = -((c_prime + e_oth) ** 2)
        c = c_prime - s0
        delta = beta * (s0**2 + delta_prime)
        fg = beta * ((c_prime + e_dst) ** 2 + delta_prime)
        assert sympy.simplify(c - (pub.c_const - gamma / (2 * beta))) == 0
        assert sympy.simplify(delta - (gamma**2 / (4 * beta) - pub.alpha0_delta_coeff * beta)) == 0
        t = c + pub.fg_shift
        assert sympy.simplify(fg - ((beta * t + gamma) * t + delta)) == 0

        # the intrinsic locus is the orbit of (p*, c*, fg*)
        assert sympy.simplify(alpha * (p_star + 3 * s**2)
                              - (pub.ig_alpha * alpha + beta**2 / (3 * alpha))) == 0
        assert sympy.simplify(c_star - s - (pub.intrinsic_c_const - beta / (3 * alpha))) == 0
        assert fg_star == pub.intrinsic_fg
        # upper at alpha > 0 exactly when c* lies above -B/(2A)
        assert (c_star - pub.c_const > 0) == (not pub.upper_needs_negative_alpha)
        assert c_star != pub.c_const


_RATIONAL = st.builds(Fr, st.integers(-30, 30), st.integers(1, 12))
_NONZERO = _RATIONAL.filter(bool)


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from(list(CaseId)),
    alpha=st.one_of(st.just(Fr(0)), _NONZERO),
    beta=_RATIONAL,
    beta_root2=_RATIONAL,
    tau=_RATIONAL.map(abs),
    tau_radicand=st.sampled_from([1, 2]),
    gamma0=_RATIONAL,
    branch=st.sampled_from(["upper", "lower"]),
)
def test_every_solution_is_the_transport_of_the_normal_form(
    case, alpha, beta, beta_root2, tau, tau_radicand, gamma0, branch
):
    # beta in Q(sqrt 2) and the root of the normal-form radicand in Q or Q(sqrt 2)
    beta = quadext(beta, beta_root2, 2)
    s1, s2, s3 = case.data.label_sums
    if alpha == 0:
        assume(beta != 0)
        gamma = quadext(gamma0, beta_root2, 2)
        s = Q(gamma) / (2 * Q(beta))
        base = solve_case(case.data, 0, 1, 0)
        sol = solve_case(case.data, 0, beta, gamma)
        assert (sol.c, sol.delta, sol.fg, sol.branch) == (
            (base.c - s).value, (Q(beta) * (s * s + base.delta)).value,
            (Q(beta) * base.fg).value, "alpha-zero"
        )
        return
    # p such that the radicand at (1, 0, p) is tau^2 * tau_radicand
    a, b = 3 * s1, 3 * s2
    p = ((b * b - 4 * a * a * tau * tau * tau_radicand) / (4 * a) - s3) / s1
    s = Q(beta) / (3 * alpha)
    gamma = (alpha * (p + 3 * s * s)).value
    swapped = branch if alpha > 0 else ("lower" if branch == "upper" else "upper")
    base = solve_case(case.data, 1, 0, p, swapped)
    sol = solve_case(case.data, alpha, beta, gamma, branch)
    assert (sol.c, sol.delta, sol.fg, sol.branch) == (
        (base.c - s).value, (alpha * (s**3 + p * s + base.delta)).value,
        (alpha * Q(base.fg)).value, branch
    )


# -- derived cases off V3 ---------------------------------------------------------


def test_derived_cases_off_v3_solve_and_close_on_the_intrinsic_locus():
    """Seeded spaces of three exponents in 0..9, a random ladder on each, at
    rational alpha != 0 and beta: the solvers take the derived data as they
    take the paper's, and the realization closes as an operator identity and
    on the space, where it is the single-step representation."""
    rng = random.Random("derived-cases-off-v3")
    solved = 0
    for _ in range(60):
        space = MonomialSpace(tuple(sorted(rng.sample(range(10), 3))))
        data = derive_case(space, *sorted(rng.sample(space.exponents, 2)))
        alpha = rand_fraction(rng, nonzero=True)
        beta = rand_fraction(rng)
        if not data.label_sums[0]:
            continue  # S1 = 0: refused, see test_reps' outer-ladder test
        intr = intrinsic_gamma_and_product(data, alpha, beta)
        sol = solve_case(data, alpha, beta, intr.gamma, intr.branch)
        assert (sol.c, sol.fg) == (intr.c, intr.fg), (space, data.q, data.two_m1)
        params = AlgebraParams(alpha, beta, intr.gamma, sol.delta)
        ops = build_case_realization(data, 1, sol.fg, sol.c)
        assert closure_check(ops, params).passed
        assert closure_check(ops, params, space).passed
        mats = MatrixTriple(*[op.matrix_on_space(space) for op in ops])
        assert check_deformed_relations(mats, params).all_zero
        spec = reference.case_rep_spec(data, sol)
        assert all(scalar_is_zero(r) for r in reference.constraint_residuals(spec, params))
        assert reference.build_new_rep_matrices(spec) == mats
        solved += 1
    assert solved >= 50

