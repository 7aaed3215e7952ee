import itertools
import math
import operator
import random
import re
from fractions import Fraction as Fr

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from sl2deform import diffops
from sl2deform.algebra import AlgebraParams
from sl2deform.cases import CaseId, build_case_realization
from sl2deform.diffops import (
    MAX_ENUMERATION_SIZE,
    ClosureReport,
    DiffOp,
    MonomialSpace,
    SpaceEscapeError,
    V3,
    _ExactSpan,
    _falling,
    _falling_coefficients,
    _null_vectors,
    closure_check,
    enumerate_preserving_operators,
    lie_closure_probe,
    preserving_basis_text,
)
from sl2deform.matrices import Matrix
from sl2deform.reps import intrinsic_gamma_and_product, solve_case
from sl2deform.scalars import (
    QuadExt,
    ScalarDomainError,
    from_numerator,
    num_gcd,
    num_sub,
    quadext,
    render_scalar,
    scalar_is_zero,
    to_numerators,
)

from conftest import image, intrinsic_realization, rand_fraction
from exact_field import Q
from reference_solvers import (
    build_classic_sl2_diffops,
    build_new_rep_matrices,
    case_rep_spec,
    read_diffop,
)

CASE1_RAISE = DiffOp({(3, 2): Fr(1, 3), (2, 1): -1, (1, 0): 1})
CASE1_LOWER = DiffOp({(1, 2): Fr(-1, 2), (0, 1): 1})


def rand_op(rng, nterms=3, mrange=(-2, 3), nmax=2):
    terms = {}
    for _ in range(nterms):
        key = (rng.randint(*mrange), rng.randint(0, nmax))
        terms[key] = rand_fraction(rng)
    return DiffOp(terms)


# -- applying to monomials -------------------------------------------------------


def test_apply_second_derivative_with_power():
    op = DiffOp({(3, 2): Fr(1, 3)})
    assert image(op, 3) == {4: Fr(2)}  # (1/3) * 3*2 * x^4


def test_case1_raising_kills_x():
    assert image(CASE1_RAISE, 1) == {}
    assert image(CASE1_RAISE, 3) == {}
    assert image(CASE1_RAISE, 0) == {1: Fr(1)}


def test_inverse_power_lowering():
    op = DiffOp({(-1, 2): Fr(1, 6)})
    assert image(op, 3) == {0: Fr(1)}
    assert image(op, 1) == {}


def test_image_keeps_negative_exponents_and_drops_cancellations():
    assert image(DiffOp({(-1, 0): 1}), 0) == {-1: Fr(1)}
    # x^-1 D^3 - x^-2 D^2 sends x^k to k(k-1)(k-3) x^(k-4): x^3 to 0
    cancelling = DiffOp({(-1, 3): 1, (-2, 2): -1})
    assert image(cancelling, 3) == {}
    assert image(cancelling, 4) == {0: Fr(24 - 12)}


# -- symbolic action ----------------------------------------------------------------


def test_falling_factorial_is_built_once_per_order_and_has_the_right_values():
    for n in range(13):
        coeffs = _falling_coefficients(n)
        assert coeffs is _falling_coefficients(n)
        assert len(coeffs) == n + 1 and coeffs[-1] == 1
        for k in range(-3, 16):
            assert sum(c * k ** i for i, c in enumerate(coeffs)) == _falling(k, n), (n, k)


def test_euler_symbolic_action():
    assert DiffOp({(1, 1): 1}).symbolic_action() == {0: (0, 1)}


def test_case1_raising_polynomial():
    # (k-1)(k-3)/3 = (3 - 4k + k^2)/3
    assert CASE1_RAISE.symbolic_action() == {1: (1, Fr(-4, 3), Fr(1, 3))}


def test_case1_lowering_polynomial():
    # k(3-k)/2
    assert CASE1_LOWER.symbolic_action() == {-1: (0, Fr(3, 2), Fr(-1, 2))}


ROOT2 = QuadExt(0, 1, 2)


def rand_scalar_op(rng, nterms=4):
    """Random operator with negative x-powers and, half the time, Q(sqrt 2) coefficients."""
    terms = {}
    for _ in range(nterms):
        c = rand_fraction(rng, nonzero=True)
        if rng.random() < 0.5:
            c = quadext(c, rand_fraction(rng), 2)
        terms[(rng.randint(-3, 3), rng.randint(0, 3))] = c
    return DiffOp(terms)


def _sympy_scalar(value):
    if isinstance(value, QuadExt):
        return sympy.Rational(value.a) + sympy.Rational(value.b) * sympy.sqrt(value.d)
    return sympy.Rational(value)


def test_image_equals_the_sympy_derivative(rng):
    x = sympy.Symbol("x")
    for _ in range(40):
        op = rand_scalar_op(rng)
        for k in range(7):
            want = sympy.expand(sum(
                _sympy_scalar(c) * x ** m * sympy.diff(x ** k, x, n)
                for (m, n), c in op.terms.items()
            ))
            got = sum(_sympy_scalar(v) * x ** e for e, v in image(op, k).items())
            assert sympy.expand(want - got) == 0, (op, k)
            assert all(not scalar_is_zero(v) for v in image(op, k).values())


def test_symbolic_action_equals_the_sympy_falling_factorials(rng):
    k = sympy.Symbol("k")
    for _ in range(40):
        op = rand_scalar_op(rng)
        want: dict = {}
        for (m, n), c in op.terms.items():
            want[m - n] = want.get(m - n, 0) + _sympy_scalar(c) * sympy.ff(k, n)
        got = op.symbolic_action()
        assert list(got) == sorted(want), op
        for s, coeffs in got.items():
            poly = sum(_sympy_scalar(c) * k ** i for i, c in enumerate(coeffs))
            assert sympy.expand(poly - want[s]) == 0, (op, s)
            assert len(coeffs) == sympy.degree(sympy.expand(want[s]), k) + 1, (op, s)


def test_apply_agrees_with_symbolic(rng):
    # the image of x^k is the symbolic action evaluated at k, shift by shift
    for _ in range(25):
        op = rand_scalar_op(rng)
        for k in range(-2, 6):
            expected = {}
            for s, coeffs in op.symbolic_action().items():
                value = sum((Q(c) * k ** i for i, c in enumerate(coeffs)), Q(0))
                if value:
                    expected[k + s] = value.value
            assert image(op, k) == expected


# -- composition and normal ordering ---------------------------------------------------


def test_weyl_relation():
    d = DiffOp({(0, 1): 1})
    x = DiffOp({(1, 0): 1})
    assert d.commutator(x) == DiffOp({(0, 0): 1})


def test_classic_bracket_at_spin_one():
    j0, jp, jm = build_classic_sl2_diffops(2)
    assert jp.commutator(jm) == j0.scale(2)


def test_euler_square_normal_orders():
    e = DiffOp({(1, 1): 1})
    assert e.compose(e) == DiffOp({(2, 2): 1, (1, 1): 1})


def test_compose_handles_negative_powers():
    # D . x^-1 = -x^-2 + x^-1 D
    d = DiffOp({(0, 1): 1})
    xinv = DiffOp({(-1, 0): 1})
    assert d.compose(xinv) == DiffOp({(-2, 0): -1, (-1, 1): 1})


def test_symbolic_action_is_a_homomorphism(rng):
    # (a . b) x^k = a (b x^k): compose agrees with applying b, then a
    for _ in range(30):
        a, b = rand_scalar_op(rng), rand_scalar_op(rng)
        for k in range(7):
            applied: dict = {}
            for e, v in image(b, k).items():
                for e2, w in image(a, e).items():
                    applied[e2] = applied.get(e2, Q(0)) + Q(v) * w
            applied = {e: v.value for e, v in applied.items() if v}
            assert image(a.compose(b), k) == applied, (a, b, k)


# -- oracle: operator arithmetic through the validating constructor ----------------------
#
# The product is the plain triple loop over term pairs and exchange terms, and
# every sum goes through DiffOp(...), which adds and drops terms one by one.
# The operator arithmetic must give the same terms, in the same order and of
# the same types, or raise the same error with the same message.


def _oracle_compose(a, b):
    acc = {}
    for (m1, n1), c1 in a.terms.items():
        for (m2, n2), c2 in b.terms.items():
            for i in range(n1 + 1):
                w = math.comb(n1, i) * _falling(m2, i)
                if w == 0:
                    continue
                key = (m1 + m2 - i, n1 + n2 - i)
                acc[key] = acc.get(key, Q(0)) + Q(c1) * c2 * w
    return DiffOp({key: v.value for key, v in acc.items()})


def _oracle_scale(a, s):
    return DiffOp() if s == 0 else DiffOp({key: (Q(c) * s).value for key, c in a.terms.items()})


def _oracle_add(a, b):
    return DiffOp(list(a.terms.items()) + list(b.terms.items()))


def _oracle_sub(a, b):
    return _oracle_add(a, _oracle_scale(b, Fr(-1)))


def _oracle_commutator(a, b):
    return _oracle_sub(_oracle_compose(a, b), _oracle_compose(b, a))


_FIELDS = {"Q": (), "Q(sqrt 2)": (ROOT2,), "Q(sqrt 3)": (QuadExt(0, 1, 3),),
           "Q, sqrt 2 and sqrt 3 mixed": (ROOT2, QuadExt(0, 1, 3))}


def _field_op(rng, roots):
    """Up to five terms with x-powers -2..3 and orders 0..3 over Q(roots), so
    that products share terms; the coefficients are integers one time in four."""
    max_den = rng.choice([1, 9, 9, 9])
    terms = {}
    for _ in range(rng.randint(0, 5)):
        c = rand_fraction(rng, max_den=max_den, nonzero=True)
        if roots and rng.random() < 0.6:
            c = quadext(c, rand_fraction(rng, max_den=max_den, nonzero=True), rng.choice(roots).d)
        terms[(rng.randint(-2, 3), rng.randint(0, 3))] = c
    return DiffOp(terms)


def _outcome(fn, *args):
    try:
        op = fn(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return [(key, c, type(c)) for key, c in op.terms.items()]


def test_operator_arithmetic_equals_the_validating_oracle(rng):
    fields = list(_FIELDS)
    raised = results = 0
    for _ in range(800):
        fa, fb = rng.choice(fields), rng.choice(fields)
        a, b = _field_op(rng, _FIELDS[fa]), _field_op(rng, _FIELDS[fb])
        roots = _FIELDS[fa] + _FIELDS[fb]
        s = rng.choice([Fr(0), rand_fraction(rng, nonzero=True),
                        *(quadext(rand_fraction(rng), 1, r.d) for r in roots)])
        for got, want in (
            (_outcome(DiffOp.compose, a, b), _outcome(_oracle_compose, a, b)),
            (_outcome(DiffOp.commutator, a, b), _outcome(_oracle_commutator, a, b)),
            (_outcome(DiffOp.scale, a, s), _outcome(_oracle_scale, a, s)),
        ):
            assert got == want, (fa, fb, a, b, s)
            if isinstance(got, tuple):
                # only two different radicands can meet
                assert len(set(r.d for r in roots)) == 2, got
                raised += 1
            else:
                assert all(t in (Fr, QuadExt) for _, _, t in got), got
                results += bool(got)
    assert raised > 50 and results > 1000, (raised, results)


def test_a_sum_with_a_foreign_operand_raises_type_error():
    # an operator has no + - * or unary -, whatever the other operand, so
    # Python raises TypeError, as it does for QuadExt and Matrix
    op = DiffOp({(1, 1): 1, (0, 0): Fr(-1, 2)})
    for other in (op, 1, 2, Fr(1, 2), quadext(1, 1, 2), Matrix.diagonal([1, 2])):
        for fn in (operator.add, operator.sub, operator.mul):
            for left, right in ((op, other), (other, op)):
                with pytest.raises(TypeError, match="unsupported operand type"):
                    fn(left, right)
    with pytest.raises(TypeError, match="bad operand type for unary -"):
        -op


def test_term_exponents_must_be_ints():
    # a float or bool exponent would give text that read_diffop refuses
    for key in ((0, 1.0), (0.5, 1), (True, 1), (0, False), (Fr(1), 0)):
        with pytest.raises(ValueError, match=r"^term exponents must be ints, got \("):
            DiffOp({key: 1})
        with pytest.raises(ValueError, match="^term exponents must be ints"):
            DiffOp([((-1, 0), 2), (key, 1)])
    op = DiffOp({(-1, 0): 2, (0, 1): Fr(1, 3)})
    assert read_diffop(op.to_text()) == op


def test_every_route_to_an_operator_gives_one_stored_form(rng):
    # the stored form is numerators over one denominator in lowest terms, so
    # equality, hashing and text must not depend on how an operator was built
    ident = DiffOp({(0, 0): 1})
    for field in ("Q", "Q(sqrt 2)"):
        for _ in range(60):
            op = _field_op(rng, _FIELDS[field])
            other = _field_op(rng, _FIELDS[field])
            s = rand_fraction(rng, nonzero=True)
            root_s = quadext(s, rand_fraction(rng), 2)
            routes = [
                DiffOp(dict(op.terms)),
                DiffOp(list(op.terms.items())),
                ident.compose(op),
                op.compose(ident),
                op.scale(s).scale(1 / s),
                op.scale(root_s).scale((1 / Q(root_s)).value),
                diffops._lowest(*diffops._sum(*diffops._sum(
                    dict(op._num), op._den, other._num, other._den), other._num, other._den, -1)),
                DiffOp(op.terms),
            ]
            for built in routes:
                assert built == op and hash(built) == hash(op), (field, op, built)
                assert built.to_text() == op.to_text()
                assert list(built.terms) == sorted(op.terms)
                assert all(type(c) in (Fr, QuadExt) for c in built.terms.values())
    # a radical that cancels leaves the rational operator, not a QuadExt form of it
    half = DiffOp([((1, 1), quadext(Fr(1, 2), 1, 2)), ((1, 1), quadext(0, -1, 2))])
    assert half == DiffOp({(1, 1): Fr(1, 2)}) and hash(half) == hash(DiffOp({(1, 1): Fr(1, 2)}))
    assert half.terms == {(1, 1): Fr(1, 2)} and type(half.terms[(1, 1)]) is Fr


# -- spaces ------------------------------------------------------------------------------


def test_monomial_space_validation():
    with pytest.raises(ValueError):
        MonomialSpace((1, 0))
    with pytest.raises(ValueError):
        MonomialSpace((0, 0, 1))
    with pytest.raises(ValueError):
        MonomialSpace((-1, 0))


def test_an_empty_space_is_refused_with_a_one_line_message():
    with pytest.raises(ValueError, match="^a monomial space needs at least one exponent$"):
        MonomialSpace(())


def test_preserves_space_examples():
    assert CASE1_RAISE.preserves_space(V3)
    assert not DiffOp({(0, 1): 1}).preserves_space(V3)
    assert DiffOp({(0, 2): Fr(1, 6)}).preserves_space(V3)


def test_preserves_iff_no_escaping_shift_values(rng):
    for _ in range(30):
        op = rand_op(rng)
        escapes = False
        for k in V3.exponents:
            image: dict = {}
            for (m, n), c in op.terms.items():
                image[k + m - n] = image.get(k + m - n, 0) + c * _falling(k, n)
            escapes |= any(v and e not in V3.exponents for e, v in image.items())
        assert op.preserves_space(V3) == (not escapes)


def test_matrix_on_space_case1_diagonal():
    alpha, beta = Fr(2), Fr(3)
    j0, _, _ = intrinsic_realization(CaseId.CASE1.data, alpha, beta)
    got = j0.matrix_on_space(V3)
    shift = beta / (3 * alpha)
    assert got == Matrix.diagonal([Fr(-7, 4) - shift, Fr(-3, 4) - shift, Fr(5, 4) - shift])


def test_matrix_on_space_rejects_escapes():
    with pytest.raises(SpaceEscapeError):
        DiffOp({(0, 1): 1}).matrix_on_space(V3)


def _matrix_by_terms(op, space):
    """op's matrix on ``space`` summed from ``op.terms`` as [(row, column, value,
    type)], row-major, or the message of the SpaceEscapeError that a nonzero
    image coefficient outside the space raises."""
    pos = {e: i for i, e in enumerate(space.exponents)}
    entries = {}
    for col, k in enumerate(space.exponents):
        image: dict = {}
        for (m, n), c in op.terms.items():
            image[k + m - n] = image.get(k + m - n, 0) + Q(c) * _falling(k, n)
        for e, v in image.items():
            if v and e not in pos:
                return f"operator does not preserve the space {space.exponents}"
            if v:
                entries[(pos[e], col)] = v.value
    return [(i, j, v, type(v)) for (i, j), v in sorted(entries.items())]


def _matrix_rows_outcome(op, space):
    """What ``diffops._matrix_rows`` gives, divided by ``op._den``, in the
    oracle's form; the rows must hold only ints and the (p, q, d) coordinates
    of irrational numerators, columns ascending."""
    try:
        rows = diffops._matrix_rows(op, space)
    except SpaceEscapeError as exc:
        return str(exc)
    assert all(list(row) == sorted(row) for row in rows)
    assert all(type(v) in (int, tuple) for row in rows for v in row.values())
    values = [(i, j, from_numerator(v, op._den)) for i, row in enumerate(rows)
              for j, v in row.items()]
    return [(i, j, x, type(x)) for i, j, x in values]


def _matrix_on_space_outcome(op, space):
    try:
        mat = op.matrix_on_space(space)
    except SpaceEscapeError as exc:
        return str(exc)
    return [(i, j, v, type(v)) for i, j, v in mat.entries()]


def test_matrix_rows_are_the_matrix_times_the_denominator(rng):
    # over Q and Q(sqrt 2): combinations of preserving operators, some of
    # whose terms cancel on the space, and random operators, most of which
    # leave it; x^3 D^3 and x^2 D^2 agree on x^3, so the last operator's
    # radical cancels there and leaves the int 6 over its denominator 2
    spaces = [V3, MonomialSpace((0, 1, 2)), MonomialSpace((1, 2, 4, 5))]
    bases = {space: enumerate_preserving_operators(space, 3) for space in spaces}
    cases = []
    for _ in range(300):
        space = rng.choice(spaces)
        roots = rng.choice([(), (ROOT2,)])
        if rng.random() < 0.6:
            op = DiffOp()
            for basis_op in rng.sample(bases[space], rng.randint(1, 4)):
                c = rand_fraction(rng, nonzero=True)
                if roots and rng.random() < 0.5:
                    c = quadext(c, rand_fraction(rng, nonzero=True), 2)
                op = _oracle_add(op, basis_op.scale(c))
        else:
            op = _field_op(rng, roots)
        cases.append((op, space))
    cancelled = DiffOp({(3, 3): quadext(1, 1, 2), (2, 2): quadext(0, -1, 2)}).scale(Fr(1, 2))
    cases.append((cancelled, V3))
    seen = set()
    for op, space in cases:
        want = _matrix_by_terms(op, space)
        assert _matrix_rows_outcome(op, space) == want, (op, space)
        assert _matrix_on_space_outcome(op, space) == want, (op, space)
        if isinstance(want, str):
            seen.add("escapes")
            continue
        if any(not v for k in space.exponents for v in op._image_numerators(k).values()):
            seen.add("terms cancel on the space")
        if any(isinstance(c, QuadExt) for c in op.terms.values()):
            seen.add("sqrt(2)")
    assert seen == {"escapes", "terms cancel on the space", "sqrt(2)"}, seen
    assert diffops._matrix_rows(cancelled, V3)[2] == {2: 6} and cancelled._den == 2


def test_case_realization_matches_rep_matrices():
    for case in CaseId:
        alpha, beta = Fr(2), Fr(-3)
        intr = intrinsic_gamma_and_product(case.data, alpha, beta)
        sol = solve_case(case.data, alpha, beta, intr.gamma, intr.branch)
        spec = case_rep_spec(case.data, sol)
        ops = build_case_realization(case.data, f=spec.f, g=spec.g, c=sol.c)
        built = [op.matrix_on_space(V3) for op in ops]
        triple = build_new_rep_matrices(spec)
        assert built == [triple.j0, triple.jplus, triple.jminus]


# -- case realizations ----------------------------------------------------------------------


def test_case_term_tables():
    j0, jp, jm = intrinsic_realization(CaseId.CASE1.data, 1, 0, f=Fr(5), g=Fr(7))
    assert jp == DiffOp({(3, 2): Fr(5, 3), (2, 1): -5, (1, 0): 5})
    assert jm == DiffOp({(1, 2): Fr(-7, 2), (0, 1): 7})
    _, jp2, jm2 = intrinsic_realization(CaseId.CASE2.data, 1, 0)
    assert jp2 == DiffOp({(4, 2): Fr(-1, 2), (3, 1): 1})
    assert jm2 == DiffOp({(0, 2): Fr(1, 6)})
    j03, jp3, jm3 = intrinsic_realization(CaseId.CASE3.data, 1, 0)
    assert jm3 == DiffOp({(-1, 2): Fr(1, 6)})
    assert j03 == DiffOp({(1, 1): Fr(1, 3), (0, 0): Fr(-5, 12)})


def test_case3_diagonal_with_beta():
    j0, _, _ = intrinsic_realization(CaseId.CASE3.data, Fr(2), Fr(6))
    # (1/3) x D - 5/12 - beta/(3 alpha)
    assert j0 == DiffOp({(1, 1): Fr(1, 3), (0, 0): Fr(-5, 12) - Fr(6) / Fr(6)})


def test_intrinsic_realization_needs_alpha_or_c():
    with pytest.raises(ValueError, match="needs alpha != 0"):
        intrinsic_gamma_and_product(CaseId.CASE1.data, 0, 1)
    j0, _, _ = build_case_realization(CaseId.CASE1.data, f=1, g=1, c=Fr(-7, 10))
    assert j0 == DiffOp({(1, 1): 1, (0, 0): Fr(-17, 10)})


# -- closure checking -----------------------------------------------------------------------


def test_classic_triples_close_intrinsically():
    params = AlgebraParams(0, 0, 2, 0)
    for two_j in range(0, 4):
        triple = build_classic_sl2_diffops(two_j)
        report = closure_check(triple, params, None)
        assert report.mode == "intrinsic" and report.passed


def test_case_realizations_close_intrinsically():
    for case in CaseId:
        alpha, beta = Fr(-3), Fr(2)
        intr = intrinsic_gamma_and_product(case.data, alpha, beta)
        sol = solve_case(case.data, alpha, beta, intr.gamma, intr.branch)
        ops = build_case_realization(case.data, f=1, g=sol.fg, c=sol.c)
        params = AlgebraParams(alpha, beta, intr.gamma, sol.delta)
        assert closure_check(ops, params, None).passed


def test_generic_gamma_closes_on_space_only():
    alpha, beta = Fr(1), Fr(0)
    gamma = Fr(-579, 300) - 3  # radicand 900, a perfect square
    sol = solve_case(CaseId.CASE1.data, alpha, beta, gamma, "upper")
    ops = build_case_realization(CaseId.CASE1.data, f=1, g=sol.fg, c=sol.c)
    params = AlgebraParams(alpha, beta, gamma, sol.delta)
    on_space = closure_check(ops, params, V3)
    intrinsic = closure_check(ops, params, None)
    assert on_space.passed
    assert not intrinsic.passed
    nonzero = [act for _, act in intrinsic.residuals if not act.is_zero()]
    assert nonzero  # some shift polynomial survives as a polynomial in k


def test_on_space_check_fails_on_any_nonzero_residual():
    alpha, beta = Fr(2), Fr(3)
    intr = intrinsic_gamma_and_product(CaseId.CASE1.data, alpha, beta)
    sol = solve_case(CaseId.CASE1.data, alpha, beta, intr.gamma, intr.branch)
    j0, jp, jm = build_case_realization(CaseId.CASE1.data, f=1, g=sol.fg, c=sol.c)
    params = AlgebraParams(alpha, beta, intr.gamma, sol.delta)
    assert closure_check((j0, jp, jm), params, V3).passed
    # a wrong delta leaves only the bracket residual, the identity on V3
    off = AlgebraParams(alpha, beta, intr.gamma, sol.delta + 1)
    report = closure_check((j0, jp, jm), off, V3)
    assert not report.passed
    assert [name for name, op in report.residuals if not op.is_zero()] == ["bracket"]
    # swapped ladders break the raising and lowering relations on V3
    report = closure_check((j0, jm, jp), params, V3)
    assert not report.passed
    assert {name for name, op in report.residuals if not op.is_zero()} >= {"raising", "lowering"}


ONE = DiffOp({(0, 0): 1})


def _power(op, exponent):
    out = ONE
    for _ in range(exponent):
        out = _oracle_compose(out, op)
    return out


def _residuals_from_powers(triple, params):
    """The three residuals, F(J0) summed from powers of J0, in the oracles'
    arithmetic."""
    j0, jp, jm = triple
    powers = [_power(j0, i) for i in (3, 2, 1, 0)]
    rhs = DiffOp()
    for power, coeff in zip(powers, (params.alpha, params.beta, params.gamma, params.delta)):
        rhs = _oracle_add(rhs, _oracle_scale(power, coeff))
    return [
        ("raising", _oracle_sub(_oracle_commutator(j0, jp), jp)),
        ("lowering", _oracle_add(_oracle_commutator(j0, jm), jm)),
        ("bracket", _oracle_sub(_oracle_commutator(jp, jm), rhs)),
    ]


def _solved_case_triples(rng, draws):
    """Case realizations at an intrinsic and an explicit gamma, ``draws``
    (alpha, beta) per case: J0 constants and parameters over Q and over the
    discriminants' radicands."""
    out = []
    for case in CaseId:
        for _ in range(draws):
            alpha = rand_fraction(rng, -5, 5, 3, nonzero=True)
            beta = rand_fraction(rng, -5, 5, 3)
            intr = intrinsic_gamma_and_product(case.data, alpha, beta)
            for gamma in (intr.gamma, rand_fraction(rng, -20, 20, 3)):
                try:
                    sol = solve_case(case.data, alpha, beta, gamma, intr.branch)
                except ValueError:  # outside the case's parameter region
                    continue
                triple = build_case_realization(case.data, f=1, g=sol.fg, c=sol.c)
                out.append((triple, AlgebraParams(alpha, beta, gamma, sol.delta)))
    return out


def test_closure_residuals_equal_those_formed_from_powers_of_j0():
    rng = random.Random("closure-residuals")
    checked = _solved_case_triples(rng, 4)
    for two_j in range(4):
        off_locus = AlgebraParams(*(rand_fraction(rng, nonzero=True) for _ in range(4)))
        checked.append((build_classic_sl2_diffops(two_j), off_locus))
    # a J0 constant and a beta in Q(sqrt 2)
    _, jp, jm = build_classic_sl2_diffops(3)
    j0 = DiffOp({(1, 1): 1, (0, 0): quadext(Fr(-3, 2), 1, 2)})
    checked.append(((j0, jp, jm), AlgebraParams(1, quadext(1, 1, 2), Fr(1, 3), 2)))
    assert len(checked) > 20
    for triple, params in checked:
        report = closure_check(triple, params, None)
        want = _residuals_from_powers(triple, params)
        assert [(name, op.terms) for name, op in report.residuals] == [
            (name, op.terms) for name, op in want
        ]
        assert [op.to_text() for _, op in report.residuals] == [op.to_text() for _, op in want]
    # explicit gammas give irrational J0 constants too
    assert sum(isinstance(t[0].terms.get((0, 0)), QuadExt) for t, _ in checked) > 1


def test_intrinsic_pass_implies_on_space_pass(rng):
    params = AlgebraParams(0, 0, 2, 0)
    triple = build_classic_sl2_diffops(3)
    assert closure_check(triple, params, None).passed
    for _ in range(5):
        exps = tuple(sorted(rng.sample(range(0, 8), rng.randint(1, 4))))
        assert closure_check(triple, params, MonomialSpace(exps)).passed


# -- oracle: closure_check as the operator expression it replaced -------------------------
#
# F(J0) by Horner's scheme, then the three residuals, each step a reduced
# operator of its own.  closure_check forms the same sums and products on
# unreduced numerators, so it must give the same residuals, of the same types,
# or raise the same error with the same message.


def _closure_by_operators(triple, params):
    j0, jp, jm = triple
    rhs = _oracle_add(_oracle_scale(j0, params.alpha), _oracle_scale(ONE, params.beta))
    rhs = _oracle_add(_oracle_compose(rhs, j0), _oracle_scale(ONE, params.gamma))
    rhs = _oracle_add(_oracle_compose(rhs, j0), _oracle_scale(ONE, params.delta))
    return (
        ("raising", _oracle_sub(_oracle_sub(_oracle_compose(j0, jp), _oracle_compose(jp, j0)), jp)),
        ("lowering", _oracle_add(_oracle_sub(_oracle_compose(j0, jm), _oracle_compose(jm, j0)), jm)),
        ("bracket", _oracle_sub(_oracle_sub(_oracle_compose(jp, jm), _oracle_compose(jm, jp)), rhs)),
    )


def _closure_outcome(fn):
    try:
        report = fn()
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return report.mode, report.passed, [
        (name, [(key, c, type(c)) for key, c in op.terms.items()])
        for name, op in report.residuals
    ]


def test_closure_check_equals_the_operator_expression_outcome_for_outcome(rng):
    fields = list(_FIELDS)
    draws = []
    for _ in range(300):
        roots = [_FIELDS[rng.choice(fields)] for _ in range(4)]
        triple = tuple(_field_op(rng, r) for r in roots[:3])
        params = AlgebraParams(*(
            rng.choice([Fr(0), rand_fraction(rng, nonzero=True),
                        *(quadext(rand_fraction(rng), 1, r.d) for r in roots[3])])
            for _ in range(4)))
        draws.append((triple, params))
    draws += _solved_case_triples(rng, 5)
    raised = passed = 0
    for triple, params in draws:
        for space in (None, V3):
            got = _closure_outcome(lambda: closure_check(triple, params, space))
            want = _closure_outcome(
                lambda: ClosureReport.judge(_closure_by_operators(triple, params), space))
            assert got == want, (triple, params, space)
            raised += isinstance(got[0], type)
            passed += got[1] is True
    # the error paths and both verdicts are reached
    assert raised > 100 and passed > 20, (raised, passed)


@pytest.fixture
def reductions(monkeypatch):
    """The denominators of the ``_lowest`` calls made while the test runs."""
    calls = []
    lowest = diffops._lowest

    def counted(acc, den):
        calls.append(den)
        return lowest(acc, den)

    monkeypatch.setattr(diffops, "_lowest", counted)
    return calls


def test_closure_check_reduces_each_residual_once_and_composes_nothing(reductions, monkeypatch):
    def refused(*_):
        raise AssertionError("DiffOp.compose was called")

    monkeypatch.setattr(DiffOp, "compose", refused)
    rng = random.Random("closure-reductions")
    checked = _solved_case_triples(rng, 5) + [
        (build_classic_sl2_diffops(two_j), AlgebraParams(0, 0, 2, 0)) for two_j in range(4)]
    for triple, params in checked:
        for space in (None, V3):
            reductions.clear()
            closure_check(triple, params, space)
            assert len(reductions) == 3


def test_a_commutator_is_reduced_once(reductions):
    # two products and a difference, on numerators, and one reduction
    rng = random.Random("commutator-reductions")
    for field in ("Q", "Q(sqrt 2)", "Q(sqrt 3)"):
        for _ in range(10):
            a, b = _field_op(rng, _FIELDS[field]), _field_op(rng, _FIELDS[field])
            reductions.clear()
            a.commutator(b)
            assert len(reductions) == 1


# -- the one-pass commutator against the two products and their difference -------------


def _products_difference(a, b):
    """a . b - b . a as two ``_products`` and a difference in ascending key
    order, unreduced: the operator expression that the one pass replaces."""
    ab = diffops._products({}, a._num, b._num)
    for key, v in sorted(diffops._products({}, b._num, a._num).items()):
        ab[key] = num_sub(ab.get(key, 0), v)
    return ab


def _one_field_ops(d):
    """Operators of up to five terms x^m D^n, m in -4..8 and n in 0..6, over
    Q, or over Q(sqrt d) with about half the coefficients irrational."""
    ratio = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    coeff = ratio if d is None else st.one_of(
        ratio, st.tuples(ratio, ratio.filter(bool)).map(lambda ab: quadext(ab[0], ab[1], d)))
    key = st.tuples(st.integers(-4, 8), st.integers(0, 6))
    return st.dictionaries(key, coeff, max_size=5).map(DiffOp)


@st.composite
def _one_field_pairs(draw):
    """(a, b, whether a and b commute by construction) over one field."""
    d = draw(st.sampled_from([None, 2, 3, 7]))
    a = draw(_one_field_ops(d))
    kind = draw(st.sampled_from(["any", "same", "scaled", "euler", "vanishing"]))
    if kind == "same":
        return a, a, True
    if kind == "scaled":
        return a, a.scale(draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))), True
    if kind == "euler":  # polynomials in x D commute, and x^i D^i is (xD)^(i falling)
        euler = st.dictionaries(st.integers(0, 6), st.integers(-9, 9), max_size=4).map(
            lambda cs: DiffOp({(i, i): c for i, c in cs.items()}))
        return draw(euler), draw(euler), True
    b = draw(_one_field_ops(d))
    if kind == "vanishing":  # 0 <= m2 < n1: a . b's weight C(n1, i) m2^(i falling) dies early
        n1 = draw(st.integers(1, 6))
        a = DiffOp({**a.terms, (draw(st.integers(-4, 8)), n1): 1})
        b = DiffOp({**b.terms, (draw(st.integers(0, n1 - 1)), draw(st.integers(0, 6))): -2})
    return a, b, False


@settings(max_examples=400, deadline=None)
@given(_one_field_pairs())
@example((CASE1_RAISE, CASE1_LOWER, False))
@example((DiffOp({(3, 2): 1}), DiffOp({(1, 4): 1}), False))  # m2 = 1 < n1 = 2, m1 = 3 < n2 = 4
@example((DiffOp({(2, 2): ROOT2}), DiffOp({(1, 1): quadext(1, 1, 2)}), True))
def test_one_pass_commutator_equals_the_two_products_on_one_field(case):
    a, b, commuting = case
    acc, den = diffops._commutator(a, b)
    want = _products_difference(a, b)
    # the same nonzero unreduced sums, so the same reduced operator
    assert diffops._terms(acc) == diffops._terms(want), (a, b)
    got, want = diffops._lowest(acc, den), diffops._lowest(want, den)
    assert (got._den, list(got._num.items())) == (want._den, list(want._num.items()))
    if commuting:
        assert got.is_zero()


def test_a_clash_only_in_the_cancelling_products_raises_the_expressions_error():
    # each pair of terms over sqrt(2) and sqrt(3) has no exchange term
    # (n1 m2 = n2 m1 = 0): the only sums that mix the radicands are the
    # products c1 c2 x^(m1+m2) D^(n1+n2), which cancel in the difference
    a = DiffOp({(0, 0): quadext(1, 1, 2), (1, 1): 1})
    b = DiffOp({(3, 0): quadext(1, 1, 3), (2, 0): 5})
    for left, right, message in ((a, b, "mixed radicands sqrt(2) and sqrt(3)"),
                                 (b, a, "mixed radicands sqrt(3) and sqrt(2)")):
        assert _outcome(DiffOp.commutator, left, right) == (ScalarDomainError, message)
        assert _outcome(_oracle_commutator, left, right) == (ScalarDomainError, message)
        with pytest.raises(ScalarDomainError, match=re.escape(message)):
            diffops._commutator(left, right)


def test_one_pass_commutator_halves_the_products_of_the_v3_ladder_probe(monkeypatch):
    # the six case ladders and two diagonals of acceptance 6, bracketed
    # pairwise as lie_closure_probe brackets them
    ops = six_ladders() + [intrinsic_realization(case.data, 1, 0)[0]
                           for case in (CaseId.CASE1, CaseId.CASE2)]
    calls = []
    num_mul = diffops.num_mul
    monkeypatch.setattr(diffops, "num_mul", lambda x, y: calls.append(1) or num_mul(x, y))
    counts = []
    for bracket in (diffops._commutator, _products_difference):
        calls.clear()
        for a, b in itertools.combinations(ops, 2):
            bracket(a, b)
        counts.append(len(calls))
    one_pass, expression = counts
    assert 0 < 2 * one_pass <= expression, counts


def test_compose_and_commutator_refuse_what_is_not_an_operator():
    op = DiffOp({(1, 1): 1, (0, 0): Fr(-1, 2)})
    for other in (2, None, Matrix.diagonal([1, 2])):
        for method in ("compose", "commutator"):
            with pytest.raises(TypeError, match=rf"^DiffOp\.{method} needs a DiffOp, not "):
                getattr(op, method)(other)


# -- enumeration of preserving operators ------------------------------------------------------


def brute_force_preserving_dimension(space, max_order):
    """Independent oracle: sympy null space over the same coefficient lattice."""
    exps = space.exponents
    lo, hi = -max_order, max(exps) + max_order
    keys = [(m, n) for n in range(max_order + 1) for m in range(lo, hi + 1)]

    def falling(k, n):
        out = 1
        for i in range(n):
            out *= k - i
        return out

    rows = []
    for k in exps:
        images = {}
        for idx, (m, n) in enumerate(keys):
            w = falling(k, n)
            if w:
                images.setdefault(k + m - n, []).append((idx, w))
        for e, contribs in images.items():
            if e in exps:
                continue
            row = [0] * len(keys)
            for idx, w in contribs:
                row[idx] = w
            rows.append(row)
    if not rows:
        return len(keys)
    mat = sympy.Matrix(rows)
    return len(keys) - mat.rank()


def test_enumerate_max_order_zero_is_identity_line():
    basis = enumerate_preserving_operators(V3, 0)
    assert len(basis) == 1
    assert basis[0] == DiffOp({(0, 0): 1})


def test_enumerate_two_state_space_matches_brute_force():
    space = MonomialSpace((0, 1))
    basis = enumerate_preserving_operators(space, 1)
    assert len(basis) == brute_force_preserving_dimension(space, 1) == 4
    for op in basis:
        assert op.preserves_space(space)


def test_enumerate_v3_matches_brute_force_and_contains_the_ladders():
    basis = enumerate_preserving_operators(V3, 3)
    assert len(basis) == brute_force_preserving_dimension(V3, 3)
    for op in basis:
        assert op.preserves_space(V3)
    # published ladder operators must lie inside the enumerated space
    known = [
        CASE1_RAISE,
        CASE1_LOWER,
        DiffOp({(4, 2): Fr(-1, 2), (3, 1): 1}),
        DiffOp({(0, 2): Fr(1, 6)}),
        DiffOp({(5, 2): Fr(1, 3), (4, 1): -1, (3, 0): 1}),
        DiffOp({(-1, 2): Fr(1, 6)}),
    ]
    coords = {}
    for op in basis + known:
        for key in op.terms:
            coords.setdefault(key, len(coords))
    rows = []
    for op in basis:
        row = [Fr(0)] * len(coords)
        for key, val in op.terms.items():
            row[coords[key]] = val
        rows.append(row)
    base_rank = sympy.Matrix(rows).rank()
    assert base_rank == len(basis)
    for op in known:
        row = [Fr(0)] * len(coords)
        for key, val in op.terms.items():
            row[coords[key]] = val
        assert sympy.Matrix(rows + [row]).rank() == base_rank, op


def sympy_preserving_basis(space, max_order):
    """Independent oracle: sympy's null space of the dense system, as scaled operators.

    Each null vector is scaled to coprime integers with a positive first
    entry in (n, m) term order.
    """
    exps = space.exponents
    lo, hi = -max_order, max(exps) + max_order
    keys = [(m, n) for n in range(max_order + 1) for m in range(lo, hi + 1)]
    rows = []
    for k in exps:
        for e in sorted({k + m - n for m, n in keys} - set(exps)):
            row = [sympy.ff(k, n) if k + m - n == e else 0 for m, n in keys]
            if any(row):
                rows.append(row)
    basis = []
    for vec in sympy.Matrix(rows).nullspace():
        vec = [Fr(int(v.p), int(v.q)) for v in vec]
        denom = math.lcm(*(v.denominator for v in vec))
        ints = [int(v * denom) for v in vec]
        lead = next(v for v in ints if v)
        scale = Fr(1 if lead > 0 else -1, math.gcd(*ints))
        basis.append(DiffOp({key: v * scale for key, v in zip(keys, ints) if v}))
    return basis


def test_enumerate_equals_the_sympy_basis_operator_by_operator():
    rng = random.Random(31)
    grid = [(V3, order) for order in range(9)]
    grid += [(MonomialSpace((0, 1)), 1), (MonomialSpace((0, 1, 3, 7, 12)), 4)]
    # orders 5..10: exponents below the order (zero rows at the edge of a
    # block) and wide gaps, where many shifts share one block
    grid += [(MonomialSpace(exps), order) for exps, order in (
        ((0, 5, 11), 5), ((0, 5, 11), 10), ((2, 3, 9, 10), 6), ((2, 3, 9, 10), 8),
        ((1, 4), 9), ((3,), 7), ((0, 2, 3, 9), 5),
    )]
    for _ in range(5):
        top = rng.randint(2, 9)
        exps = sorted(rng.sample(range(top), rng.randint(0, min(4, top)))) + [top]
        grid.append((MonomialSpace(tuple(exps)), rng.randint(1, 3)))
    for space, order in grid:
        assert enumerate_preserving_operators(space, order) == sympy_preserving_basis(
            space, order
        ), (space.exponents, order)


def _rref_null_vectors(a, w, escaping):
    """sympy's RREF null space of the block, each vector as {column: nonzero entry}."""
    rows = [[sympy.QQ(math.perm(k, a + i)) for i in range(w)] for k in escaping]
    rref, pivots = DomainMatrix(rows, (len(rows), w), sympy.QQ).rref()
    basis = []
    for fc in (c for c in range(w) if c not in pivots):
        vec = {fc: 1, **{pc: -rref[i, fc].element for i, pc in enumerate(pivots)}}
        basis.append({c: v for c, v in vec.items() if v})
    return basis


def test_block_null_vectors_are_the_sympy_rref_ones():
    # a block has columns x^(s+a+i) D^(a+i), i < w, and one row of falling
    # factorials k^(a+i falling) per escaping exponent k: zero when k < a
    rng = random.Random("block-null-vectors")
    blocks = [
        (0, 1, ()), (4, 6, (0, 1, 3)),         # r = 0: no rows, or only zero rows
        (0, 3, (0, 2, 5)), (2, 3, (1, 2, 4, 7)),  # r = w, the second with a zero row
        (0, 2, (0, 1, 2)), (1, 3, (0, 3, 5, 7, 9)),  # r > w
        (0, 40, (60,)), (20, 40, tuple(range(0, 61, 3))),
    ]
    for _ in range(250):
        a, w = rng.randint(0, 20), rng.randint(1, 40)
        escaping = tuple(sorted(rng.sample(range(61), rng.randint(0, min(w + 2, 14)))))
        blocks.append((a, w, escaping))
    shapes = set()
    for a, w, escaping in blocks:
        r = sum(k >= a for k in escaping)
        shapes.add(("r = 0" if r == 0 else "r < w" if r < w else "r = w" if r == w else "r > w",
                    r < len(escaping)))
        got = _null_vectors(a, w, escaping)
        want = _rref_null_vectors(a, w, escaping)
        # one vector per free column, ascending, the free column last in each
        assert [vec[-1][0] for vec in got] == [max(vec) for vec in want], (a, w, escaping)
        for vec, rref_vec in zip(got, want):
            cols = [c for c, _ in vec]
            assert cols == sorted(set(cols))
            assert all(type(v) is int and v for _, v in vec)
            # the RREF vector itself, its entry 1 at the free column, with the
            # sign flipped when that makes the first entry positive
            sign = vec[-1][1]
            assert sign in (1, -1) and vec[0][1] > 0
            assert {c: v * sign for c, v in vec} == rref_vec, (a, w, escaping)
    # every rank regime occurs, with and without zero rows
    assert {kind for kind, _ in shapes} == {"r = 0", "r < w", "r = w", "r > w"}
    assert {zero_rows for _, zero_rows in shapes} == {True, False}


def test_enumerate_rejects_an_over_budget_system_at_once():
    # (max_order + 1) * window * dimension for (0, top) at order 0 is 2 * (top + 1);
    # the operators and their text share one guard, and so one message
    top = MAX_ENUMERATION_SIZE // 2
    over = (((0, top), 0, 2 * (top + 1)), ((0, 1, 10**6), 2, 3 * (10**6 + 5) * 3))
    for space, order, size in over:
        want = f"(max_order + 1) * window * dimension = {size} exceeds {MAX_ENUMERATION_SIZE}"
        for enumerate_basis in (enumerate_preserving_operators, preserving_basis_text):
            with pytest.raises(ValueError) as info:
                enumerate_basis(MonomialSpace(space), order)
            assert str(info.value) == want, enumerate_basis
    # one step under the bound is accepted by both
    space = MonomialSpace((0, top - 1))
    assert preserving_basis_text(space, 0) == [
        op.to_text() for op in enumerate_preserving_operators(space, 0)]


def test_basis_text_is_the_operators_text_on_seeded_spaces():
    # the text written from the blocks' integer terms is, string for string and
    # in order, what each enumerated operator renders as, and parses back to it
    rng = random.Random("basis-text")
    grid = []
    for _ in range(12):
        top = rng.randint(7, 30)
        exps = sorted(rng.sample(range(top), rng.randint(2, 7))) + [top]
        grid += [(tuple(exps), order) for order in range(10)]
    # the size bound's largest basis, 79,198 operators, and the dense 0..29
    grid += [((3,), 198), (tuple(range(30)), 29)]
    leads, coefficients = set(), set()
    for exps, order in grid:
        space = MonomialSpace(exps)
        ops = enumerate_preserving_operators(space, order)
        texts = preserving_basis_text(space, order)
        assert texts == [op.to_text() for op in ops], (exps, order)
        assert all(read_diffop(text) == op for text, op in zip(texts, ops)), (exps, order)
        leads.update(text[0] for text in texts)
        coefficients.update(v for op in ops for v in op._num.values())
    assert len(texts) == 900
    # leading terms of either sign, and coefficients other than 1 and -1
    assert leads == {"1", "-"} and any(abs(v) > 1 for v in coefficients)


def test_enumerate_is_deterministic():
    a = [op.to_text() for op in enumerate_preserving_operators(V3, 2)]
    b = [op.to_text() for op in enumerate_preserving_operators(V3, 2)]
    assert a == b


# -- exact elimination kernel ------------------------------------------------------------


_QQ_SQRT2 = sympy.QQ.algebraic_field(sympy.sqrt(2))
_SQRT2 = _QQ_SQRT2.from_sympy(sympy.sqrt(2))
_KERNEL_FIELDS = {"int": sympy.QQ, "fraction": sympy.QQ, "sqrt2": _QQ_SQRT2}


def _kernel_scalar(rng, kind):
    """A scalar of the given kind; the wider kinds also draw the narrower ones."""
    draw = rng.random()
    if draw < 0.3:
        return 0
    if kind == "int" or draw < 0.45:
        return rng.randint(-4, 4)
    a = rand_fraction(rng, -4, 4, 3)
    if kind == "fraction" or draw < 0.6:
        return a
    return quadext(a, rand_fraction(rng, -3, 3, 2), 2)


def _kernel_rows(rng, kind, nrows, width):
    """nrows rows of the given kind, combinations of at most min(nrows, width) random rows."""
    basis = [[_kernel_scalar(rng, kind) for _ in range(width)]
             for _ in range(rng.randint(0, min(nrows, width)))]
    return [
        [sum((Q(c) * b[j] for c, b in zip(coeffs, basis)), Q(0)).value for j in range(width)]
        for coeffs in ([_kernel_scalar(rng, kind) for _ in basis] for _ in range(nrows))
    ]


def _sparse(row):
    """A dense row as the probe hands rows to the span: its nonzero
    numerators over their lcm (``scalars.to_numerators``), keyed by column."""
    return {j: v for j, v in enumerate(to_numerators(row)[0]) if v}


def _is_numerator(v):
    """Whether v is a nonzero int or the coordinates (p, q, d) of an irrational."""
    return type(v) is int and v != 0 or type(v) is tuple and len(v) == 3 and v[1] != 0


def _in_field(field, x):
    """x as an element of sympy's exact field, QQ or QQ<sqrt(2)>."""
    if isinstance(x, QuadExt):
        assert field is _QQ_SQRT2 and x.d == 2
        return _in_field(field, x.a) + _in_field(field, x.b) * _SQRT2
    return field.convert(sympy.Rational(x.numerator, x.denominator))


@pytest.mark.parametrize("kind", sorted(_KERNEL_FIELDS))
def test_exact_span_agrees_with_sympy(kind):
    field = _KERNEL_FIELDS[kind]
    rng = random.Random(f"exact-span-{kind}")
    ranks = set()
    for _ in range(60):
        nrows, width = rng.randint(1, 8), rng.randint(1, 10)
        rows = _kernel_rows(rng, kind, nrows, width)

        elements = [[_in_field(field, x) for x in row] for row in rows]
        matrix = DomainMatrix(elements, (nrows, width), field)
        # row i is independent of rows 0..i-1 iff column i of the transpose is a pivot
        _, independent = matrix.transpose().rref()
        span = _ExactSpan()
        assert [span.add(_sparse(row)) for row in rows] == [i in independent for i in range(nrows)]
        assert all(_is_numerator(v) for row in span.rows.values() for v in row.values())
        _, pivots = matrix.rref()
        assert span.dimension == len(pivots)
        ranks.add((span.dimension, nrows, width))

        combos = [[_kernel_scalar(rng, kind) for _ in rows] for _ in range(3)]
        probes = [[sum((Q(c) * r[j] for c, r in zip(coeffs, rows)), Q(0)).value
                   for j in range(width)] for coeffs in combos]
        probes += [[_kernel_scalar(rng, kind) for _ in range(width)] for _ in range(3)]
        for probe in probes:
            stacked = elements + [[_in_field(field, x) for x in probe]]
            inside = DomainMatrix(stacked, (nrows + 1, width), field).rank() == len(pivots)
            assert span.contains(_sparse(probe)) == inside
    # full-rank, rank-deficient and all-zero systems all occur
    assert any(rank < min(n, w) for rank, n, w in ranks)
    assert any(rank == min(n, w) for rank, n, w in ranks)
    assert any(rank == 0 for rank, _, _ in ranks)


def test_exact_span_keeps_rows_of_ints_and_radicals_exact():
    # an integer pivot in a row holding a QuadExt, then a rational row
    r = quadext(1, 1, 2)
    span = _ExactSpan()
    assert span.add(_sparse([2, r, 0])) and span.add(_sparse([0, 3, Fr(1, 2)]))
    assert not span.add(_sparse([2, quadext(7, 1, 2), 1]))  # the first row plus twice the second
    assert all(_is_numerator(v) for row in span.rows.values() for v in row.values())


def _kernel_scale(rng):
    """A nonzero scalar of Q(sqrt(2)): a positive int, a negative fraction or an irrational."""
    draw = rng.random()
    if draw < 0.3:
        return rng.randint(1, 1000)
    if draw < 0.5:
        return -rand_fraction(rng, 1, 50, 20)
    b = rand_fraction(rng, 1, 20, 9) * rng.choice((1, -1))
    return quadext(rand_fraction(rng, -20, 20, 9), b, 2)


def _canonical_numerator_row(row):
    """The coprime integer multiple, pivot first and positive, of a row of
    sympy's QQ or QQ<sqrt(2)>, as {column: numerator} of its nonzero entries."""
    coords = {}
    for j, x in enumerate(row):
        coeffs = [Fr(int(c.numerator), int(c.denominator))
                  for c in (x.to_list() if hasattr(x, "to_list") else [x])]
        if any(coeffs):
            coords[j] = ([0, 0] + coeffs)[-2:][::-1]  # (a, b) of a + b*sqrt(2)
    den = math.lcm(*(c.denominator for ab in coords.values() for c in ab))
    ints = {j: [int(c * den) for c in ab] for j, ab in coords.items()}
    g = math.gcd(*(c for ab in ints.values() for c in ab))
    return {j: a // g if not b else (a // g, b // g, 2) for j, (a, b) in ints.items()}


def test_exact_span_keeps_the_same_rows_under_positive_scaling():
    # the kept rows are the coprime integer multiples, with a positive int
    # pivot, of the RREF rows, whatever nonzero scalar of Q(sqrt(2)) scales
    # each input row: a positive int, a negative fraction or an irrational
    for kind in ("fraction", "sqrt2"):
        field = _KERNEL_FIELDS[kind]
        rng = random.Random(f"span-of-scaled-rows-{kind}")
        irrational = 0
        for _ in range(40):
            width = rng.randint(1, 6)
            dense = _kernel_rows(rng, kind, rng.randint(1, 6), width)
            scales = [_kernel_scale(rng) for _ in dense]
            rows = [_sparse(row) for row in dense]
            scaled = [_sparse([(Q(x) * k).value for x in row]) for row, k in zip(dense, scales)]
            plain, by_scaled = _ExactSpan(), _ExactSpan()
            assert [plain.add(row) for row in rows] == [by_scaled.add(row) for row in scaled]
            assert plain.rows == by_scaled.rows
            matrix = DomainMatrix([[_in_field(field, x) for x in row] for row in dense],
                                  (len(dense), width), field)
            rref, pivots = matrix.rref()
            assert plain.rows == {pc: _canonical_numerator_row(rref.to_list()[i])
                                  for i, pc in enumerate(pivots)}
            for pc, row in plain.rows.items():
                assert min(row) == pc and type(row[pc]) is int and row[pc] > 0
                assert num_gcd(0, row.values()) == 1
                assert all(_is_numerator(v) for v in row.values())
                irrational += any(type(v) is tuple for v in row.values())
        assert (irrational > 10) if kind == "sqrt2" else (irrational == 0)


def test_probe_is_unchanged_when_every_operator_is_scaled_by_an_irrational():
    ladders = six_ladders()
    unit = quadext(1, 1, 2)
    scaled = [op.scale(unit) for op in ladders]
    assert all(isinstance(c, QuadExt) for op in scaled for c in op.terms.values())
    assert lie_closure_probe(scaled, V3) == lie_closure_probe(ladders, V3)


# -- Lie closure probe ---------------------------------------------------------------------------


def six_ladders():
    ops = []
    for case in CaseId:
        _, jp, jm = intrinsic_realization(case.data, 1, 0)
        ops.extend([jp, jm])
    return ops


def test_single_derivative_is_abelian():
    space = MonomialSpace((0, 1, 2, 3))
    report = lie_closure_probe([DiffOp({(0, 1): 1})], space)
    assert report.closed_as_operators
    assert report.failing_pairs == ()


def test_six_ladders_do_not_close():
    report = lie_closure_probe(six_ladders(), V3)
    assert not report.closed_as_operators
    assert report.failing_pairs


def test_six_ladders_plus_diagonals_span_at_least_sl3():
    ops = six_ladders()
    for case in (CaseId.CASE1, CaseId.CASE2):
        j0, _, _ = intrinsic_realization(case.data, 1, 0)
        ops.append(j0)
    report = lie_closure_probe(ops, V3)
    assert report.matrix_lie_span_dimension >= 8


def test_probe_saturates_brackets_of_new_brackets():
    # case 1 raising, case 2 raising and case 3 lowering reach sl(3) only with
    # brackets of depth 3, [a, [b, c]]
    ladders = six_ladders()
    ops = [ladders[0], ladders[2], ladders[5]]
    report = lie_closure_probe(ops, V3)
    dims = _lie_span_dimensions_by_sympy(ops, V3)
    assert report.matrix_lie_span_dimension == dims[-1] == 8
    assert report.rounds_used == len(dims) - 1 == 3


def _matrix_bound(ops, space):
    """n^2 - 1, plus 1 when some operator's matrix has a nonzero trace."""
    n = space.dimension
    traces = [sum((Q(op.matrix_on_space(space)[i, i]) for i in range(n)), Q(0)).value for op in ops]
    return n * n - 1 + any(not scalar_is_zero(t) for t in traces)


def _lie_span_dimensions_by_sympy(ops, space):
    """Dimensions d_1, d_2, ... of D_1 = span(mats) and D_(k+1) = D_k + [mats, D_k],
    the span of the brackets of depth <= k of the operators' matrices.  The
    list ends at the first k with D_k = D_(k+1), so it has k + 1 entries;
    products and ranks are sympy's, over QQ or QQ<sqrt(2)>."""
    irrational = any(isinstance(c, QuadExt) for op in ops for c in op.terms.values())
    field = _QQ_SQRT2 if irrational else sympy.QQ
    n = space.dimension
    mats = [DomainMatrix([[_in_field(field, x) for x in row]
                          for row in op.matrix_on_space(space).rows], (n, n), field)
            for op in ops]

    def independent(ms):
        """The matrices of ``ms`` independent of those before them."""
        if not ms:
            return []
        flat = DomainMatrix([m.to_list_flat() for m in ms], (len(ms), n * n), field)
        _, pivots = flat.transpose().rref()
        return [ms[i] for i in pivots]

    basis = independent(mats)
    dims = [len(basis)]
    while len(dims) < 2 or dims[-1] > dims[-2]:
        basis = independent(basis + [a * b - b * a for a in mats for b in basis])
        dims.append(len(basis))
    return dims


def _probe_families():
    """Seeded families: enumerated bases at orders 1 and 2 on 3-6 exponents,
    consecutive or not, whole and sampled, and the six ladders with and
    without the case 1 and 2 diagonals; each scaled by seeded rationals, and
    those on V3 also by 1 + sqrt(2)."""
    rng = random.Random("probe-saturation-oracle")
    ladders = six_ladders()
    diagonals = [intrinsic_realization(case.data, 1, 0)[0]
                 for case in (CaseId.CASE1, CaseId.CASE2)]
    families = []
    for size in (3, 4, 5, 6):
        start = rng.randint(0, 3)
        for exponents in (range(start, start + size), rng.sample(range(size + 3), size)):
            space = MonomialSpace(tuple(sorted(exponents)))
            for order in (1, 2):
                basis = enumerate_preserving_operators(space, order)
                families.append((basis, space))
                families.append((rng.sample(basis, rng.randint(1, len(basis))), space))
    for ops in (ladders, ladders + diagonals, [ladders[0], ladders[2], ladders[5]],
                [ladders[0], ladders[1]], ladders[:4] + diagonals[:1]):
        families.append((ops, V3))
    unit = quadext(1, 1, 2)
    scaled = []
    for ops, space in families:
        scaled.append(([op.scale(rand_fraction(rng, nonzero=True)) for op in ops], space))
        if space == V3:
            scaled.append(([op.scale(unit) for op in ops], space))
    return scaled


def test_probe_matches_a_saturation_that_brackets_every_pair(monkeypatch):
    # g independent generators are bracketed pairwise, and each of the d - g
    # matrices the span keeps after them with every generator, so a probe
    # that runs to the end forms C(g, 2) + g (d - g) brackets.  The C(g, 2) +
    # g (d_(k-1) - g) brackets of depth <= k, k >= 2, are formed before any
    # deeper one, so one that stops where the bound is reached at depth r
    # forms more than those of depth <= r - 1 and at most those of depth <= r
    calls = []
    original = diffops._bracket

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(diffops, "_bracket", counted)
    seen = set()
    for ops, space in _probe_families():
        calls.clear()
        report = lie_closure_probe(ops, space)
        dims = _lie_span_dimensions_by_sympy(ops, space)
        assert report.matrix_lie_span_dimension == dims[-1], (ops, space)
        assert report.rounds_used == len(dims) - 1, (ops, space)
        g = dims[0]

        def up_to_depth(k):
            return 0 if k < 2 else math.comb(g, 2) + g * (dims[k - 2] - g)

        assert len(calls) <= up_to_depth(len(dims)), (ops, space)
        bound = _matrix_bound(ops, space)
        if dims[-1] < bound:
            assert len(calls) == up_to_depth(len(dims))
            seen.add("never")
            continue
        r = dims.index(bound) + 1
        if r == 1:
            assert not calls
            seen.add("before any bracket")
        else:
            assert up_to_depth(r - 1) < len(calls) <= up_to_depth(r)
            seen.add("mid-depth" if len(calls) < up_to_depth(r) else "end of depth")
        seen.add(("bound", space.dimension, bound))
        if any(isinstance(c, QuadExt) for op in ops for c in op.terms.values()):
            seen.add("sqrt(2)")
    assert {"before any bracket", "mid-depth", "never", "sqrt(2)",
            ("bound", 3, 8), ("bound", 3, 9), ("bound", 4, 16)} <= seen, seen


def test_probe_forms_no_bracket_once_the_span_is_full(monkeypatch):
    spans, dims_at_bracket = [], []
    original_bracket = diffops._bracket

    class Recorded(_ExactSpan):
        def __init__(self):
            super().__init__()
            self.added = []
            spans.append(self)

        def add(self, vec):
            self.added.append(list(vec.values()))
            return super().add(vec)

    def recorded(a, b):
        dims_at_bracket.append(spans[-1].dimension)  # the matrix span is made last
        return original_bracket(a, b)

    monkeypatch.setattr(diffops, "_ExactSpan", Recorded)
    monkeypatch.setattr(diffops, "_bracket", recorded)
    for ops, space in _probe_families():
        spans.clear()
        dims_at_bracket.clear()
        report = lie_closure_probe(ops, space)
        assert all(d < _matrix_bound(ops, space) for d in dims_at_bracket), (ops, space)
        if all(isinstance(c, Fr) for op in ops for c in op.terms.values()):
            assert all(type(v) is int for row in spans[-1].added for v in row)
        assert spans[-1].dimension == report.matrix_lie_span_dimension

    # the order-2 basis on 1, x, x^2 spans all 3 x 3 matrices before any bracket
    space = MonomialSpace((0, 1, 2))
    ops = enumerate_preserving_operators(space, 2)
    spans.clear()
    dims_at_bracket.clear()
    report = lie_closure_probe(ops, space)
    assert report.matrix_lie_span_dimension == 9 and report.rounds_used == 1
    assert dims_at_bracket == []


def _failing_pairs_by_sympy_rank(ops):
    """Pairs whose bracket leaves span(ops, (xD)^0 .. (xD)^3), by sympy rank
    on term coordinates; the powers of x*D are built by compose."""
    euler = DiffOp({(1, 1): 1})
    allowance = [DiffOp({(0, 0): 1})]
    for _ in range(3):
        allowance.append(allowance[-1].compose(euler))
    brackets = {(i, j): _oracle_commutator(ops[i], ops[j])
                for i, j in itertools.combinations(range(len(ops)), 2)}
    base = list(ops) + allowance
    keys = sorted(set().union(*(op.terms for op in base + list(brackets.values()))))

    def rank(rows):
        elements = [[sympy.QQ.convert(sympy.Rational(op.terms.get(key, 0))) for key in keys]
                    for op in rows]
        return DomainMatrix(elements, (len(rows), len(keys)), sympy.QQ).rank()

    base_rank = rank(base)
    return tuple(pair for pair, br in brackets.items() if rank(base + [br]) > base_rank)


def test_probe_failing_pairs_equal_those_of_the_powers_of_euler():
    rng = random.Random("probe-failing-pairs")
    families = []
    for order in (1, 2):
        for _ in range(3):
            space = MonomialSpace(tuple(sorted(rng.sample(range(6), rng.randint(2, 3)))))
            families.append((enumerate_preserving_operators(space, order), space))
    for _ in range(3):
        families.append(
            ([op.scale(rand_fraction(rng, nonzero=True)) for op in six_ladders()], V3)
        )
    outcomes = set()
    for ops, space in families:
        report = lie_closure_probe(ops, space)
        want = _failing_pairs_by_sympy_rank(ops)
        assert report.failing_pairs == want, (ops, space)
        assert report.closed_as_operators == (not want)
        outcomes.add(bool(want))
    assert outcomes == {True, False}


@pytest.mark.parametrize("n, depth", [(8, 6), (10, 8), (12, 10)])
def test_dense_order_2_probe_spans_every_matrix(n, depth):
    # the order-2 basis on 1, x, ..., x^(n-1) holds a matrix with a trace, so
    # its span reaches all n^2 matrices, at the depth that
    # _lie_span_dimensions_by_sympy reads (the least k with D_k = D_(k+1))
    space = MonomialSpace(tuple(range(n)))
    report = lie_closure_probe(enumerate_preserving_operators(space, 2), space)
    assert report.matrix_lie_span_dimension == n * n
    assert report.rounds_used == depth
    assert report.failing_pairs == (
        (4, 5), (4, 6), (4, 7), (5, 6), (5, 8), (6, 7), (6, 8), (7, 8))


def _two_radicand_families():
    r2, r3 = quadext(0, 1, 2), quadext(0, 1, 3)
    xd, one = DiffOp({(1, 1): 1}), DiffOp({(0, 0): 1})
    return [
        [DiffOp({(1, 1): r2, (0, 0): r3}), xd],
        [xd.scale(r2), one.scale(r3)],
        [one.scale(r3), xd.scale(r2)],
        [one.scale(quadext(1, 1, 2)), xd.scale(quadext(1, 1, 3))],
        # one operator, so no bracket: on {1, x} the radicands meet only in its span row
        [DiffOp({(1, 1): r2, (2, 2): r3})],
    ]


def _bracket_outcome(fn):
    try:
        rows = fn()
    except ScalarDomainError as exc:
        return str(exc)
    return [(i, j, v, type(v)) for i, row in enumerate(rows) for j, v in row.items()]


def _scalar_rows(rows, den):
    """Numerator rows over ``den`` as rows of scalars."""
    return [{j: from_numerator(v, den) for j, v in row.items()} for row in rows]


def _dense_commutator(a, b):
    """AB - BA of two square lists of dense rows, in the tests' arithmetic
    (exact_field.Q), as rows {column: nonzero value}.  Each product is formed
    in ``Matrix @``'s documented order: row by row, the inner index ascending,
    zero factors skipped; BA is then subtracted from AB entry by entry,
    row-major."""
    n = len(a)

    def product(x, y):
        out = []
        for i in range(n):
            acc = [Q(0)] * n
            for k in range(n):
                if scalar_is_zero(x[i][k]):
                    continue
                for j in range(n):
                    if not scalar_is_zero(y[k][j]):
                        acc[j] = acc[j] + Q(x[i][k]) * y[k][j]
            out.append(acc)
        return out

    rows = []
    for ab, ba in zip(product(a, b), product(b, a)):
        diff = [p - q for p, q in zip(ab, ba)]
        rows.append({j: v.value for j, v in enumerate(diff) if v})
    return rows


def test_bracket_rows_equal_the_matrix_commutator(rng):
    # sparse matrices over Q, Q(sqrt 2), Q(sqrt 3) or both, bracketed as their
    # numerator rows and as dense rows of their entries: the same entries of
    # the same types, or the same error
    root3 = QuadExt(0, 1, 3)
    fields = [(), (ROOT2,), (root3,), (ROOT2, root3)]
    raised = results = 0

    def rand_matrix(n, roots):
        entries = {}
        for _ in range(rng.randint(0, n * n)):
            c = rand_fraction(rng, nonzero=True)
            if roots and rng.random() < 0.5:
                c = quadext(c, rand_fraction(rng, nonzero=True), rng.choice(roots).d)
            entries[(rng.randrange(n), rng.randrange(n))] = c
        return Matrix.from_entries(n, entries)

    def bracket(a, b):
        rows = diffops._bracket(list(a._rows), list(b._rows))
        return _scalar_rows(rows, a._den * b._den)

    pairs = []
    for _ in range(400):
        n = rng.randint(1, 5)
        pairs.append((rand_matrix(n, rng.choice(fields)), rand_matrix(n, rng.choice(fields))))
    # sqrt(2) meets sqrt(3) in a product; then, in the difference, at (0, 0)
    # as sqrt(3) - sqrt(2) and at (0, 2) as sqrt(2) - sqrt(3), where BA's
    # row 0 is formed from column 2 down: the error is the first column's
    e12, e21 = Matrix.from_entries(2, {(0, 1): ROOT2}), Matrix.from_entries(2, {(1, 0): root3})
    flip = Matrix.from_entries(3, {(0, 2): 1, (1, 1): 1, (2, 0): 1})
    mixed = Matrix.from_entries(3, {(0, 0): root3, (0, 2): ROOT2, (2, 0): root3, (2, 2): ROOT2})
    pairs += [(e12, e21), (flip, mixed)]
    for a, b in pairs:
        got = _bracket_outcome(lambda: bracket(a, b))
        want = _bracket_outcome(lambda: _dense_commutator(a.rows, b.rows))
        assert got == want, (a, b)
        if isinstance(got, str):
            raised += 1
        else:
            results += bool(got)
    assert want == "mixed radicands sqrt(3) and sqrt(2)"
    assert _bracket_outcome(lambda: bracket(e12, e21)) == (
        "mixed radicands sqrt(2) and sqrt(3)")
    assert raised > 50 and results > 150, (raised, results)


@pytest.mark.parametrize("ops", _two_radicand_families())
def test_probe_over_two_radicands_raises(ops):
    # sqrt(2) and sqrt(3) meet in a matrix entry, a bracket or a span row;
    # the radicand pair may be named in either order
    for space in (V3, MonomialSpace((0, 1))):
        with pytest.raises(ScalarDomainError, match="mixed radicands"):
            lie_closure_probe(ops, space)


def test_probe_of_no_matrix_takes_one_round():
    for ops, space in (([], V3), ([DiffOp({(0, 2): 1})], MonomialSpace((0, 1)))):
        report = lie_closure_probe(ops, space)
        assert report.matrix_lie_span_dimension == 0
        assert report.rounds_used == 1


def test_probe_computes_no_symbolic_action(monkeypatch):
    calls = []
    original = DiffOp.symbolic_action

    def counted(op):
        calls.append(op)
        return original(op)

    monkeypatch.setattr(DiffOp, "symbolic_action", counted)
    report = lie_closure_probe(six_ladders(), V3)
    # the probe works on terms and matrices; the symbolic action is for display
    assert not report.closed_as_operators and calls == []


def test_probe_requires_preserving_inputs():
    with pytest.raises(SpaceEscapeError):
        lie_closure_probe([DiffOp({(0, 1): 1})], V3)


# -- text format -----------------------------------------------------------------------------------


def test_text_round_trip():
    ops = [
        CASE1_RAISE,
        DiffOp({(-1, 2): Fr(1, 6)}),
        DiffOp({(0, 0): quadext(Fr(1, 2), Fr(-1, 3), 5), (2, 1): -1}),
        DiffOp(),
    ]
    for op in ops:
        assert read_diffop(op.to_text()) == op


def _text_by_terms(op):
    """The operator text rendered from ``op.terms``: derivative order
    descending, then x-power descending, each rational coefficient as the
    sign and ``str`` of its absolute value, each irrational one as ``+ (...)``."""
    text = ""
    for (m, n), c in sorted(op.terms.items(), key=lambda t: (-t[0][1], -t[0][0])):
        if isinstance(c, QuadExt):
            sign, value = "+", f"({render_scalar(c)})"
        else:
            sign, value = ("-" if c < 0 else "+"), str(abs(c))
        body = f"{value} * x^{m} * D^{n}"
        text += f" {sign} {body}" if text else ("-" if sign == "-" else "") + body
    return text or "0"


def test_text_equals_a_renderer_from_the_terms(rng):
    # Fraction and QuadExt coefficients, negative x-powers, unit and non-unit
    # denominators, and the zero operator
    ops = [DiffOp(), CASE1_RAISE, DiffOp({(-1, 2): Fr(1, 6)})]
    ops += [rand_scalar_op(rng) for _ in range(150)]
    ops += [rand_op(rng, nterms=5, mrange=(-4, 4), nmax=4) for _ in range(150)]
    ops += [op.scale(rand_fraction(rng, nonzero=True))
            for op in enumerate_preserving_operators(MonomialSpace((0, 2, 3)), 3)]
    ops += [DiffOp({(rng.randint(-3, 3), rng.randint(0, 3)):
                    quadext(rand_fraction(rng), rand_fraction(rng, nonzero=True), 5)
                    for _ in range(3)}) for _ in range(30)]
    dens = set()
    for op in ops:
        text = op.to_text()
        assert text == _text_by_terms(op), op.terms
        assert read_diffop(text) == op
        dens.add(op._den == 1)
    assert dens == {True, False}


def test_text_format_example():
    assert CASE1_RAISE.to_text() == "1/3 * x^3 * D^2 - 1 * x^2 * D^1 + 1 * x^1 * D^0"
    assert read_diffop("1/3 * x^3 * D^2 - 1 * x^2 * D^1 + 1 * x^1 * D^0") == CASE1_RAISE
