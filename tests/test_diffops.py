import itertools
import math
import random
from fractions import Fraction as Fr

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from sl2deform.algebra import AlgebraParams, build_classic_sl2_diffops
from sl2deform.cases import CaseId, build_case_realization
from sl2deform.diffops import (
    MAX_ENUMERATION_SIZE,
    DiffOp,
    MonomialSpace,
    SpaceEscapeError,
    V3,
    _ExactSpan,
    _falling,
    _falling_coefficients,
    closure_check,
    enumerate_preserving_operators,
    lie_closure_probe,
    parse_diffop,
)
from sl2deform.matrices import Matrix
from sl2deform.reps import (
    build_new_rep_matrices,
    case_rep_spec,
    intrinsic_gamma_and_product,
    solve_case,
)
from sl2deform.scalars import QuadExt, quadext, scalar_is_zero

from conftest import rand_fraction

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
    assert op.image(3) == {4: Fr(2)}  # (1/3) * 3*2 * x^4


def test_case1_raising_kills_x():
    assert CASE1_RAISE.image(1) == {}
    assert CASE1_RAISE.image(3) == {}
    assert CASE1_RAISE.image(0) == {1: Fr(1)}


def test_inverse_power_lowering():
    op = DiffOp({(-1, 2): Fr(1, 6)})
    assert op.image(3) == {0: Fr(1)}
    assert op.image(1) == {}


def test_image_keeps_negative_exponents_and_drops_cancellations():
    assert DiffOp({(-1, 0): 1}).image(0) == {-1: Fr(1)}
    # x^-1 D^3 - x^-2 D^2 sends x^k to k(k-1)(k-3) x^(k-4): x^3 to 0
    cancelling = DiffOp({(-1, 3): 1, (-2, 2): -1})
    assert cancelling.image(3) == {}
    assert cancelling.image(4) == {0: Fr(24 - 12)}


# -- symbolic action ----------------------------------------------------------------


def test_falling_factorial_is_built_once_per_order_and_has_the_right_values():
    for n in range(13):
        coeffs = _falling_coefficients(n)
        assert coeffs is _falling_coefficients(n)
        assert len(coeffs) == n + 1 and coeffs[-1] == 1
        for k in range(-3, 16):
            assert sum(c * k ** i for i, c in enumerate(coeffs)) == _falling(k, n), (n, k)


def test_euler_symbolic_action():
    assert DiffOp.euler().symbolic_action() == {0: (0, 1)}


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
            c = c + rand_fraction(rng) * ROOT2
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
            got = sum(_sympy_scalar(v) * x ** e for e, v in op.image(k).items())
            assert sympy.expand(want - got) == 0, (op, k)
            assert all(not scalar_is_zero(v) for v in op.image(k).values())


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
                value = sum((c * k ** i for i, c in enumerate(coeffs)), Fr(0))
                if not scalar_is_zero(value):
                    expected[k + s] = value
            assert op.image(k) == expected


# -- composition and normal ordering ---------------------------------------------------


def test_weyl_relation():
    d = DiffOp.derivative()
    x = DiffOp.x_power(1)
    assert d.commutator(x) == DiffOp.identity()


def test_classic_bracket_at_spin_one():
    j0, jp, jm = build_classic_sl2_diffops(2)
    assert jp.commutator(jm) == j0 * 2


def test_euler_square_normal_orders():
    e = DiffOp.euler()
    assert e.compose(e) == DiffOp({(2, 2): 1, (1, 1): 1})


def test_compose_handles_negative_powers():
    # D . x^-1 = -x^-2 + x^-1 D
    d = DiffOp.derivative()
    xinv = DiffOp.x_power(-1)
    assert d.compose(xinv) == DiffOp({(-2, 0): -1, (-1, 1): 1})


def test_symbolic_action_is_a_homomorphism(rng):
    # (a . b) x^k = a (b x^k): compose agrees with applying b, then a
    for _ in range(30):
        a, b = rand_scalar_op(rng), rand_scalar_op(rng)
        for k in range(7):
            applied: dict = {}
            for e, v in b.image(k).items():
                for e2, w in a.image(e).items():
                    applied[e2] = applied.get(e2, Fr(0)) + v * w
            applied = {e: v for e, v in applied.items() if not scalar_is_zero(v)}
            assert a.compose(b).image(k) == applied, (a, b, k)


# -- spaces ------------------------------------------------------------------------------


def test_monomial_space_validation():
    with pytest.raises(ValueError):
        MonomialSpace((1, 0))
    with pytest.raises(ValueError):
        MonomialSpace((0, 0, 1))
    with pytest.raises(ValueError):
        MonomialSpace((-1, 0))


def test_preserves_space_examples():
    assert CASE1_RAISE.preserves_space(V3)
    assert not DiffOp.derivative().preserves_space(V3)
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
    j0, _, _ = build_case_realization(CaseId.CASE1, alpha, beta, f=1, g=1)
    got = j0.matrix_on_space(V3)
    shift = beta / (3 * alpha)
    assert got == Matrix.diagonal([Fr(-7, 4) - shift, Fr(-3, 4) - shift, Fr(5, 4) - shift])


def test_matrix_on_space_rejects_escapes():
    with pytest.raises(SpaceEscapeError):
        DiffOp.derivative().matrix_on_space(V3)


def test_case_realization_matches_rep_matrices():
    for case in CaseId:
        alpha, beta = Fr(2), Fr(-3)
        intr = intrinsic_gamma_and_product(case, alpha, beta)
        sol = solve_case(case, alpha, beta, intr.gamma, intr.branch)
        spec = case_rep_spec(case, sol)
        ops = build_case_realization(case, alpha, beta, f=spec.f, g=spec.g, c=sol.c)
        built = [op.matrix_on_space(V3) for op in ops]
        triple = build_new_rep_matrices(spec)
        assert built == [triple.j0, triple.jplus, triple.jminus]


# -- case realizations ----------------------------------------------------------------------


def test_case_term_tables():
    j0, jp, jm = build_case_realization(CaseId.CASE1, 1, 0, f=Fr(5), g=Fr(7))
    assert jp == DiffOp({(3, 2): Fr(5, 3), (2, 1): -5, (1, 0): 5})
    assert jm == DiffOp({(1, 2): Fr(-7, 2), (0, 1): 7})
    _, jp2, jm2 = build_case_realization(CaseId.CASE2, 1, 0, f=1, g=1)
    assert jp2 == DiffOp({(4, 2): Fr(-1, 2), (3, 1): 1})
    assert jm2 == DiffOp({(0, 2): Fr(1, 6)})
    j03, jp3, jm3 = build_case_realization(CaseId.CASE3, 1, 0, f=1, g=1)
    assert jm3 == DiffOp({(-1, 2): Fr(1, 6)})
    assert j03 == DiffOp({(1, 1): Fr(1, 3), (0, 0): Fr(-5, 12)})


def test_case3_diagonal_with_beta():
    j0, _, _ = build_case_realization(CaseId.CASE3, Fr(2), Fr(6), f=1, g=1)
    # (1/3) x D - 5/12 - beta/(3 alpha)
    assert j0 == DiffOp({(1, 1): Fr(1, 3), (0, 0): Fr(-5, 12) - Fr(6) / Fr(6)})


def test_intrinsic_realization_needs_alpha_or_c():
    with pytest.raises(ValueError):
        build_case_realization(CaseId.CASE1, 0, 1, f=1, g=1)
    j0, _, _ = build_case_realization(CaseId.CASE1, 0, 1, f=1, g=1, c=Fr(-7, 10))
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
        intr = intrinsic_gamma_and_product(case, alpha, beta)
        sol = solve_case(case, alpha, beta, intr.gamma, intr.branch)
        ops = build_case_realization(case, alpha, beta, f=1, g=sol.fg, c=sol.c)
        params = AlgebraParams(alpha, beta, intr.gamma, sol.delta)
        assert closure_check(ops, params, None).passed


def test_generic_gamma_closes_on_space_only():
    alpha, beta = Fr(1), Fr(0)
    gamma = Fr(-579, 300) - 3  # radicand 900, a perfect square
    sol = solve_case(CaseId.CASE1, alpha, beta, gamma, "upper")
    ops = build_case_realization(CaseId.CASE1, alpha, beta, f=1, g=sol.fg, c=sol.c)
    params = AlgebraParams(alpha, beta, gamma, sol.delta)
    on_space = closure_check(ops, params, V3)
    intrinsic = closure_check(ops, params, None)
    assert on_space.passed
    assert not intrinsic.passed
    nonzero = [act for _, act in intrinsic.residuals if not act.is_zero()]
    assert nonzero  # some shift polynomial survives as a polynomial in k


def test_on_space_check_fails_on_any_nonzero_residual():
    alpha, beta = Fr(2), Fr(3)
    intr = intrinsic_gamma_and_product(CaseId.CASE1, alpha, beta)
    sol = solve_case(CaseId.CASE1, alpha, beta, intr.gamma, intr.branch)
    j0, jp, jm = build_case_realization(CaseId.CASE1, alpha, beta, f=1, g=sol.fg, c=sol.c)
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


def test_intrinsic_pass_implies_on_space_pass(rng):
    params = AlgebraParams(0, 0, 2, 0)
    triple = build_classic_sl2_diffops(3)
    assert closure_check(triple, params, None).passed
    for _ in range(5):
        exps = tuple(sorted(rng.sample(range(0, 8), rng.randint(1, 4))))
        assert closure_check(triple, params, MonomialSpace(exps)).passed


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
    assert basis[0] == DiffOp.identity()


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
    for _ in range(5):
        top = rng.randint(2, 9)
        exps = sorted(rng.sample(range(top), rng.randint(0, min(4, top)))) + [top]
        grid.append((MonomialSpace(tuple(exps)), rng.randint(1, 3)))
    for space, order in grid:
        assert enumerate_preserving_operators(space, order) == sympy_preserving_basis(
            space, order
        ), (space.exponents, order)


def test_enumerate_rejects_an_over_budget_system_at_once():
    # (max_order + 1) * window * dimension for (0, top) at order 0 is 2 * (top + 1)
    top = MAX_ENUMERATION_SIZE // 2
    with pytest.raises(ValueError, match="exceeds"):
        enumerate_preserving_operators(MonomialSpace((0, top)), 0)
    with pytest.raises(ValueError, match="exceeds"):
        enumerate_preserving_operators(MonomialSpace((0, 1, 10**6)), 2)


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
        [sum((c * b[j] for c, b in zip(coeffs, basis)), 0) for j in range(width)]
        for coeffs in ([_kernel_scalar(rng, kind) for _ in basis] for _ in range(nrows))
    ]


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
        span = _ExactSpan(width)
        assert [span.add(row) for row in rows] == [i in independent for i in range(nrows)]
        assert all(type(v) in (int, Fr, QuadExt) for row in span.rows for v in row)
        rref, pivots = matrix.rref()
        assert span.dimension == len(pivots)
        ranks.add((span.dimension, nrows, width))

        null = span.nullspace()
        free = [c for c in range(width) if c not in pivots]
        assert [max(vec) for vec in null] == free
        for vec, fc in zip(null, free):
            if kind == "int":
                assert all(type(v) is int for v in vec.values())
            lead = _in_field(field, vec[fc])
            got = [_in_field(field, vec.get(c, 0)) / lead for c in range(width)]
            want = [field.one if c == fc else field.zero for c in range(width)]
            for i, pc in enumerate(pivots):
                want[pc] = -rref[i, fc].element
            assert got == want

        combos = [[_kernel_scalar(rng, kind) for _ in rows] for _ in range(3)]
        probes = [[sum((c * r[j] for c, r in zip(coeffs, rows)), 0) for j in range(width)]
                  for coeffs in combos]
        probes += [[_kernel_scalar(rng, kind) for _ in range(width)] for _ in range(3)]
        for probe in probes:
            stacked = elements + [[_in_field(field, x) for x in probe]]
            inside = DomainMatrix(stacked, (nrows + 1, width), field).rank() == len(pivots)
            assert span.contains(probe) == inside
    # full-rank, rank-deficient and all-zero systems all occur
    assert any(rank < min(n, w) for rank, n, w in ranks)
    assert any(rank == min(n, w) for rank, n, w in ranks)
    assert any(rank == 0 for rank, _, _ in ranks)


def test_exact_span_keeps_rows_of_ints_and_radicals_exact():
    # an integer pivot in a row holding a QuadExt, then a rational row
    r = quadext(1, 1, 2)
    span = _ExactSpan(3)
    assert span.add([2, r, 0]) and span.add([0, 3, Fr(1, 2)])
    assert not span.add([2, r + 6, 1])  # the first row plus twice the second
    assert all(type(v) in (int, Fr, QuadExt) for row in span.rows for v in row)
    # RREF rows [1, 0, -r/12] and [0, 1, 1/6]
    assert span.nullspace() == [{0: r / 12, 1: Fr(-1, 6), 2: 1}]


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
        _, jp, jm = build_case_realization(case, 1, 0, f=1, g=1)
        ops.extend([jp, jm])
    return ops


def test_single_derivative_is_abelian():
    space = MonomialSpace((0, 1, 2, 3))
    report = lie_closure_probe([DiffOp.derivative()], space)
    assert report.closed_as_operators
    assert report.failing_pairs == ()


def test_six_ladders_do_not_close():
    report = lie_closure_probe(six_ladders(), V3)
    assert not report.closed_as_operators
    assert report.failing_pairs


def test_six_ladders_plus_diagonals_span_at_least_sl3():
    ops = six_ladders()
    for case in (CaseId.CASE1, CaseId.CASE2):
        j0, _, _ = build_case_realization(case, 1, 0, f=1, g=1)
        ops.append(j0)
    report = lie_closure_probe(ops, V3)
    assert report.matrix_lie_span_dimension >= 8


def test_probe_saturates_brackets_of_new_brackets():
    # case 1 raising, case 2 raising and case 3 lowering reach sl(3) only in the
    # third round; the oracle brackets every pair of its basis in every round
    ladders = six_ladders()
    ops = [ladders[0], ladders[2], ladders[5]]
    report = lie_closure_probe(ops, V3)
    basis = [sympy.Matrix(op.matrix_on_space(V3).rows) for op in ops]
    rounds, grew = 0, True
    while grew:
        rounds, grew = rounds + 1, False
        for a, b in itertools.combinations(list(basis), 2):
            flat = sympy.Matrix([list(m) for m in basis + [a * b - b * a]])
            if flat.rank() > len(basis):
                basis.append(a * b - b * a)
                grew = True
    assert report.matrix_lie_span_dimension == len(basis) == 8
    assert report.rounds_used == rounds == 3


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
        lie_closure_probe([DiffOp.derivative()], V3)


# -- text format -----------------------------------------------------------------------------------


def test_text_round_trip():
    ops = [
        CASE1_RAISE,
        DiffOp({(-1, 2): Fr(1, 6)}),
        DiffOp({(0, 0): quadext(Fr(1, 2), Fr(-1, 3), 5), (2, 1): -1}),
        DiffOp(),
    ]
    for op in ops:
        assert parse_diffop(op.to_text()) == op


def test_text_format_example():
    assert CASE1_RAISE.to_text() == "1/3 * x^3 * D^2 - 1 * x^2 * D^1 + 1 * x^1 * D^0"
    assert parse_diffop("1/3 * x^3 * D^2 - 1 * x^2 * D^1 + 1 * x^1 * D^0") == CASE1_RAISE
