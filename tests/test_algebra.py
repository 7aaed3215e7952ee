import json
import os
import random
import traceback
from fractions import Fraction as Fr

import pytest

from sl2deform import algebra, cli, diffops, scalars
from sl2deform.algebra import (
    AlgebraParams,
    MatrixTriple,
    build_classic_sl2_diffops,
    build_classic_sl2_matrices,
    casimir_matrix,
    check_deformed_relations,
    classic_norm_squares,
    cubic,
)
from sl2deform.cases import CaseId, build_case_realization
from sl2deform.diffops import V3
from sl2deform.matrices import Matrix
from sl2deform.reps import case_rep_spec, intrinsic_gamma_and_product, solve_case
from sl2deform.scalars import QuadExt, from_numerator, quadext, scalar_is_zero, sqrt_exact

from conftest import assert_names_two_radicands, rand_fraction
from exact_field import Q
from test_diffops import _two_radicand_families
from test_matrices import as_tuples, dense_entrywise, dense_matmul, matrix

CLASSIC = AlgebraParams(0, 0, 2, 0)


def zeros(n):
    return Matrix.from_entries(n, {})


def scalar_matrix(n, s):
    """s times the n x n identity."""
    return Matrix.diagonal([s] * n)


def solved_case_matrices(case, alpha, beta):
    intr = intrinsic_gamma_and_product(case.data, alpha, beta)
    sol = solve_case(case.data, alpha, beta, intr.gamma, intr.branch)
    spec = case_rep_spec(case.data, sol)
    ops = build_case_realization(case.data, f=spec.f, g=spec.g, c=sol.c)
    triple = MatrixTriple(*(op.matrix_on_space(V3) for op in ops))
    params = AlgebraParams(alpha, beta, intr.gamma, sol.delta)
    return triple, params


def test_classic_spin_zero_is_trivial():
    triple = build_classic_sl2_matrices(0)
    assert triple.dimension == 1
    assert triple.j0.is_zero() and triple.jplus.is_zero() and triple.jminus.is_zero()


@pytest.mark.parametrize(
    "build", [build_classic_sl2_matrices, build_classic_sl2_diffops, classic_norm_squares]
)
def test_classic_builders_refuse_a_negative_spin(build):
    with pytest.raises(ValueError, match="two_j must be nonnegative"):
        build(-1)


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
    assert list(j0.symbolic_action()) == [0]
    for k in range(5):
        assert j0.image(k) == ({k: k - Fr(4, 2)} if k != 2 else {})
    assert jm.image(0) == {}


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
    zeros3 = MatrixTriple(zeros(3), zeros(3), zeros(3))
    assert check_deformed_relations(zeros3, AlgebraParams(0, 0, 0, 0)).all_zero


def test_constant_term_cannot_vanish_on_zero_matrices():
    zeros3 = MatrixTriple(zeros(3), zeros(3), zeros(3))
    res = check_deformed_relations(zeros3, AlgebraParams(0, 0, 0, 1))
    assert res.bracket == scalar_matrix(3, -1)
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
            assert cas @ gen == gen @ cas


def test_case2_casimir_vanishes_at_beta_zero():
    triple, params = solved_case_matrices(CaseId.CASE2, Fr(1), Fr(0))
    assert casimir_matrix(triple, params).is_zero()


def test_case3_casimir_value_at_unit_alpha():
    triple, params = solved_case_matrices(CaseId.CASE3, Fr(1), Fr(0))
    cas = casimir_matrix(triple, params)
    assert cas == scalar_matrix(3, Fr(-1045, 82944))


def test_case1_casimir_value_at_unit_alpha():
    triple, params = solved_case_matrices(CaseId.CASE1, Fr(1), Fr(0))
    assert casimir_matrix(triple, params) == scalar_matrix(3, Fr(315, 1024))


def test_gauge_scaling_leaves_bracket_and_casimir_alone(rng):
    triple, params = solved_case_matrices(CaseId.CASE1, Fr(2), Fr(3))
    for lam in (Fr(2), Fr(-1, 3), Fr(7, 5)):
        scaled = MatrixTriple(triple.j0, matrix(_times(triple.jplus.rows, lam)),
                              matrix(_times(triple.jminus.rows, 1 / lam)))
        res0 = check_deformed_relations(triple, params)
        res1 = check_deformed_relations(scaled, params)
        assert res1.bracket == res0.bracket
        assert res1.all_zero == res0.all_zero
        assert casimir_matrix(scaled, params) == casimir_matrix(triple, params)


def test_bracket_residual_is_the_commutator_less_the_direct_cubic(rng):
    for n in range(1, 6):
        j0 = Matrix.diagonal([rand_fraction(rng) for _ in range(n)])
        plus, minus = (
            matrix([[rand_fraction(rng) if rng.random() < 0.4 else 0 for _ in range(n)]
                    for _ in range(n)])
            for _ in range(2)
        )
        params = AlgebraParams(
            rand_fraction(rng), rand_fraction(rng), rand_fraction(rng), rand_fraction(rng)
        )
        d = j0.rows
        direct = _plus(_plus(_plus(
            _times(dense_matmul(dense_matmul(d, d), d), params.alpha),
            _times(dense_matmul(d, d), params.beta)),
            _times(d, params.gamma)),
            _times(_identity(n), params.delta))
        residuals = check_deformed_relations(MatrixTriple(j0, plus, minus), params)
        assert residuals.bracket.rows == as_tuples(
            _minus(_commutator(plus.rows, minus.rows), direct))
        assert Matrix.diagonal(cubic([j0[i, i] for i in range(n)], params)).rows == as_tuples(direct)


def test_relations_and_casimir_form_two_matrix_products(monkeypatch):
    # J+J- is formed once and shared by the bracket and the Casimir element
    triple, params = solved_case_matrices(CaseId.CASE1, Fr(2), Fr(3))
    products = []
    matmul = Matrix.__matmul__

    def counted(a, b):
        products.append((a, b))
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    residuals = check_deformed_relations(triple, params)
    casimir = casimir_matrix(triple, params)
    assert products == [(triple.jplus, triple.jminus), (triple.jminus, triple.jplus)]
    monkeypatch.undo()
    assert residuals.all_zero
    assert casimir == scalar_matrix(3, casimir[0, 0])
    assert triple.ladder_product == triple.jplus @ triple.jminus


def test_relations_multiply_quadexts_only_in_the_two_products(monkeypatch):
    # a matrix stores the integer coordinates of its irrational entries, so
    # J+J-, J-J+ and every residual entry are formed on integers: not one
    # QuadExt is built, on tables whose ladder entries lie over many radicands
    calls = []
    quad = scalars._quad
    monkeypatch.setattr(scalars, "_quad", lambda *args: calls.append(args) or quad(*args))
    for two_j in range(1, 32):
        triple = build_classic_sl2_matrices(two_j)
        calls.clear()
        triple.jplus @ triple.jminus, triple.jminus @ triple.jplus
        assert check_deformed_relations(triple, CLASSIC).all_zero
        assert calls == [], two_j
    assert any(isinstance(x, QuadExt) for _, _, x in triple.jplus.entries())
    assert calls  # the spy sees the entries built as values


def test_bracket_builds_no_scalar_on_a_valid_table(monkeypatch):
    # the bracket residual is formed on numerators: no entry builds a
    # scalar, on a valid table or on a wrong one
    triples = [build_classic_sl2_matrices(two_j) for two_j in range(1, 32)]
    wrong = AlgebraParams(0, 0, 3, 0)
    built = []
    monkeypatch.setattr(algebra, "from_numerator",
                        lambda v, den: built.append(v) or from_numerator(v, den))
    quad = scalars._quad
    monkeypatch.setattr(scalars, "_quad", lambda *args: built.append(args) or quad(*args))
    for triple in triples:
        assert algebra._bracket_residual(triple, CLASSIC).is_zero(), triple.dimension
    # a wrong gamma leaves every diagonal entry with h_i != 0
    triple = triples[3]
    residual = algebra._bracket_residual(triple, wrong)
    assert built == []
    monkeypatch.undo()
    assert list(residual.entries()) == [(i, i, -h) for i, h in enumerate(triple.diagonal) if h]


def test_no_quadext_is_built_in_operator_products_matrix_products_or_residuals(
        monkeypatch, tmp_path, capsys):
    # an explicit gamma with an irrational c, and a classic spin table whose
    # ladder entries lie over several radicands, as it is and with h_0 moved
    # so that residual entries are nonzero: verify-case builds QuadExts where
    # values enter and leave, never inside the four numerator loops, and
    # rep-check builds none at all
    inside, calls, built = [], [], []
    quad, init = scalars._quad, QuadExt.__init__

    def spy_quad(*args):
        built.append(inside[-1] if inside else None)
        return quad(*args)

    def spy_init(self, *args):
        built.append(inside[-1] if inside else None)
        init(self, *args)

    def guard(owner, name):
        original = getattr(owner, name)

        def guarded(*args):
            inside.append(name)
            calls.append(name)
            try:
                return original(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(owner, name, guarded)

    monkeypatch.setattr(scalars, "_quad", spy_quad)
    monkeypatch.setattr(QuadExt, "__init__", spy_init)
    guard(diffops, "_products")
    guard(Matrix, "__matmul__")
    guard(algebra, "_shift_residual")
    guard(algebra, "_bracket_residual")

    rep, moved = tmp_path / "spin.json", tmp_path / "moved.json"
    spin = build_classic_sl2_matrices(5)
    cli._write_rep_file(str(rep), spin, CLASSIC)
    j0 = Matrix.diagonal([h + Fr(1, 3) * (i == 0) for i, h in enumerate(spin.diagonal)])
    cli._write_rep_file(str(moved), MatrixTriple(j0, spin.jplus, spin.jminus), CLASSIC)
    argvs = (
        ["verify-case", "--case", "1", "--alpha", "3", "--beta", "-1/4",
         "--gamma", "-4183/720", "--branch", "upper"],
        ["rep-check", "--rep", str(rep)],
        ["rep-check", "--rep", str(moved)],
    )
    reports = []
    for argv in argvs:
        calls.clear()
        built.clear()
        assert cli.main(argv) == (1 if argv[-1] == str(moved) else 0), argv
        reports.append(json.loads(capsys.readouterr().out))
        if argv[0] == "verify-case":
            # the parsed or printed values are QuadExts, and nothing else is
            assert built and set(built) == {None}, (argv, built)
        else:
            # rep-check reads text into numerators and renders from them
            assert built == [], (argv, built)
        guarded = {"__matmul__", "_shift_residual", "_bracket_residual"}
        assert set(calls) == guarded | ({"_products"} if argv[0] == "verify-case" else set())
    verify, valid, wrong = reports
    assert "sqrt(6)" in verify["sections"][1]["values"]["c"]
    assert valid["sections"][0]["values"]["all_zero"] is True
    residuals = wrong["sections"][0]["values"]
    assert any("sqrt(" in x for _, _, x in residuals["raising_nonzero_entries"])
    assert residuals["bracket_nonzero_entries"]
    assert "sqrt(5)" in rep.read_text() and "sqrt(2)" in rep.read_text()


def test_diffops_does_no_quadext_arithmetic():
    # the probe's kernel on a sqrt(2)-scaled basis, the parser's signs, the
    # constructor's sums of repeated keys and the normalized matrices of the
    # classic spin 3 compute on numerators, as QuadExt has no operator to call
    # (test_scalars' test_quadext_has_no_arithmetic), and give the values
    # they gave when they called QuadExt operators
    rng = random.Random("diffops-does-no-quadext-arithmetic")
    space = diffops.MonomialSpace(tuple(range(rng.randint(4, 8))))
    unit = quadext(1, 1, 2)
    basis = diffops.enumerate_preserving_operators(space, 1)
    scaled = [op.scale((Q(unit) * rng.choice((-3, -1, 1, 2))).value) for op in basis]
    classic = build_classic_sl2_diffops(6)
    spin = diffops.MonomialSpace(tuple(range(7)))
    report = diffops.lie_closure_probe(scaled, space)
    parsed = diffops.parse_diffop(
        "- (1/2 + 3*sqrt(2)) * x^2 * D^1 + (sqrt(2)) * x^1 * D^0 - 1 * x^0 * D^0")
    summed = diffops.DiffOp([((1, 1), unit), ((0, 0), 1), ((1, 1), unit)])
    mats = [op.matrix_on_space(spin, norm_squares=classic_norm_squares(6)) for op in classic]
    assert any(isinstance(c, QuadExt) for op in scaled for c in op.terms.values())
    assert report == diffops.lie_closure_probe(basis, space)
    assert dict(parsed.terms) == {(0, 0): -1, (1, 0): quadext(0, 1, 2),
                                  (2, 1): quadext(Fr(-1, 2), -3, 2)}
    assert dict(summed.terms) == {(0, 0): 1, (1, 1): quadext(2, 2, 2)}
    assert MatrixTriple(*mats) == build_classic_sl2_matrices(6)


def test_a_non_diagonal_j0_is_refused_in_one_line():
    j0 = Matrix.from_entries(3, {(0, 0): 1, (2, 1): Fr(1, 2)})
    with pytest.raises(ValueError, match=r"^J0 must be diagonal, but its entry \(2, 1\) is nonzero$"):
        MatrixTriple(j0, zeros(3), zeros(3))
    # J+ and J- may hold any entries, on the diagonal too
    triple = MatrixTriple(scalar_matrix(3, 1), j0, j0)
    assert triple.diagonal == (1, 1, 1)


# -- oracle: the relations and the Casimir element as whole-matrix expressions --
#
# These are the general matrix expressions the entrywise code replaced, with
# J0 multiplied as a matrix, on dense lists of rows in the tests' own
# arithmetic (exact_field.Q): products by test_matrices.dense_matmul, sums,
# differences and scalar multiples entry by entry, row-major, passing a zero
# operand's partner through, as a zero never meets a radicand.  They read a
# Matrix's entries and nothing else of it.  The entrywise code must give the
# same matrices, entries in the same order, or raise ScalarDomainError where
# they do; where several entries mix radicands, either side may name any of
# them.


def _identity(n):
    return [[Fr(i == j) for j in range(n)] for i in range(n)]


def _times(m, s):
    return [[x if scalar_is_zero(x) else (Q(x) * s).value for x in row] for row in m]


def _plus(a, b):
    return dense_entrywise(a, b, lambda x, y: y if scalar_is_zero(x) else (Q(x) + y).value)


def _minus(a, b):
    return dense_entrywise(a, b, lambda x, y: x if scalar_is_zero(y) else (Q(x) - y).value)


def _commutator(a, b):
    return _minus(dense_matmul(a, b), dense_matmul(b, a))


def _matrix_cubic(m, params):
    ident = _identity(len(m))
    acc = _plus(_times(m, params.alpha), _times(ident, params.beta))
    acc = _plus(dense_matmul(acc, m), _times(ident, params.gamma))
    return _plus(dense_matmul(acc, m), _times(ident, params.delta))


def _matrix_relations(rep, params):
    j0, jplus, jminus = rep.j0.rows, rep.jplus.rows, rep.jminus.rows
    return (
        _minus(_commutator(j0, jplus), jplus),
        _plus(_commutator(j0, jminus), jminus),
        _minus(_commutator(jplus, jminus), _matrix_cubic(j0, params)),
    )


def _matrix_casimir(rep, params):
    a, b, g, d = (Q(x) for x in (params.alpha, params.beta, params.gamma, params.delta))
    j0 = rep.j0.rows
    j0sq = dense_matmul(j0, j0)
    return _plus(_plus(_plus(_plus(
        dense_matmul(rep.jplus.rows, rep.jminus.rows),
        _times(dense_matmul(j0sq, j0sq), (a / 4).value)),
        _times(dense_matmul(j0sq, j0), (b / 3 - a / 2).value)),
        _times(j0sq, (a / 4 - b / 2 + g / 2).value)),
        _times(j0, (b / 6 - g / 2 + d).value))


def _outcome(fn):
    """The nonzero entries of each matrix fn() gives as dense rows, row-major,
    or its error's type and message."""
    try:
        return [[(i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row)
                 if not scalar_is_zero(x)] for rows in fn()]
    except ArithmeticError as exc:
        return (type(exc).__name__, str(exc))


def _assert_same_or_both_mix_radicands(got, want, radicands):
    """Equal outcomes, or two ScalarDomainErrors that each name two distinct
    radicands of the inputs."""
    if isinstance(got, tuple) and isinstance(want, tuple):
        for name, message in (got, want):
            assert name == "ScalarDomainError"
            assert_names_two_radicands(message, radicands)
    else:
        assert got == want


_FIELDS = {"Q": (1,), "Q(sqrt 2)": (1, 2), "Q(sqrt 3)": (1, 3), "mixed": (1, 2, 3, 5)}

# Each family: the radicands of J0's diagonal, of the ladder entries and of the
# parameters; a shift added to every diagonal entry; and how many of the 600
# calls (relations and Casimir element on each of 300 draws) raise, or None
# where the count is only bounded (a single field never raises, "mixed" often
# does).  A rational J0 with ladders over 2, 3, 5 and 7 is the spin tables'
# shape: only the products J+J- and J-J+ can mix radicands.  J0 = sqrt(2)*I
# plus a rational diagonal, with ladders in Q(sqrt 3), mixes where an
# irrational ladder entry meets h_i or h_j, which the ladder residuals check
# before they form anything.  Rational J0 and ladders with parameters in
# Q(sqrt 2) set an irrational cubic value against a rational a - b on the
# bracket's diagonal, which never raises.  Ladders in Q(sqrt 3) with
# parameters in Q(sqrt 2) put a - b and the cubic's value over two radicands:
# the bracket raises at (a - b) - c in 114 draws, and the Casimir element in 119.
_FAMILIES = {
    **{field: (radicands, radicands, radicands, 0, None) for field, radicands in _FIELDS.items()},
    "rational J0, ladders over 2, 3, 5, 7": ((1,), (1, 2, 3, 5, 7), (1,), 0, 391),
    "sqrt(2) + rational J0, ladders in Q(sqrt 3)": ((1,), (1, 3), (1,), sqrt_exact(2), 413),
    "rational J0 and ladders, parameters in Q(sqrt 2)": ((1,), (1,), (1, 2), 0, 0),
    "ladders in Q(sqrt 3), parameters in Q(sqrt 2)": ((1,), (1, 3), (1, 2), 0, 233),
}


def _scalar(rng, radicands, zero_odds):
    if rng.random() < zero_odds:
        return Fr(0)
    d = rng.choice(radicands)
    value = rand_fraction(rng, nonzero=True)
    return value if d == 1 else quadext(rand_fraction(rng), value, d)


@pytest.mark.parametrize("field", sorted(_FAMILIES))
def test_entrywise_relations_and_casimir_match_the_matrix_expressions(field):
    diagonal, ladders, parameters, shift, expected = _FAMILIES[field]
    radicands = set(diagonal + ladders + parameters) | ({shift.d} if shift else set())
    rng = random.Random(f"algebra-oracle-{field}")
    errors = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        j0 = Matrix.diagonal([(Q(_scalar(rng, diagonal, 0.2)) + shift).value for _ in range(n)])
        density = rng.choice((0.1, 0.3, 0.6))
        plus, minus = (
            Matrix.from_entries(n, {(i, j): _scalar(rng, ladders, 0.0)
                                    for i in range(n) for j in range(n)
                                    if rng.random() < density})
            for _ in range(2)
        )
        rep = MatrixTriple(j0, plus, minus)
        params = AlgebraParams(*(_scalar(rng, parameters, 0.25) for _ in range(4)))

        def entrywise():
            res = check_deformed_relations(rep, params)
            return res.raising.rows, res.lowering.rows, res.bracket.rows

        got = _outcome(entrywise)
        _assert_same_or_both_mix_radicands(
            got, _outcome(lambda: _matrix_relations(rep, params)), radicands)
        casimir = _outcome(lambda: [casimir_matrix(rep, params).rows])
        _assert_same_or_both_mix_radicands(
            casimir, _outcome(lambda: [_matrix_casimir(rep, params)]), radicands)
        errors += isinstance(got, tuple) + isinstance(casimir, tuple)
    if expected is not None:
        assert errors == expected
    else:
        # the mixed field reaches the error paths; a single field never does
        assert (errors > 50) if field == "mixed" else (errors == 0)


def test_triple_dimension_validation():
    with pytest.raises(ValueError):
        MatrixTriple(zeros(2), zeros(3), zeros(3))


# -- oracle: the bracket's cubic by Horner's scheme on the scalars themselves --


def _scalar_cubic(ts, params):
    """alpha*t^3 + ... + delta at each t, Horner's scheme on the scalars in the
    tests' own arithmetic (exact_field.Q)."""
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    return [(((Q(t) * a + b) * t + g) * t + d).value for t in ts]


def _values_or_error(fn):
    try:
        return [(type(v), v) for v in fn()]
    except ArithmeticError as exc:
        return (type(exc).__name__, str(exc))


_CUBIC_FIELDS = {"Q": (1,), "Q(sqrt 2)": (1, 2), "mixed": (1, 2, 3, 5)}
_SPIN_31 = [Fr(m, 2) for m in range(-31, 32, 2)]  # the diagonal of 2j = 31


@pytest.mark.parametrize("field", sorted(_CUBIC_FIELDS))
def test_cubic_on_numerators_matches_horner_on_scalars(field):
    radicands = _CUBIC_FIELDS[field]
    rng = random.Random(f"cubic-oracle-{field}")
    zero = AlgebraParams(0, 0, 0, 0)
    cases = [([Fr(0)], zero), (_SPIN_31, zero), ([Fr(0)] * 4, CLASSIC), (_SPIN_31, CLASSIC)]
    for _ in range(400):
        n = rng.choice((1, 1, 2, 3, 5, 8))
        ts = [_scalar(rng, radicands, 0.2) for _ in range(n)]
        if rng.random() < 0.2:
            ts = _SPIN_31
        params = [_scalar(rng, radicands, 0.25) for _ in range(4)]
        if rng.random() < 0.2:
            params[0] = Fr(0)  # alpha = 0
        cases.append((ts, AlgebraParams(*params)))
    errors = 0
    for ts, params in cases:
        got = _values_or_error(lambda: cubic(ts, params))
        want = _values_or_error(lambda: _scalar_cubic(ts, params))
        _assert_same_or_both_mix_radicands(got, want, radicands)
        errors += isinstance(got, tuple)
    assert (errors > 50) if field == "mixed" else (errors == 0)


def _innermost_frame(fn):
    """The (file name, function) of the innermost frame of the
    ScalarDomainError that fn() raises, and its message."""
    with pytest.raises(scalars.ScalarDomainError) as err:
        fn()
    frame = traceback.extract_tb(err.tb)[-1]
    return os.path.basename(frame.filename), frame.name, str(err.value)


def test_every_mixed_radicand_error_is_raised_in_the_numerator_arithmetic():
    r2, r3 = QuadExt(1, 1, 2), QuadExt(0, 1, 3)
    # CI's table: J0 over sqrt(2), its ladders over sqrt(3)
    table = MatrixTriple(Matrix.diagonal([QuadExt(0, 1, 2), QuadExt(1, 1, 2)]),
                         Matrix.from_entries(2, {(0, 1): r3}),
                         Matrix.from_entries(2, {(1, 0): r3}))
    calls = {
        "x / y": (lambda: scalars.quotient((1, 1, 2), (0, 1, 3)), "2 and 3"),
        "y / x": (lambda: scalars.quotient((0, 1, 3), (1, 1, 2)), "3 and 2"),
        "DiffOp sum": (lambda: diffops.DiffOp({(1, 1): r2}) + diffops.DiffOp({(1, 1): r3}),
                       "2 and 3"),
        "DiffOp repeated key": (lambda: diffops.DiffOp([((1, 1), r2), ((1, 1), r3)]), "2 and 3"),
        "ladder residual": (lambda: algebra._shift_residual(table, table.jplus, 1), "2 and 3"),
        "solve_case": (lambda: solve_case(CaseId.CASE2.data, 0, r2, r3), "3 and 2"),
    }
    # the probe's families, in its kernel too: the pair may be named in either order
    for i, ops in enumerate(_two_radicand_families()):
        for space in (V3, diffops.MonomialSpace((0, 1))):
            calls[f"probe {i} on {space.exponents}"] = (
                lambda ops=ops, space=space: diffops.lie_closure_probe(ops, space), None)
    for name, (fn, named) in calls.items():
        filename, function, message = _innermost_frame(fn)
        assert (filename, function) in {("scalars.py", "num_add"), ("scalars.py", "num_sub"),
                                        ("scalars.py", "num_mul")}, (name, function)
        if named is None:
            assert_names_two_radicands(message, (2, 3))
            continue
        a, b = named.split(" and ")
        assert message == f"mixed radicands sqrt({a}) and sqrt({b})", name
