import math
import random
import time
from fractions import Fraction as Fr

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from sl2deform.scalars import (
    MAX_TRIAL_PRIME,
    NegativeRadicandError,
    QuadExt,
    ScalarDomainError,
    from_numerator,
    num_add,
    num_mul,
    num_sub,
    parse_int,
    parse_numerator,
    parse_scalar,
    quadext,
    quotient,
    render_numerator,
    render_scalar,
    scalar_is_zero,
    sqrt_exact,
    squarefree_split,
    to_numerators,
)

from exact_field import Q

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
nonzero_rationals = rationals.filter(lambda x: x != 0)


def test_rational_addition():
    assert Fr(1, 2) + Fr(1, 3) == Fr(5, 6)


def _apply(op, x, y):
    """The scalar x op y, for op one of num_add, num_sub, num_mul and
    quotient, formed on the numerators of x and y over one denominator."""
    (u, v), den = to_numerators((x, y))
    if op is quotient:
        return quotient(u, v)
    return from_numerator(op(u, v), den * den if op is num_mul else den)


def test_conjugate_product_demotes_to_rational():
    product = num_mul((1, 1, 3), (1, -1, 3))
    assert type(product) is int and product == -2
    value = _apply(num_mul, quadext(1, 1, 3), quadext(1, -1, 3))
    assert type(value) is Fr and value == -2


def test_inverse_of_one_plus_sqrt3():
    inv = quotient(1, (1, 1, 3))
    assert inv == quadext(Fr(-1, 2), Fr(1, 2), 3)
    # independent check: multiplying back must give exactly 1
    assert (Q(inv) * quadext(1, 1, 3)).value == Fr(1)
    assert _apply(num_mul, inv, quadext(1, 1, 3)) == Fr(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fr(1) / Fr(0)
    for x in (1, (1, 1, 3)):
        with pytest.raises(ZeroDivisionError, match="^division by zero$"):
            quotient(x, 0)
    with pytest.raises(ZeroDivisionError):
        _apply(quotient, quadext(1, 1, 3), Fr(0))


def test_mixed_radicands_error():
    with pytest.raises(ScalarDomainError):
        num_add((0, 1, 2), (0, 1, 3))
    with pytest.raises(ScalarDomainError):
        num_mul((0, 1, 2), (0, 1, 5))
    # the radicands are named in operand order, whichever function meets them
    root2, root3 = sqrt_exact(2), sqrt_exact(3)
    for op in (num_add, num_sub, num_mul, quotient):
        with pytest.raises(ScalarDomainError, match=r"^mixed radicands sqrt\(2\) and sqrt\(3\)$"):
            _apply(op, root2, root3)
        with pytest.raises(ScalarDomainError, match=r"^mixed radicands sqrt\(3\) and sqrt\(2\)$"):
            _apply(op, root3, root2)


def test_rational_and_quadext_mix_freely():
    x = quadext(0, 1, 2)
    assert _apply(num_add, Fr(1, 2), x) == quadext(Fr(1, 2), 1, 2)
    assert num_mul(3, (0, 1, 2)) == (0, 3, 2) and _apply(num_mul, 3, x) == quadext(0, 3, 2)
    assert quotient((0, 1, 2), 2) == _apply(quotient, x, 2) == quadext(0, Fr(1, 2), 2)


def test_sqrt_perfect_square():
    root = sqrt_exact(Fr(9, 4))
    assert isinstance(root, Fr) and root == Fr(3, 2)


def test_sqrt_squarefree():
    assert sqrt_exact(3) == quadext(0, 1, 3)


def test_sqrt_with_square_factor():
    # 12 = 4 * 3, so the root is 2*sqrt(3)
    root = sqrt_exact(12)
    assert root == quadext(0, 2, 3)
    assert (Q(root) * root).value == Fr(12)


def test_integers_are_read_in_ascii_digits_only():
    # int() alone takes the digits of other scripts and "_" separators
    assert parse_int(" -12 ") == -12 and parse_int("+3") == 3
    for text in ("\u0663", "1_000", "", "1.0", "0x3"):
        with pytest.raises(ValueError, match=r"^cannot parse integer "):
            parse_int(text)
    assert parse_scalar(" -1/2 + 3*sqrt(2) ") == quadext(Fr(-1, 2), 3, 2)
    for text in ("\u0663", "1_000", "1/\u0663", "sqrt(\u0663)", "sqrt(1_0)", "1_0*sqrt(2)"):
        with pytest.raises(ValueError, match=r"^cannot parse scalar "):
            parse_scalar(text)


def test_digit_limit_is_named_for_inputs_and_report_values():
    import sys

    limit = sys.get_int_max_str_digits()
    for text in ("9" * (limit + 1), f"1/{'3' * (limit + 1)}", f"2*sqrt({'7' * (limit + 1)})"):
        with pytest.raises(ValueError, match=f"^an input scalar has an integer of more than {limit} digits"):
            parse_scalar(text)
    for value in (Fr(10 ** limit), Fr(1, 10 ** limit), quadext(Fr(10 ** limit), 1, 2)):
        with pytest.raises(ValueError, match=f"^a report value has an integer of more than {limit} digits"):
            render_scalar(value)
    # the guard leaves every other error as it was
    with pytest.raises(ValueError, match="cannot parse scalar"):
        parse_scalar("x")
    assert render_scalar(Fr(10 ** (limit - 1))) == "1" + "0" * (limit - 1)


def test_sqrt_negative_rejected():
    with pytest.raises(NegativeRadicandError):
        sqrt_exact(Fr(-1, 4))


def test_sqrt_of_irrational_rejected():
    with pytest.raises(ScalarDomainError, match="irrational"):
        sqrt_exact(quadext(1, 1, 2))


def test_quadext_constructor_validation():
    with pytest.raises(ValueError):
        QuadExt(1, 0, 3)  # zero radical part must go through quadext()
    with pytest.raises(ValueError):
        QuadExt(1, 1, 12)  # not squarefree
    with pytest.raises(ValueError):
        QuadExt(1, 1, 1)


def test_quadext_factory_canonicalizes():
    assert quadext(0, 1, 18) == quadext(0, 3, 2)
    assert quadext(5, 0, 7) == Fr(5)
    assert quadext(2, 3, 4) == Fr(8)  # sqrt(4) folds into the rational part


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(360) == (6, 10)
    s, d = squarefree_split(2 * 2 * 7 * 7 * 7)
    assert s * s * d == 2 * 2 * 7 * 7 * 7 and d == 7


def _sympy_split(n):
    s = d = 1
    for p, e in sympy.factorint(n).items():
        s *= p ** (e // 2)
        d *= p ** (e % 2)
    return s, d


def test_squarefree_split_agrees_with_sympy_up_to_the_budget():
    rng = random.Random(1807)
    cases = [rng.randrange(1, 10**k) for k in (3, 6, 9, 12, 15, 18) for _ in range(40)]
    # what trial division up to the cube root leaves: one or two large primes
    p6, q6 = sympy.prevprime(10**6), sympy.prevprime(10**6 - 100)
    p9, q9 = sympy.prevprime(10**9), sympy.prevprime(10**9 - 100)
    p4, p12, p17 = sympy.prevprime(10**4), sympy.prevprime(10**12), sympy.prevprime(10**17)
    cases += [p6 * p6, p9 * p9, p6 * p9, p6 * p12, p9 * q9, 2 * p17, p17]
    cases += [p6 * p6 * q6, q6 * q6 * p6, p4 * p4 * p9, p4 * p4 * p6 * 3, 3 * 3 * p12]
    cases += [10**18, 2**59, 3**37, 1]
    for n in cases:
        assert n <= 10**18
        assert squarefree_split(n) == _sympy_split(n), n


def test_squarefree_split_refuses_a_radicand_past_the_budget_quickly():
    prime = sympy.nextprime(10**24)
    semiprime = sympy.nextprime(10**12) * sympy.nextprime(10**13)
    for n in (prime, semiprime, prime * 4):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="radicand too large to split"):
            squarefree_split(n)
        assert time.perf_counter() - start < 2
    for entry in (lambda n: parse_scalar(f"sqrt({n})"), sqrt_exact,
                  lambda n: quadext(1, 1, n)):
        with pytest.raises(ValueError, match="radicand too large to split"):
            entry(prime)
    # large radicands whose cofactor after the small primes is small still split
    assert squarefree_split(2**101 * 3) == (2**50, 6)
    assert squarefree_split(MAX_TRIAL_PRIME**4) == (MAX_TRIAL_PRIME**2, 1)


@given(rationals)
def test_sqrt_squares_back(v):
    v = abs(v)
    root = sqrt_exact(v)
    square = (Q(root) * root).value
    assert type(square) is Fr and square == v


@given(rationals, rationals, rationals)
def test_rational_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == 0
    if y != 0:
        assert (x / y) * y == x


_RADICANDS = (2, 3, 5, 999999999989)
_FIELDS = {}


def _in_field(x, d):
    """x as an element of sympy's exact field QQ<sqrt(d)>."""
    if d not in _FIELDS:
        field = sympy.QQ.algebraic_field(sympy.sqrt(d))
        _FIELDS[d] = field, field.from_sympy(sympy.sqrt(d))
    field, root = _FIELDS[d]
    if isinstance(x, QuadExt):
        assert x.d == d
        return _in_field(x.a, d) + _in_field(x.b, d) * root
    return field.convert(sympy.Rational(x.numerator, x.denominator))


def _assert_canonical(value, d):
    """A Fraction, or a QuadExt with Fraction parts, a radical part and radicand d."""
    if type(value) is Fr:
        return
    assert type(value) is QuadExt, value
    assert type(value.a) is type(value.b) is Fr, value
    assert value.b != 0 and value.d == d, value


@given(rationals, rationals, rationals, rationals, rationals, rationals,
       st.sampled_from(_RADICANDS))
def test_quadext_field_axioms_same_radicand(a1, b1, a2, b2, a3, b3, d):
    # the field Q(sqrt(d)) as the package computes in it: num_* on numerators
    # over one denominator, and quotient
    x, y, z = quadext(a1, b1, d), quadext(a2, b2, d), quadext(a3, b3, d)

    def add(u, v):
        return _apply(num_add, u, v)

    def mul(u, v):
        return _apply(num_mul, u, v)

    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert scalar_is_zero(add(x, mul(x, -1)))
    if not scalar_is_zero(y):
        assert mul(_apply(quotient, x, y), y) == x
    # every result is canonical, keeps d and equals sympy's value in QQ<sqrt(d)>
    fx, fy = _in_field(x, d), _in_field(y, d)
    results = [(add(x, y), fx + fy), (_apply(num_sub, x, y), fx - fy), (mul(x, y), fx * fy),
               (mul(x, -1), -fx), (mul(mul(x, x), x), fx**3), (add(x, a2), fx + _in_field(a2, d)),
               (_apply(num_sub, a2, x), _in_field(a2, d) - fx), (mul(a2, x), _in_field(a2, d) * fx)]
    if not scalar_is_zero(y):
        results.append((_apply(quotient, x, y), fx / fy))
        results.append((_apply(quotient, a1, y), _in_field(a1, d) / fy))
    if isinstance(x, QuadExt):
        # the conjugate and the norm, on x's numerator (p, q, d) over n
        conjugate = (x.p, -x.q, x.d)
        results.append((from_numerator(conjugate, x.n), 2 * _in_field(x.a, d) - fx))
        results.append((quotient(num_mul((x.p, x.q, x.d), conjugate), x.n * x.n),
                        fx * (2 * _in_field(x.a, d) - fx)))
    for value, expected in results:
        _assert_canonical(value, d)
        assert _in_field(value, d) == expected


_TEST_SIDE_D = st.sampled_from((1, 2, 3, 5))  # 1: a rational operand


@given(rationals, nonzero_rationals, _TEST_SIDE_D, rationals, nonzero_rationals, _TEST_SIDE_D,
       st.booleans(), st.integers(0, 4))
@example(Fr(1), Fr(1), 2, Fr(1), Fr(-1), 2, False, 2)  # (1 + sqrt 2)(1 - sqrt 2) = -1
@example(Fr(0), Fr(1), 3, Fr(0), Fr(0), 1, True, 0)  # a zero divisor
def test_the_test_side_arithmetic_matches_sympy(a1, b1, d1, a2, b2, d2, lifted_left, k):
    # exact_field.Q, the test oracles' own arithmetic, against QQ<sqrt(d)>,
    # with the package's scalar or a Q on the left
    x = a1 if d1 == 1 else quadext(a1, b1, d1)
    y = a2 if d2 == 1 else quadext(a2, b2, d2)
    left = Q(x) if lifted_left else x
    ops = {"+": lambda u, v: u + v, "-": lambda u, v: u - v,
           "*": lambda u, v: u * v, "/": lambda u, v: u / v}
    d = max(d1, d2, 2)
    for name, op in ops.items():
        if d1 != 1 and d2 != 1 and d1 != d2:
            with pytest.raises(ScalarDomainError,
                               match=rf"^mixed radicands sqrt\({d1}\) and sqrt\({d2}\)$"):
                op(left, Q(y))
        elif name == "/" and scalar_is_zero(y):
            with pytest.raises(ZeroDivisionError):
                op(left, Q(y))
        else:
            value = op(left, Q(y))
            assert type(value) is Q and value == Q(value.value), (x, name, y)
            _assert_canonical(value.value, d)
            assert _in_field(value.value, d) == op(_in_field(x, d), _in_field(y, d))
    dx = max(d1, 2)
    fx = _in_field(x, dx)
    for value, expected in ((-Q(x), -fx), (Q(x) ** k, fx**k)):
        _assert_canonical(value.value, dx)
        assert _in_field(value.value, dx) == expected


@given(rationals, nonzero_rationals)
def test_quadext_canonical_idempotent(a, b):
    x = quadext(a, b, 7)
    assert isinstance(x, QuadExt)
    assert quadext(x.a, x.b, x.d) == x


@given(rationals, rationals)
def test_parse_render_round_trip(a, b):
    for value in (a, quadext(a, b, 3), quadext(0, b, 2)):
        assert parse_scalar(render_scalar(value)) == value


def test_parse_formats():
    assert parse_scalar("5/6") == Fr(5, 6)
    assert parse_scalar("-7") == Fr(-7)
    assert parse_scalar("1/2 + 3/4*sqrt(5)") == quadext(Fr(1, 2), Fr(3, 4), 5)
    assert parse_scalar("1/2 - 3/4*sqrt(5)") == quadext(Fr(1, 2), Fr(-3, 4), 5)
    assert parse_scalar("sqrt(2)") == quadext(0, 1, 2)
    assert parse_scalar("-2*sqrt(7)") == quadext(0, -2, 7)
    with pytest.raises(ValueError):
        parse_scalar("1 + sqrt(2) + sqrt(3)")
    with pytest.raises(ValueError):
        parse_scalar("0.5")


def _assert_integer_form(value):
    """A Fraction, or a QuadExt stored as (p + q*sqrt(d))/n in lowest terms."""
    if type(value) is Fr:
        return
    assert type(value) is QuadExt, value
    p, q, n, d = value.p, value.q, value.n, value.d
    assert all(type(v) is int for v in (p, q, n, d)), value
    assert n > 0 and q != 0 and math.gcd(p, q, n) == 1, (p, q, n)
    assert d >= 2 and squarefree_split(d) == (1, d), d
    assert (value.a, value.b) == (Fr(p, n), Fr(q, n))


def _routes(a, b, d, k, w):
    """a + b*sqrt(d) built every way the package offers; k > 0 and w != 0."""
    x = quadext(a, b, d)
    (v,), den = to_numerators((x,))
    routes = [
        x,
        quadext(a, b / k, d * k * k),  # square factors folded into b
        parse_scalar(f"{a} + {b}*sqrt({d})"),
        parse_scalar(f"{a} - {-b}*sqrt({d})"),
        from_numerator(num_mul(v, k), den * k),  # a numerator not in lowest terms
        _apply(num_add, a, _apply(num_mul, b, sqrt_exact(d))),
        _apply(num_add, a, _apply(num_mul, b / k, sqrt_exact(d * k * k))),
        _apply(num_add, _apply(num_mul, sqrt_exact(Fr(d * k * k, 4)), 2 * b / k), a),
        _apply(num_sub, _apply(num_add, x, w), w),
        _apply(quotient, _apply(num_mul, x, w), w),
        _apply(num_mul, _apply(num_mul, x, -1), -1),
    ]
    if a or b:
        routes.append(_apply(quotient, w, _apply(quotient, w, x)))
    if b:
        routes.append(QuadExt(a, b, d))
    return routes


_FIELD_D = st.sampled_from((2, 3, 5, 6, 7, 10))


@given(rationals, rationals, _FIELD_D, st.integers(1, 6), rationals, nonzero_rationals)
def test_every_route_to_a_value_gives_one_canonical_integer_form(a, b, d, k, wa, wb):
    w = quadext(wa, wb, d)
    routes = _routes(a, b, d, k, w)
    first = routes[0]
    for value in routes:
        _assert_integer_form(value)
        assert value == first and hash(value) == hash(first), (value, first)
    assert (type(first) is Fr) == (not b)
    # results of every operation are in integer form too
    for op, x, y in ((num_add, first, w), (num_sub, first, w), (num_mul, first, w),
                     (num_sub, w, first), (num_sub, wa, first), (num_mul, first, wb),
                     (quotient, first, w), (quotient, first, wb), (quotient, wb, w),
                     (num_mul, first, first), (num_mul, first, -1)):
        _assert_integer_form(_apply(op, x, y))


_OPERAND_D = st.sampled_from((1, 2, 3, 5))  # 1: a rational operand


@given(rationals, nonzero_rationals, _OPERAND_D, rationals, nonzero_rationals, _OPERAND_D,
       st.sampled_from(["+", "-", "*", "/"]))
def test_scalar_domain_error_exactly_for_mixed_radicands(a1, b1, d1, a2, b2, d2, op):
    x = a1 if d1 == 1 else quadext(a1, b1, d1)
    y = a2 if d2 == 1 else quadext(a2, b2, d2)
    fn = {"+": num_add, "-": num_sub, "*": num_mul, "/": quotient}[op]

    def apply():
        return _apply(fn, x, y)
    if d1 != 1 and d2 != 1 and d1 != d2:
        with pytest.raises(ScalarDomainError,
                           match=rf"^mixed radicands sqrt\({d1}\) and sqrt\({d2}\)$"):
            apply()
    elif op == "/" and scalar_is_zero(y):
        with pytest.raises(ZeroDivisionError):
            apply()
    else:
        value = apply()
        _assert_integer_form(value)
        d = max(d1, d2)
        if d > 1:
            assert _in_field(value, d) == {
                "+": lambda u, v: u + v, "-": lambda u, v: u - v,
                "*": lambda u, v: u * v, "/": lambda u, v: u / v,
            }[op](_in_field(x, d), _in_field(y, d))


def test_a_lone_signed_sqrt_parses():
    assert parse_scalar("-sqrt(2)") == quadext(0, -1, 2)
    assert parse_scalar(" +sqrt(2) ") == quadext(0, 1, 2)
    assert parse_scalar("- sqrt(8)") == quadext(0, -2, 2)  # sqrt(8) = 2*sqrt(2)
    assert parse_scalar("-sqrt(9)") == Fr(-3)
    assert parse_scalar("1 - -sqrt(3)") == quadext(1, 1, 3)
    # the form render_scalar writes reads back the same
    assert parse_scalar("-sqrt(2)") == parse_scalar(render_scalar(quadext(0, -1, 2)))
    for text in ("--sqrt(2)", "+-sqrt(2)", "-", "sqrt(-2)"):
        with pytest.raises(ValueError, match=r"^cannot parse scalar "):
            parse_scalar(text)


# radicands squarefree, with square factors, perfect squares and 0
_TEXT_D = st.sampled_from((2, 3, 6, 8, 12, 18, 50, 72, 0, 1, 4, 9, 36))
_PART = st.one_of(st.just(Fr(0)), rationals)


@given(_PART, _PART, _TEXT_D)
def test_parse_scalar_reads_integers_to_the_value_quadext_builds(a, b, d):
    want_plus, want_minus = quadext(a, b, d), quadext(a, -b, d)
    for text, want in (
        (f"{a} + {b}*sqrt({d})", want_plus),
        (f"{a} - {b}*sqrt({d})", want_minus),
        (f"{a}+{b}sqrt({d})", want_plus),
        (f"{b}*sqrt({d})", quadext(0, b, d)),
    ):
        got = parse_scalar(text)
        assert got == want and type(got) is type(want), (text, got, want)
        _assert_integer_form(got)


def test_a_zero_denominator_in_a_radical_raises_as_fraction_does():
    for text, words in (("1/0*sqrt(2)", "Fraction(1, 0)"),
                        ("-3/0 + sqrt(2)", "Fraction(-3, 0)"),
                        ("1/0 + 1/0*sqrt(2)", "Fraction(1, 0)"),
                        ("2 - 5/00*sqrt(3)", "Fraction(5, 0)")):
        with pytest.raises(ZeroDivisionError) as info:
            parse_scalar(text)
        assert str(info.value) == words, text


def test_a_radical_coefficient_past_the_digit_limit_is_named():
    import sys

    limit = sys.get_int_max_str_digits()
    message = (f"an input scalar has an integer of more than {limit} digits, "
               "the most that is converted to or from text")
    for text in (f"1 + {'7' * 5000}*sqrt(2)", f"{'7' * 5000}*sqrt(2)",
                 f"1 - 1/{'7' * 5000}*sqrt(2)"):
        with pytest.raises(ValueError) as info:
            parse_scalar(text)
        assert str(info.value) == message


# -- the num_* functions on numerators: ints and (p, q, d) coordinates --

_NUM_D = (2, 3, 5)
_COORD = st.integers(-6, 6)  # small, so that radical parts cancel often
_numerators = st.one_of(
    _COORD, st.tuples(_COORD, _COORD.filter(bool), st.sampled_from(_NUM_D)))
_NUM_OPS = {num_add: lambda u, v: u + v, num_sub: lambda u, v: u - v,
            num_mul: lambda u, v: u * v}


def _numerator_in_field(v, d):
    """The numerator v, an int or (p, q, d), as an element of QQ<sqrt(d)>."""
    if type(v) is int:
        return _in_field(Fr(v), d)
    assert v[2] == d
    return _in_field(Fr(v[0]), d) + _in_field(Fr(v[1]), d) * _in_field(QuadExt(0, 1, d), d)


@settings(deadline=None)  # the first example builds sympy's fields
@given(_numerators, _numerators, st.sampled_from(list(_NUM_OPS)))
@example((1, 2, 2), (3, -2, 2), num_add)  # the radical parts cancel
@example((1, 2, 3), (1, 2, 3), num_sub)
@example((0, 1, 2), (0, 1, 2), num_mul)  # sqrt(2)*sqrt(2) = 2
@example((1, 1, 2), (1, -1, 2), num_mul)
def test_numerator_arithmetic_matches_sympy_and_never_stores_a_zero_radical(a, b, op):
    radicands = [v[2] for v in (a, b) if type(v) is tuple]
    if len(set(radicands)) == 2:
        # the left operand's radicand is named first
        with pytest.raises(ScalarDomainError,
                           match=rf"^mixed radicands sqrt\({a[2]}\) and sqrt\({b[2]}\)$"):
            op(a, b)
        return
    value = op(a, b)
    # an int, or a tuple of ints with a nonzero radical part: the `if v`
    # zero tests on stored numerators rely on this
    if type(value) is tuple:
        p, q, d = value
        assert type(p) is type(q) is type(d) is int and q != 0 and d in radicands, value
    else:
        assert type(value) is int, value
    d = radicands[0] if radicands else 2
    assert _numerator_in_field(value, d) == _NUM_OPS[op](
        _numerator_in_field(a, d), _numerator_in_field(b, d))


@settings(deadline=None)
@given(_numerators, _numerators)
@example((1, 2, 3), 0)  # a zero divisor
@example(0, 0)
@example(1, (1, 1, 3))  # 1/(1 + sqrt 3) = -1/2 + sqrt(3)/2
@example((1, 2, 2), (1, 2, 2))
@example((0, 1, 2), (0, 1, 3))
def test_quotient_of_two_numerators_matches_sympy(x, y):
    radicands = [v[2] for v in (x, y) if type(v) is tuple]
    if len(set(radicands)) == 2:
        with pytest.raises(ScalarDomainError,
                           match=rf"^mixed radicands sqrt\({x[2]}\) and sqrt\({y[2]}\)$"):
            quotient(x, y)
        return
    if y == 0:
        with pytest.raises(ZeroDivisionError, match="^division by zero$"):
            quotient(x, y)
        return
    value = quotient(x, y)
    _assert_integer_form(value)
    d = radicands[0] if radicands else 2
    assert _in_field(value, d) == _numerator_in_field(x, d) / _numerator_in_field(y, d)


@given(rationals, nonzero_rationals, st.sampled_from((2, 3, 6)), st.integers(1, 5))
def test_equal_quadexts_have_one_hash_and_dedupe(a, b, d, k):
    (v,), den = to_numerators((quadext(a, b, d),))
    values = [parse_scalar(f"{a} + {b}*sqrt({d})"), quadext(a, b, d),
              quadext(a, b / k, d * k * k), QuadExt(a, b, d),
              from_numerator(v, den), from_numerator(num_mul(v, k), den * k)]
    assert all(value == values[0] for value in values)
    assert {hash(value) for value in values} == {hash(values[0])}
    assert len(set(values)) == 1
    # a different value lands apart
    assert len(set(values) | {quadext(a + 1, b, d), quadext(a, b, 5)}) == 3


def test_quadext_has_no_arithmetic():
    x = quadext(1, 1, 2)
    binary = (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v,
              lambda u, v: u / v, lambda u, v: u // v, lambda u, v: u % v,
              lambda u, v: u ** v)
    for other in (2, Fr(1, 3), quadext(0, 1, 2), quadext(1, 1, 3)):
        for op in binary:
            for u, v in ((x, other), (other, x)):
                with pytest.raises(TypeError):
                    op(u, v)
    with pytest.raises(TypeError):
        -x
    with pytest.raises(TypeError):
        x ** 2
    for name in ("_arith", "conjugate", "norm", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__neg__"):
        assert not hasattr(QuadExt, name), name
    # it is still a value: parsed, rendered, compared and hashed
    assert parse_scalar("1 + sqrt(2)") == x == QuadExt(1, 1, 2)
    assert render_scalar(x) == str(x) == "1 + 1*sqrt(2)"
    assert x != quadext(1, -1, 2) and x != 1 and x != Fr(1)
    assert hash(x) == hash(parse_scalar(render_scalar(x)))
    assert {x: "v"}[QuadExt(1, 1, 2)] == "v"


# -- text <-> numerators: parse_numerator and render_numerator --


def _root(big_d: int) -> Q:
    """sqrt(big_d) in Q, its square factor found by trial: s*sqrt(d)."""
    s = max(k for k in range(1, big_d + 2) if big_d % (k * k) == 0) if big_d else 0
    d = big_d // (s * s) if big_d else 1
    return Q(s) if d == 1 else Q(s) * Q._of(Fr(0), Fr(1), d)


def _numerator_q(v, den: int) -> Q:
    """The numerator v over den as a Q, read off its integers alone."""
    if type(v) is int:
        return Q(Fr(v, den))
    p, q, d = v
    return Q._of(Fr(p, den), Fr(q, den), d)


def _ratio_spelling(num: int, den: int) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


def _spellings(an, ad, bn, bd, big_d):
    """(text, value) pairs writing an/ad + bn/bd*sqrt(big_d) in every form of
    the grammar, the parts left unreduced as given."""
    a, b, root = Fr(an, ad), Fr(bn, bd), _root(big_d)
    out = [(_ratio_spelling(an, ad), Q(a)),
           (f"{_ratio_spelling(bn, bd)}*sqrt({big_d})", Q(b) * root),
           (f"{_ratio_spelling(an, ad)} + {_ratio_spelling(bn, bd)}*sqrt({big_d})",
            Q(a) + Q(b) * root),
           (f"{_ratio_spelling(an, ad)}-{_ratio_spelling(bn, bd)}sqrt({big_d})",
            Q(a) - Q(b) * root),
           (f" sqrt({big_d}) ", root),
           (f"{_ratio_spelling(an, ad)} - sqrt({big_d})", Q(a) - root)]
    return out


def _check_text(text: str, want: Q) -> None:
    v, den = parse_numerator(text)
    assert type(den) is int and den > 0, (text, den)
    if type(v) is not int:
        p, q, d = v
        assert type(p) is int and type(q) is int and q != 0, (text, v)
        assert d >= 2 and all(d % (k * k) for k in range(2, d)), (text, v)
    assert _numerator_q(v, den) == want, (text, v, den)
    value = parse_scalar(text)
    assert value == from_numerator(v, den) and type(value) is type(from_numerator(v, den))
    assert Q(value) == want, text
    rendered = render_numerator(v, den)
    assert rendered == render_scalar(from_numerator(v, den)), (text, rendered)
    assert rendered == render_scalar(value)
    # the text written reads back to the same value, whatever den was
    assert _numerator_q(*parse_numerator(rendered)) == want, (text, rendered)
    for k in (2, 3, 12):
        assert render_numerator(num_mul(v, k), den * k) == rendered, (text, k)


_SPELLED_D = (0, 1, 2, 3, 4, 5, 6, 8, 9, 12, 18, 25, 36, 50, 72, 98)


def test_parse_and_render_numerator_match_the_value_path_on_seeded_spellings():
    # unreduced parts, negative parts, zero parts and perfect-square radicands
    rng = random.Random("parse-and-render-numerator")
    for _ in range(400):
        an = rng.choice((0, rng.randint(-40, 40)))
        bn = rng.choice((0, rng.randint(-40, 40)))
        ad, bd = rng.randint(1, 12), rng.randint(1, 12)
        for text, want in _spellings(an, ad, bn, bd, rng.choice(_SPELLED_D)):
            _check_text(text, want)
    for text, want in (("2/4", Q(Fr(1, 2))), ("-0", Q(0)), ("0/7", Q(0)),
                       ("3*sqrt(8)", Q(6) * _root(2)), ("0*sqrt(2)", Q(0)),
                       ("-6/8 + 0*sqrt(5)", Q(Fr(-3, 4))), ("3*sqrt(4)", Q(6)),
                       ("sqrt(9)", Q(3)), ("-sqrt(0)", Q(0)),
                       ("0 + 2/6*sqrt(12)", Q(Fr(2, 3)) * _root(3)),
                       ("-4/6 - -10/4*sqrt(50)", Q(Fr(-2, 3)) + Q(Fr(25, 2)) * _root(2))):
        _check_text(text, want)
    assert parse_numerator("2/4") == (2, 4)
    assert parse_numerator("3*sqrt(8)") == ((0, 6, 2), 1)
    assert parse_numerator("0*sqrt(2)") == (0, 1)
    assert parse_numerator("sqrt(9)") == (3, 1)
    assert render_numerator((0, -6, 2), 4) == "-3/2*sqrt(2)"
    assert render_numerator((-4, 6, 3), 4) == "-1 + 3/2*sqrt(3)"


@given(st.integers(-60, 60), st.integers(1, 15), st.integers(-60, 60), st.integers(1, 15),
       st.sampled_from(_SPELLED_D))
def test_parse_and_render_numerator_match_the_value_path(an, ad, bn, bd, big_d):
    for text, want in _spellings(an, ad, bn, bd, big_d):
        _check_text(text, want)


def test_parse_and_render_numerator_name_the_digit_limit():
    import sys

    limit = sys.get_int_max_str_digits()
    for text in ("9" * (limit + 1), f"1/{'3' * (limit + 1)}", f"2*sqrt({'7' * (limit + 1)})",
                 f"1 - 1/{'7' * (limit + 1)}*sqrt(2)"):
        with pytest.raises(ValueError, match=f"^an input scalar has an integer of more than {limit} digits"):
            parse_numerator(text)
    for v, den in ((10 ** limit, 1), (1, 10 ** limit), ((10 ** limit, 1, 2), 1),
                   ((1, 10 ** limit, 2), 3), ((1, 1, 2), 10 ** limit)):
        with pytest.raises(ValueError, match=f"^a report value has an integer of more than {limit} digits"):
            render_numerator(v, den)
    with pytest.raises(ZeroDivisionError, match=r"^Fraction\(3, 0\)$"):
        parse_numerator("3/0")
    with pytest.raises(ValueError, match="^cannot parse scalar 'x'$"):
        parse_numerator("x")
