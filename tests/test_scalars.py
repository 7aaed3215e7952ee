import random
import time
from fractions import Fraction as Fr

import pytest
import sympy
from hypothesis import given, strategies as st

from sl2deform.scalars import (
    MAX_TRIAL_PRIME,
    NegativeRadicandError,
    QuadExt,
    ScalarDomainError,
    parse_scalar,
    quadext,
    render_scalar,
    scalar_is_zero,
    sqrt_exact,
    squarefree_split,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
nonzero_rationals = rationals.filter(lambda x: x != 0)


def test_rational_addition():
    assert Fr(1, 2) + Fr(1, 3) == Fr(5, 6)


def test_conjugate_product_demotes_to_rational():
    product = quadext(1, 1, 3) * quadext(1, -1, 3)
    assert isinstance(product, Fr)
    assert product == -2


def test_inverse_of_one_plus_sqrt3():
    x = quadext(1, 1, 3)
    inv = Fr(1) / x
    # independent check: multiplying back must give exactly 1
    assert inv * x == Fr(1)
    assert inv == quadext(Fr(-1, 2), Fr(1, 2), 3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fr(1) / Fr(0)
    with pytest.raises(ZeroDivisionError):
        quadext(1, 1, 3) / Fr(0)
    with pytest.raises(ZeroDivisionError):
        quadext(1, 1, 3) / 0


def test_mixed_radicands_error():
    with pytest.raises(ScalarDomainError):
        quadext(0, 1, 2) + quadext(0, 1, 3)
    with pytest.raises(ScalarDomainError):
        quadext(0, 1, 2) * quadext(0, 1, 5)
    # the radicands are named in operand order
    root2, root3 = sqrt_exact(2), sqrt_exact(3)
    with pytest.raises(ScalarDomainError, match=r"^mixed radicands sqrt\(2\) and sqrt\(3\)$"):
        root2 * root3
    with pytest.raises(ScalarDomainError, match=r"^mixed radicands sqrt\(3\) and sqrt\(2\)$"):
        root3 * root2


def test_rational_and_quadext_mix_freely():
    x = quadext(0, 1, 2)
    assert Fr(1, 2) + x == quadext(Fr(1, 2), 1, 2)
    assert 3 * x == quadext(0, 3, 2)
    assert x / 2 == quadext(0, Fr(1, 2), 2)


def test_sqrt_perfect_square():
    root = sqrt_exact(Fr(9, 4))
    assert isinstance(root, Fr) and root == Fr(3, 2)


def test_sqrt_squarefree():
    assert sqrt_exact(3) == quadext(0, 1, 3)


def test_sqrt_with_square_factor():
    # 12 = 4 * 3, so the root is 2*sqrt(3)
    root = sqrt_exact(12)
    assert root == quadext(0, 2, 3)
    assert root * root == Fr(12)


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
    assert root * root == v


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
    x, y, z = quadext(a1, b1, d), quadext(a2, b2, d), quadext(a3, b3, d)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert scalar_is_zero(x + (-x)) or x + (-x) == 0
    if not scalar_is_zero(y):
        assert (x / y) * y == x
    # every result is canonical, keeps d and equals sympy's value in QQ<sqrt(d)>
    fx, fy = _in_field(x, d), _in_field(y, d)
    results = [(x + y, fx + fy), (x - y, fx - fy), (x * y, fx * fy), (-x, -fx),
               (x**0, fx**0), (x**3, fx**3), (x + a2, fx + _in_field(a2, d)),
               (a2 - x, _in_field(a2, d) - fx), (a2 * x, _in_field(a2, d) * fx)]
    if not scalar_is_zero(y):
        results.append((x / y, fx / fy))
        results.append((a1 / y, _in_field(a1, d) / fy))
    if isinstance(x, QuadExt):
        results.append((x.conjugate(), 2 * _in_field(x.a, d) - fx))
        results.append((x.norm(), fx * (2 * _in_field(x.a, d) - fx)))
    for value, expected in results:
        _assert_canonical(value, d)
        assert _in_field(value, d) == expected


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
