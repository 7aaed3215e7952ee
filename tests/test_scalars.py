from fractions import Fraction as Fr

import pytest
from hypothesis import given, strategies as st

from sl2deform.scalars import (
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


@given(rationals, rationals, rationals, rationals, rationals, rationals)
def test_quadext_field_axioms_same_radicand(a1, b1, a2, b2, a3, b3):
    d = 5
    x, y, z = quadext(a1, b1, d), quadext(a2, b2, d), quadext(a3, b3, d)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert scalar_is_zero(x + (-x)) or x + (-x) == 0
    if not scalar_is_zero(y):
        assert (x / y) * y == x


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
