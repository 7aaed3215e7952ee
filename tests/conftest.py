import math
import random
import re
from fractions import Fraction

import pytest

from sl2deform.cases import build_case_realization
from sl2deform.diffops import MonomialSpace
from sl2deform.matrices import Matrix
from sl2deform.reps import intrinsic_gamma_and_product
from sl2deform.scalars import sqrt_exact

from exact_field import Q


def rand_fraction(rng: random.Random, lo: int = -9, hi: int = 9,
                  max_den: int = 9, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(lo, hi), rng.randint(1, max_den))
        if value != 0 or not nonzero:
            return value


def assert_names_two_radicands(message: str, radicands) -> None:
    """``message`` is a mixed-radicand error naming two distinct radicands,
    both among ``radicands``; which pair it names is not fixed."""
    m = re.fullmatch(r"mixed radicands sqrt\((\d+)\) and sqrt\((\d+)\)", message)
    assert m, message
    assert m[1] != m[2] and {int(m[1]), int(m[2])} <= set(radicands), message


def image(op, k: int) -> dict:
    """The image of x^k under ``op``, {exponent: nonzero coefficient}, summed
    from ``op.terms`` in ``exact_field.Q``: the term c x^m D^n sends x^k to
    c k(k-1)...(k-n+1) x^(k+m-n), a negative exponent kept like any other."""
    out: dict = {}
    for (m, n), c in op.terms.items():
        out[k + m - n] = out.get(k + m - n, Q(0)) + Q(c) * math.prod(range(k - n + 1, k + 1))
    return {e: v.value for e, v in out.items() if v}


def intrinsic_realization(data, alpha, beta, f=1, g=1):
    """The case triple at the intrinsic label c of (alpha, beta)."""
    c = intrinsic_gamma_and_product(data, alpha, beta).c
    return build_case_realization(data, f, g, c)


def normalized_matrix(op, two_j: int) -> Matrix:
    """The matrix of ``op`` on x^0 .. x^(2j) in the basis sqrt(N_k) x^k,
    N_k = C(2j, k): ``matrix_on_space`` scaled entry by entry by
    sqrt(N_c / N_r), in ``exact_field.Q``."""
    space = MonomialSpace(tuple(range(two_j + 1)))
    return Matrix.from_entries(two_j + 1, {
        (r, c): (Q(x) * sqrt_exact(Fraction(math.comb(two_j, c), math.comb(two_j, r)))).value
        for r, c, x in op.matrix_on_space(space).entries()})


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
