import random
import re
from fractions import Fraction

import pytest


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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
