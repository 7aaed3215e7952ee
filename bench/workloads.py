"""Seeded op streams for the three benchmark workloads.

Each workload is a pool of ops built once per run from ``--seed``; the timed
loop cycles through the pool.  Sizes and op kinds follow a fixed cycle, so the
work mix is the same for every seed; the seed picks only the values (scalars,
interior exponents, which ladder entry is perturbed).

Expectations (exit codes, perturbed entries) are written into each op by its
generator.  The generators import nothing from ``sl2deform``, not even its
case tables, so a change to the program cannot change the inputs it is
measured on.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("verify-mix", "enumerate-probe", "spin-rep-check")

#: ops per pool; the digest covers one pass, so every run completes at least this many
POOL_SIZE = {"verify-mix": 240, "enumerate-probe": 240, "spin-rep-check": 56}


@dataclass
class Op:
    """One closed-loop operation and what its output must satisfy."""

    kind: str
    argv: tuple[str, ...] = ()       # CLI arguments; empty for library calls
    params: dict = field(default_factory=dict)  # inputs of a library call
    expect: dict = field(default_factory=dict)


def _rational(rng: random.Random, zero: bool = False) -> Fraction:
    """A seeded rational of height at most 6/1, nonzero unless ``zero``."""
    while True:
        value = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if value or zero:
            return value


# -- verify-mix ---------------------------------------------------------------
#
# Radicand of the closed-form solution, premul * (ra*alpha^2 + rb*beta^2 +
# rc*alpha*gamma), per case; used only to pick explicit gammas with a
# nonnegative radicand.
_RADICAND = {1: (-579, 100, -300, 1), 2: (-111, 64, -192, 1), 3: (47, 12, -36, 3)}
# Under intrinsic gamma the branch that closes is "upper" for alpha < 0 in
# case 1 and for alpha > 0 in cases 2 and 3.
_UPPER_NEEDS_NEGATIVE_ALPHA = {1: True, 2: False, 3: False}
# Three in eight ops take the slower explicit-gamma path, so the median falls
# inside the fast Fraction-only ops and p90 inside the explicit-gamma tail,
# not on the edge between them.
VERIFY_KINDS = (
    "intrinsic", "explicit-upper", "wrong-branch", "intrinsic",
    "explicit-lower", "alpha-zero", "intrinsic", "explicit-upper",
)


def _verify_op(rng: random.Random, index: int) -> Op:
    kind = VERIFY_KINDS[index % len(VERIFY_KINDS)]
    case = 1 + index % 3
    argv = ["verify-case", "--case", str(case)]
    if kind == "alpha-zero":
        # alpha = beta = 0 is the trivial algebra, so beta stays nonzero here
        beta, gamma = _rational(rng), _rational(rng, zero=True)
        argv += ["--alpha", "0", "--beta", str(beta), "--gamma", str(gamma)]
        return Op(kind, tuple(argv), expect={"exit": 0})
    alpha, beta = _rational(rng), _rational(rng, zero=True)
    argv += ["--alpha", str(alpha), "--beta", str(beta)]
    if kind in ("intrinsic", "wrong-branch"):
        right = "upper" if (alpha < 0) == _UPPER_NEEDS_NEGATIVE_ALPHA[case] else "lower"
        if kind == "wrong-branch":
            argv += ["--branch", "lower" if right == "upper" else "upper"]
        return Op(kind, tuple(argv), expect={"exit": 1 if kind == "wrong-branch" else 0})
    # explicit gamma chosen so the value under the square root is a seeded
    # positive rational, a perfect square only now and then
    ra, rb, rc, premul = _RADICAND[case]
    target = Fraction(rng.randint(1, 60), rng.choice((1, 4, 9)))
    gamma = (target / premul - ra * alpha * alpha - rb * beta * beta) / (rc * alpha)
    argv += ["--gamma", str(gamma), "--branch", kind.split("-")[1]]
    return Op(kind, tuple(argv), expect={"exit": 0})


# -- enumerate-probe ----------------------------------------------------------
#
# 24 enumerations cover every (order 1..6, exponent count 3..6) pair, with the
# largest exponent spread over 6..12 so each order meets small and large
# windows; every fifth op is a Lie-closure probe.  Order 6 is the CLI cap.
_PROBE_EVERY = 5


def _space(rng: random.Random, count: int, top: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(top), count - 1))) + (top,)


def _enumerate_size(e: int) -> tuple[int, int, int]:
    order = 1 + e % 6
    count = 3 + (e // 6) % 4
    top = 6 + 2 * ((e + e // 6) % 4)
    return order, count, top


# Ladder operators x^m D^n -> coefficient of the three cases on {1, x, x^3}
# and the diagonal slopes 1/p of cases 1 and 2.
LADDER_TERMS = (
    {(3, 2): Fraction(1, 3), (2, 1): Fraction(-1), (1, 0): Fraction(1)},
    {(1, 2): Fraction(-1, 2), (0, 1): Fraction(1)},
    {(4, 2): Fraction(-1, 2), (3, 1): Fraction(1)},
    {(0, 2): Fraction(1, 6)},
    {(5, 2): Fraction(1, 3), (4, 1): Fraction(-1), (3, 0): Fraction(1)},
    {(-1, 2): Fraction(1, 6)},
)
DIAGONAL_SLOPES = (Fraction(1), Fraction(1, 2))


def _probe_op(rng: random.Random, j: int) -> Op:
    if j % 2 == 0:
        order = 1 + (j // 2) % 2
        count = 3 + (j // 2) % 4
        space = _space(rng, count, 6 + 2 * (j % 4))
        return Op("probe-basis", params={"space": space, "order": order})
    terms = []
    for table in LADDER_TERMS:
        scale = _rational(rng)
        terms.append({key: c * scale for key, c in table.items()})
    for slope in DIAGONAL_SLOPES:
        label = _rational(rng, zero=True)
        terms.append({(1, 1): slope, (0, 0): label - slope})
    return Op("probe-ladders", params={"space": (0, 1, 3), "terms": terms})


def _enumerate_ops(rng: random.Random, size: int) -> list[Op]:
    ops, e, j = [], 0, 0
    for index in range(size):
        if index % _PROBE_EVERY == _PROBE_EVERY - 1:
            ops.append(_probe_op(rng, j))
            j += 1
            continue
        order, count, top = _enumerate_size(e)
        space = _space(rng, count, top)
        argv = (
            "enumerate-preserving", "--space", ",".join(map(str, space)),
            "--max-order", str(order),
        )
        ops.append(Op("enumerate", argv, params={"space": space, "order": order},
                      expect={"exit": 0}))
        e += 1
    return ops


# -- spin-rep-check -----------------------------------------------------------
#
# Classic spin-j tables, 2j cycling over 4..31 in a strided order, so that a
# run stopping mid-pass still sees small and large tables alike; in every
# block of four ops one table (at a seeded position) has one ladder entry
# scaled by a seeded factor.
SPIN_TWO_J = tuple(4 + (11 * i) % 28 for i in range(28))
_PERTURB_FACTORS = (Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(-1),
                    Fraction(5, 3), Fraction(3))


def _squarefree_split(n: int) -> tuple[int, int]:
    s, d, p = 1, 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
            s *= p
        if n % p == 0:
            n //= p
            d *= p
        p += 1
    return s, d * n


def _sqrt_text(square: Fraction, factor: Fraction = Fraction(1)) -> str:
    """``factor * sqrt(square)`` for an integer ``square``, in the report text format."""
    s, d = _squarefree_split(int(square))
    coeff = factor * s
    return str(coeff) if d == 1 else f"{coeff}*sqrt({d})"


def ladder_square(two_j: int, low: int) -> Fraction:
    """(j - m)(j + m + 1) for m the label of basis index ``low`` (m = -j + low)."""
    j = Fraction(two_j, 2)
    m = -j + low
    return (j - m) * (j + m + 1)


def _spin_table(two_j: int, perturb: tuple[int, int, Fraction] | None) -> dict:
    """Rep file of the classic spin-j module; ``perturb`` = (src, dst, factor)."""
    n = two_j + 1
    ladders = []
    for low in range(n - 1):
        for src, dst in ((low, low + 1), (low + 1, low)):
            factor = Fraction(1)
            if perturb is not None and perturb[:2] == (src, dst):
                factor = perturb[2]
            ladders.append([src, dst, _sqrt_text(ladder_square(two_j, low), factor)])
    return {
        "dimension": n,
        "diagonal": [str(Fraction(t, 2)) for t in range(-two_j, two_j + 1, 2)],
        "ladders": ladders,
        "params": {"alpha": "0", "beta": "0", "gamma": "2", "delta": "0"},
    }


def _spin_ops(rng: random.Random, size: int, workdir: Path) -> list[Op]:
    ops = []
    perturbed_at = None
    for index in range(size):
        if index % 4 == 0:
            perturbed_at = index + rng.randrange(4)
        two_j = SPIN_TWO_J[index % len(SPIN_TWO_J)]
        perturb = None
        if index == perturbed_at:
            low = rng.randrange(two_j)
            src, dst = (low, low + 1) if rng.random() < 0.5 else (low + 1, low)
            perturb = (src, dst, rng.choice(_PERTURB_FACTORS))
        path = workdir / f"rep-{index:03d}.json"
        path.write_text(json.dumps(_spin_table(two_j, perturb)))
        expect = {"exit": 1 if perturb else 0, "two_j": two_j}
        if perturb:
            expect["perturb"] = [perturb[0], perturb[1], str(perturb[2])]
        ops.append(Op("rep-check", ("rep-check", "--rep", str(path)), expect=expect))
    return ops


def build_pool(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The seeded op pool of one workload; spin tables are written into ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    size = POOL_SIZE[workload]
    if workload == "verify-mix":
        return [_verify_op(rng, i) for i in range(size)]
    if workload == "enumerate-probe":
        return _enumerate_ops(rng, size)
    if workload == "spin-rep-check":
        return _spin_ops(rng, size, workdir)
    raise ValueError(f"unknown workload {workload!r}")
