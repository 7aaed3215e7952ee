"""Output checks for the benchmark ops, independent of the code under test.

The checks run after the timed loop, on the first output of every pool
entry.  They use sympy and plain integer arithmetic, never ``sl2deform``:

* ``enumerate``: the basis size equals a sympy rank count over the same term
  lattice as ``tests/test_acceptance.py::_sympy_preserving_dimension``, every
  returned operator preserves the space, and the operators are independent.
* ``probe-*``: operator-level closure and the saturated matrix Lie span are
  recomputed from the symbolic actions with sympy polynomials.
* ``rep-check``: a clean spin-j table passes with Casimir scalar j(j+1); a
  perturbed one fails with exactly the two diagonal bracket entries the
  perturbation moves, at their exact values.
* ``verify-case``: the exit code matches the one built into the generator.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Optional

import sympy
from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix

from workloads import Op, ladder_square

_K = sympy.Symbol("k")
_STATUS = {0: "pass", 1: "fail", 2: "error"}


def check(op: Op, code: Optional[int], text: str) -> Optional[str]:
    """None when the op's output is correct, else a one-line reason."""
    if op.kind.startswith("probe-"):
        return _check_probe(op, text)
    if code != op.expect["exit"]:
        return f"exit {code}, expected {op.expect['exit']}"
    report = json.loads(text)
    if report.get("status") != _STATUS[code]:
        return f"status {report.get('status')!r} does not match exit {code}"
    if op.kind == "enumerate":
        return _check_enumerate(op, _section(report, "preserving-operators"))
    if op.kind == "rep-check":
        return _check_spin(op, report)
    return None


def _section(report: dict, name: str) -> dict:
    for sec in report["sections"]:
        if sec["name"] == name:
            return sec["values"]
    raise KeyError(name)


def _rank(rows: list[list], width: int) -> int:
    if not rows:
        return 0
    domain = QQ if any(isinstance(v, Fraction) for row in rows for v in row) else ZZ
    return DomainMatrix([[domain(v) for v in row] for row in rows], (len(rows), width), domain).rank()


def _falling(k: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= k - i
    return out


# -- enumerate-preserving ----------------------------------------------------------


def preserving_dimension(exps: tuple[int, ...], max_order: int) -> int:
    """Null-space dimension of the preservation conditions, by sympy rank."""
    lo, hi = -max_order, max(exps) + max_order
    keys = [(m, n) for n in range(max_order + 1) for m in range(lo, hi + 1)]
    rows = []
    for k in exps:
        images: dict[int, list[tuple[int, int]]] = {}
        for idx, (m, n) in enumerate(keys):
            weight = _falling(k, n)
            if weight:
                images.setdefault(k + m - n, []).append((idx, weight))
        for e, contribs in images.items():
            if e in exps:
                continue
            row = [0] * len(keys)
            for idx, weight in contribs:
                row[idx] = weight
            rows.append(row)
    return len(keys) - _rank(rows, len(keys))


_TERM_RE = re.compile(r"(^-|^|[+-] )(\d+(?:/\d+)?) \* x\^(-?\d+) \* D\^(\d+)")


def parse_operator(text: str) -> dict[tuple[int, int], Fraction]:
    """Terms of one rational operator in the ``c * x^m * D^n`` report format."""
    terms = {}
    pos = 0
    for match in _TERM_RE.finditer(text):
        if match.start() != pos:
            raise ValueError(f"unparsed text in {text!r}")
        sign = -1 if match.group(1).startswith("-") else 1
        terms[(int(match.group(3)), int(match.group(4)))] = sign * Fraction(match.group(2))
        pos = match.end() + (1 if match.end() < len(text) else 0)
    if pos < len(text) or not terms:
        raise ValueError(f"cannot parse operator {text!r}")
    return terms


def _image(terms: dict, k: int) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for (m, n), c in terms.items():
        out[k + m - n] = out.get(k + m - n, Fraction(0)) + c * _falling(k, n)
    return {e: v for e, v in out.items() if v}


def _check_enumerate(op: Op, values: dict) -> Optional[str]:
    space, order = op.params["space"], op.params["order"]
    expected = preserving_dimension(space, order)
    basis = [parse_operator(t) for t in values["basis"]]
    if values["dimension"] != expected or len(basis) != expected:
        return f"dimension {values['dimension']} ({len(basis)} listed), oracle {expected}"
    for terms in basis:
        for k in space:
            if any(e not in space for e in _image(terms, k)):
                return f"operator {terms} does not preserve {space}"
    keys = sorted({key for terms in basis for key in terms})
    rows = [[terms.get(key, Fraction(0)) for key in keys] for terms in basis]
    if _rank(rows, len(keys)) != expected:
        return "basis operators are linearly dependent"
    return None


# -- Lie-closure probes -------------------------------------------------------------


def _action(terms: dict) -> dict[int, sympy.Poly]:
    """Shift -> polynomial in k of the operator's effect on x^k."""
    out: dict[int, sympy.Poly] = {}
    for (m, n), c in terms.items():
        poly = sympy.Poly(sympy.Rational(c.numerator, c.denominator), _K, domain=QQ)
        for i in range(n):
            poly = poly * sympy.Poly(_K - i, _K, domain=QQ)
        out[m - n] = out.get(m - n, sympy.Poly(0, _K, domain=QQ)) + poly
    return {s: p for s, p in out.items() if not p.is_zero}


def _compose(a: dict, b: dict) -> dict:
    """Action of a . b: x^k -> b_s(k) x^(k+s) -> a_t(k+s) b_s(k) x^(k+s+t)."""
    out: dict[int, sympy.Poly] = {}
    for s, bp in b.items():
        shifted = sympy.Poly(_K + s, _K, domain=QQ)
        for t, ap in a.items():
            term = ap.compose(shifted) * bp
            out[s + t] = out.get(s + t, sympy.Poly(0, _K, domain=QQ)) + term
    return {u: p for u, p in out.items() if not p.is_zero}


def _bracket(a: dict, b: dict) -> dict:
    ab, ba = _compose(a, b), _compose(b, a)
    out = dict(ab)
    for s, p in ba.items():
        out[s] = out.get(s, sympy.Poly(0, _K, domain=QQ)) - p
    return {s: p for s, p in out.items() if not p.is_zero}


def _coords(action: dict) -> dict[tuple[int, int], Fraction]:
    out = {}
    for s, poly in action.items():
        for (deg,), c in poly.terms():
            out[(s, deg)] = Fraction(int(c.numerator), int(c.denominator))
    return out


def _matrix_vector(action: dict, space: tuple[int, ...]) -> list[Fraction]:
    pos = {e: i for i, e in enumerate(space)}
    n = len(space)
    flat = [Fraction(0)] * (n * n)
    for col, k in enumerate(space):
        for s, poly in action.items():
            value = poly.eval(k)
            if value:
                flat[pos[k + s] * n + col] = Fraction(int(value.p), int(value.q))
    return flat


def _matrix_product(a: list, b: list, n: int) -> list:
    return [sum(a[i * n + k] * b[k * n + j] for k in range(n)) for i in range(n) for j in range(n)]


def probe_oracle(terms_list: list[dict], space: tuple[int, ...]) -> dict:
    """closed / failing pairs / saturated matrix-span dimension, recomputed."""
    actions = [_action(t) for t in terms_list]
    # diagonal allowance: (x D)^i, i = 0..3, acts as k^i at shift 0
    allowance = [{0: sympy.Poly(_K ** i, _K, domain=QQ)} for i in range(4)]
    brackets = [
        ((i, j), _bracket(actions[i], actions[j]))
        for i in range(len(actions))
        for j in range(i + 1, len(actions))
    ]
    keys = sorted({key for act in actions + allowance + [b for _, b in brackets]
                   for key in _coords(act)})
    vec = lambda act: [_coords(act).get(key, Fraction(0)) for key in keys]
    span = [vec(a) for a in actions + allowance]
    base = _rank(span, len(keys))
    failing = [pair for pair, br in brackets if _rank(span + [vec(br)], len(keys)) > base]

    n = len(space)
    basis: list[list[Fraction]] = []
    for act in actions:
        flat = _matrix_vector(act, space)
        if _rank(basis + [flat], n * n) > len(basis):
            basis.append(flat)
    grew = True
    while grew:
        grew = False
        current = list(basis)
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                ab = _matrix_product(current[i], current[j], n)
                ba = _matrix_product(current[j], current[i], n)
                br = [x - y for x, y in zip(ab, ba)]
                if _rank(basis + [br], n * n) > len(basis):
                    basis.append(br)
                    grew = True
    return {
        "closed_as_operators": not failing,
        "failing_pairs": [list(p) for p in failing],
        "matrix_lie_span_dimension": len(basis),
    }


def _check_probe(op: Op, text: str) -> Optional[str]:
    got = json.loads(text)
    terms = [parse_operator(t) for t in got["operators"]]
    if op.kind == "probe-ladders":
        inputs = [{key: c for key, c in t.items() if c} for t in op.params["terms"]]
        if terms != inputs:
            return "probed operators differ from the generated ones"
    else:
        problem = _check_enumerate(op, {"dimension": len(terms), "basis": got["operators"]})
        if problem:
            return problem
    expected = probe_oracle(terms, op.params["space"])
    for key, value in expected.items():
        if got.get(key) != value:
            return f"{key} = {got.get(key)!r}, oracle {value!r}"
    return None


# -- rep-check on spin tables ---------------------------------------------------------


def _check_spin(op: Op, report: dict) -> Optional[str]:
    two_j = op.expect["two_j"]
    residuals = _section(report, "relation-residuals")
    if residuals["raising_nonzero_entries"] or residuals["lowering_nonzero_entries"]:
        return "ladder relations reported nonzero"
    bracket = residuals["bracket_nonzero_entries"]
    if "perturb" not in op.expect:
        casimir = _section(report, "casimir")
        j = Fraction(two_j, 2)
        if bracket or not residuals["all_zero"]:
            return "clean table reported a nonzero bracket entry"
        if casimir["scalar"] != str(j * (j + 1)):
            return f"casimir scalar {casimir['scalar']!r}, expected {j * (j + 1)}"
        return None
    src, dst, factor = op.expect["perturb"]
    lo, hi = min(src, dst), max(src, dst)
    moved = (Fraction(factor) - 1) * ladder_square(two_j, lo)
    expected = [[lo, lo, str(-moved)], [hi, hi, str(moved)]]
    if residuals["all_zero"] or bracket != expected:
        return f"bracket entries {bracket}, expected {expected}"
    return None
