"""Command-line front end emitting exact JSON verification reports.

Subcommands:
    verify-case          solve one ladder case, realize it by differential
                         operators, and run every check end to end
    enumerate-preserving basis of the operators preserving a monomial space
    rep-check            verify a user-supplied representation against given
                         bracket coefficients

Exit codes: 0 every checked residual is exactly zero, 1 some check failed,
2 usage error / unparseable input / invalid parameter region.  All scalars in
reports are exact strings ("p/q" or "a + b*sqrt(D)"), never floating point.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _json_string
from typing import Optional, Sequence

from .algebra import AlgebraParams, MatrixTriple, casimir_matrix, check_deformed_relations
from .cases import CaseId, build_case_realization
from .diffops import (
    ClosureReport,
    MonomialSpace,
    closure_check,
    enumerate_preserving_operators,
)
from .matrices import Matrix, is_scalar_multiple_of_identity
from .reps import decompose_rep, intrinsic_gamma_and_product, solve_case
from .scalars import digit_limit, parse_int, parse_scalar, render_scalar, scalar_is_zero

PASS, FAIL, ERROR = "pass", "fail", "error"
_EXIT = {PASS: 0, FAIL: 1, ERROR: 2}


def to_json(value, indent: str = "\n") -> str:
    """``value`` as JSON, byte for byte as ``json.dumps`` writes it with ``indent=2``.

    A report holds only str, int, bool, None, lists and dicts with str keys;
    any other value, a float or a tuple say, raises TypeError.  ``indent`` is
    the newline and indentation that close ``value``; each level adds two
    spaces.
    """
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        try:  # a list of strings, the common case, in one pass
            body = ("," + inner).join(map(_json_string, value))
        except TypeError:
            body = ("," + inner).join([to_json(v, inner) for v in value])
        return "[" + inner + body + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # a key that is not a str makes _json_string raise TypeError
        body = ("," + inner).join([_json_string(k) + ": " + to_json(v, inner)
                                   for k, v in value.items()])
        return "{" + inner + body + indent + "}"
    raise TypeError(f"not a report value: {value!r}")


def _section(name: str, values: dict) -> dict:
    return {"name": name, "values": values}


def _finish(report: dict, checks: list[bool]) -> dict:
    report["status"] = PASS if all(checks) else FAIL
    return report


def _error_report(command: str, message: str) -> dict:
    return {
        "command": command,
        "status": ERROR,
        "sections": [_section("error", {"message": message})],
    }


def _render_action(op) -> dict:
    """{shift: "PolyK[(c0)*k^0 + ...]"}, the nonzero coefficients of each shift."""
    return {
        str(shift): "PolyK[" + " + ".join(
            f"({render_scalar(c)})*k^{i}" for i, c in enumerate(coeffs)
            if not scalar_is_zero(c)
        ) + "]"
        for shift, coeffs in op.symbolic_action().items()
    }


def _render_space(space: MonomialSpace) -> str:
    return ",".join(str(e) for e in space.exponents)


def _closure_values(report) -> dict:
    values: dict = {"passed": report.passed}
    if not report.passed:
        values["nonzero_residuals"] = {
            name: _render_action(op)
            for name, op in report.residuals
            if not op.is_zero()
        }
    return values


def cmd_verify_case(args) -> dict:
    case = CaseId(args.case)
    data = case.data
    space = data.space
    alpha = parse_scalar(args.alpha)
    beta = parse_scalar(args.beta)

    # the parameter region is checked once, by the solvers in reps
    gamma_intrinsic = args.gamma == "intrinsic"
    if gamma_intrinsic:
        intr = intrinsic_gamma_and_product(data, alpha, beta)
        gamma = intr.gamma
        branch = args.branch or intr.branch
    else:
        intr = None
        gamma = parse_scalar(args.gamma)
        branch = args.branch or "upper"

    solution = solve_case(data, alpha, beta, gamma, branch)
    params = AlgebraParams(alpha, beta, gamma, solution.delta)

    triple_ops = build_case_realization(data, f=1, g=solution.fg, c=solution.c)

    checks: list[bool] = []
    sections: list[dict] = []
    sections.append(
        _section(
            "parameters",
            {
                "case": case.value,
                "alpha": render_scalar(alpha),
                "beta": render_scalar(beta),
                "gamma": render_scalar(gamma),
                "gamma_mode": "intrinsic" if gamma_intrinsic else "explicit",
                "branch": solution.branch,
            },
        )
    )
    solution_values = {
        "c": render_scalar(solution.c),
        "delta": render_scalar(solution.delta),
        "ladder_product": render_scalar(solution.fg),
    }
    if intr is not None:
        solution_values["intrinsic_ladder_product"] = render_scalar(intr.fg)
        checks.append(solution.fg == intr.fg)
    sections.append(_section("solution", solution_values))

    preserved = {
        name: op.preserves_space(space)
        for name, op in zip(("diagonal", "raising", "lowering"), triple_ops)
    }
    checks.append(all(preserved.values()))
    sections.append(
        _section("preserves-space", {"space": _render_space(space), **preserved})
    )

    # one set of residual operators gives both closure verdicts
    on_space = closure_check(triple_ops, params, space)
    checks.append(on_space.passed)
    sections.append(_section("closure-on-space", _closure_values(on_space)))

    intrinsic = ClosureReport.judge(on_space.residuals, None)
    intrinsic_values = _closure_values(intrinsic)
    intrinsic_values["counts_toward_status"] = gamma_intrinsic
    if gamma_intrinsic:
        checks.append(intrinsic.passed)
    sections.append(_section("closure-intrinsic", intrinsic_values))

    triple_mats = MatrixTriple(*[op.matrix_on_space(space) for op in triple_ops])
    residuals = check_deformed_relations(triple_mats, params)
    checks.append(residuals.all_zero)
    sections.append(
        _section("matrix-relations", {"all_residuals_zero": residuals.all_zero})
    )

    casimir = casimir_matrix(triple_mats, params)
    casimir_scalar = is_scalar_multiple_of_identity(casimir)
    # off the intrinsic locus the two irreducible blocks carry different
    # central scalars, so a non-scalar casimir is expected there
    if gamma_intrinsic:
        checks.append(casimir_scalar is not None)
    sections.append(
        _section(
            "casimir",
            {
                "matrix": casimir.to_strings(),
                "is_scalar_multiple_of_identity": casimir_scalar is not None,
                "scalar": None if casimir_scalar is None else render_scalar(casimir_scalar),
                "counts_toward_status": gamma_intrinsic,
            },
        )
    )

    blocks = decompose_rep(triple_mats)
    block_values = []
    for block in blocks:
        label = block.c_label
        rendered = (
            render_scalar(label)
            if not isinstance(label, tuple)
            else [render_scalar(v) for v in label]
        )
        block_values.append(
            {
                "indices": list(block.indices),
                "monomials": [f"x^{space.exponents[i]}" for i in block.indices],
                "two_j_label": block.two_j_label,
                "c_label": rendered,
            }
        )
    sections.append(_section("decomposition", {"blocks": block_values}))

    if case is CaseId.CASE3 and gamma_intrinsic:
        printed = case.printed_label_const - beta / (3 * alpha)
        sections.append(
            _section(
                "flagged-discrepancies",
                {
                    "whole-module-label": {
                        "published": render_scalar(printed),
                        "computed": render_scalar(solution.c),
                        "note": "the published whole-module diagonal label does not "
                        "match the solved c; the computed value is reported",
                    }
                },
            )
        )

    if args.emit_rep:
        _write_rep_file(args.emit_rep, triple_mats, params)
        sections.append(_section("emitted-representation", {"path": args.emit_rep}))

    report = {"command": "verify-case", "sections": sections}
    return _finish(report, checks)


def _write_rep_file(path: str, triple: MatrixTriple, params: AlgebraParams) -> None:
    n = triple.dimension
    # [src, dst, coefficient], (src, dst) ascending: J+ below the diagonal
    # and J- above it, each entry at row dst and column src
    ladders = sorted(
        [[src, dst, render_scalar(x)] for dst, src, x in triple.jplus.entries() if dst > src]
        + [[src, dst, render_scalar(x)] for dst, src, x in triple.jminus.entries() if dst < src]
    )
    payload = {
        "dimension": n,
        "diagonal": [render_scalar(x) for x in triple.diagonal],
        "ladders": ladders,
        "params": {
            "alpha": render_scalar(params.alpha),
            "beta": render_scalar(params.beta),
            "gamma": render_scalar(params.gamma),
            "delta": render_scalar(params.delta),
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(payload) + "\n")


def cmd_enumerate_preserving(args) -> dict:
    with digit_limit("an input exponent"):
        exponents = tuple([parse_int(e) for e in args.space.split(",")])
    space = MonomialSpace(exponents)
    basis = enumerate_preserving_operators(space, args.max_order)
    sections = [
        _section(
            "preserving-operators",
            {
                "space": _render_space(space),
                "max_order": args.max_order,
                "dimension": len(basis),
                "basis": [op.to_text() for op in basis],
            },
        )
    ]
    return _finish({"command": "enumerate-preserving", "sections": sections}, [True])


def _is_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _scalar_field(value, where: str):
    if not isinstance(value, str):
        raise ValueError(
            f'{where} must be a scalar string such as "-1/2" or "3*sqrt(2)", '
            f"got {json.dumps(value)}"
        )
    return parse_scalar(value)


def _read_rep_check_input(rep, params) -> tuple[MatrixTriple, AlgebraParams]:
    """Validate the payloads of ``rep-check`` and build the triple and parameters.

    This is the one check of rep-check's input.  ``params`` is the --params
    payload, or None for the one the rep file embeds.  The dimension must be a
    positive integer and the diagonal a list of that many scalars; each
    ladder entry is a list [src, dst, coefficient] of two distinct in-range
    indices, no (src, dst) pair given twice; every scalar is a string.
    Anything else raises ValueError (KeyError for a missing field) with a
    one-line message.
    """
    if not isinstance(rep, dict):
        raise ValueError("the rep file must hold a JSON object")
    if params is None:
        if "params" not in rep:
            raise ValueError("no --params file given and the rep file embeds none")
        params = rep["params"]
    if not isinstance(params, dict):
        raise ValueError("params must be a JSON object")
    n = rep["dimension"]
    if not _is_index(n) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {json.dumps(n)}")
    diag = rep["diagonal"]
    if not isinstance(diag, list) or len(diag) != n:
        raise ValueError("diagonal length does not match dimension")
    j0 = Matrix.diagonal([_scalar_field(x, "diagonal entry") for x in diag])
    ladders = rep.get("ladders", [])
    if not isinstance(ladders, list):
        raise ValueError("ladders must be a list of [src, dst, coefficient] entries")
    plus: dict = {}
    minus: dict = {}
    for entry in ladders:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ValueError(
                f"ladder entry {json.dumps(entry)} is not a list [src, dst, coefficient]"
            )
        src, dst, text = entry
        in_range = _is_index(src) and _is_index(dst) and 0 <= src < n and 0 <= dst < n
        if not in_range or src == dst:
            raise ValueError(f"bad ladder entry ({json.dumps(src)}, {json.dumps(dst)})")
        ladder = plus if dst > src else minus
        if (dst, src) in ladder:
            raise ValueError(f"duplicate ladder entry ({src}, {dst})")
        ladder[(dst, src)] = _scalar_field(text, f"ladder entry ({src}, {dst})")
    triple = MatrixTriple(
        j0=j0, jplus=Matrix.from_entries(n, plus), jminus=Matrix.from_entries(n, minus)
    )
    values = {name: _scalar_field(params[name], name)
              for name in ("alpha", "beta", "gamma", "delta")}
    return triple, AlgebraParams(**values)


def _nonzero_positions(matrix: Matrix) -> list[list]:
    return [[i, j, render_scalar(x)] for i, j, x in matrix.entries()]


def _load_json(path: str):
    """The JSON value of a file; nesting past the recursion limit, or an
    integer past the digit limit, is a one-line ValueError."""
    with open(path, encoding="utf-8") as fh, digit_limit(path):
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def cmd_rep_check(args) -> dict:
    rep_payload = _load_json(args.rep)
    params_payload = _load_json(args.params) if args.params else None
    triple, params = _read_rep_check_input(rep_payload, params_payload)

    residuals = check_deformed_relations(triple, params)
    casimir = casimir_matrix(triple, params)
    casimir_scalar = is_scalar_multiple_of_identity(casimir)
    sections = [
        _section(
            "relation-residuals",
            {
                "all_zero": residuals.all_zero,
                "raising_nonzero_entries": _nonzero_positions(residuals.raising),
                "lowering_nonzero_entries": _nonzero_positions(residuals.lowering),
                "bracket_nonzero_entries": _nonzero_positions(residuals.bracket),
            },
        ),
        _section(
            "casimir",
            {
                "matrix": casimir.to_strings(),
                "is_scalar_multiple_of_identity": casimir_scalar is not None,
                "scalar": None if casimir_scalar is None else render_scalar(casimir_scalar),
            },
        ),
    ]
    return _finish({"command": "rep-check", "sections": sections}, [residuals.all_zero])


def _int(text: str) -> int:
    return parse_int(text)


# argparse names a flag's type in its errors: "invalid int value: 'x'"
_int.__name__ = "int"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2deform",
        description="Exact verification of cubic deformations of sl(2,R) on monomial modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    vc = sub.add_parser("verify-case", help="solve and verify one ladder case end to end")
    vc.add_argument("--case", type=_int, choices=[case.value for case in CaseId], required=True)
    vc.add_argument("--alpha", required=True, help="exact scalar, e.g. 2 or -1/3")
    vc.add_argument("--beta", required=True)
    vc.add_argument("--gamma", default="intrinsic", help="'intrinsic' or an exact scalar")
    vc.add_argument("--branch", choices=("upper", "lower"), default=None)
    vc.add_argument("--emit-rep", default=None, metavar="PATH")
    vc.add_argument("--report", default=None, metavar="PATH")
    vc.set_defaults(func=cmd_verify_case)

    ep = sub.add_parser("enumerate-preserving", help="basis of space-preserving operators")
    ep.add_argument("--space", required=True, help="comma-separated exponents, e.g. 0,1,3")
    ep.add_argument("--max-order", type=_int, required=True)
    ep.add_argument("--report", default=None, metavar="PATH")
    ep.set_defaults(func=cmd_enumerate_preserving)

    rc = sub.add_parser("rep-check", help="verify a representation from JSON files")
    rc.add_argument("--rep", required=True, metavar="PATH")
    rc.add_argument("--params", default=None, metavar="PATH")
    rc.add_argument("--report", default=None, metavar="PATH")
    rc.set_defaults(func=cmd_rep_check)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every main() call in this process, built on first use.

    Parsing keeps no state in the parser, so one tree serves every call.
    """
    return build_parser()


_VALUE_FLAGS = ("--alpha", "--beta", "--gamma", "--space")


def _join_value_flags(argv: Sequence[str]) -> list[str]:
    """Fuse value flags with their values so "-7/3" or "-1,2" is not read as an option."""
    out: list[str] = []
    it = iter(argv)
    for token in it:
        if token in _VALUE_FLAGS:
            value = next(it, None)
            out.append(token if value is None else f"{token}={value}")
        else:
            out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(_join_value_flags(sys.argv[1:] if argv is None else argv))
    path = getattr(args, "report", None)
    try:
        try:
            report = args.func(args)
        # ValueError covers malformed JSON and the package's own input errors
        except (ValueError, ArithmeticError, OSError, KeyError) as exc:
            report = _error_report(args.command, f"{type(exc).__name__}: {exc}")
        text = to_json(report) + "\n"
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        # the report file cannot be written: stdout carries only that error
        report = _error_report(args.command, f"{type(exc).__name__}: {exc}")
        text = to_json(report) + "\n"
    sys.stdout.write(text)
    return _EXIT[report["status"]]


if __name__ == "__main__":
    sys.exit(main())
