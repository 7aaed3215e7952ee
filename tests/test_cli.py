import contextlib
import io
import json
import tempfile
import time
from fractions import Fraction as Fr
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sl2deform import cli
from sl2deform.cli import _join_value_flags, _parse_args, build_parser, main, to_json
from sl2deform.diffops import V3, DiffOp, MonomialSpace, enumerate_preserving_operators
from sl2deform.scalars import parse_scalar

from exact_field import Q


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def section(report, name):
    for sec in report["sections"]:
        if sec["name"] == name:
            return sec["values"]
    raise AssertionError(f"no section {name!r} in {report}")


def test_verify_case1_intrinsic_passes(capsys):
    code, report = run_cli(
        capsys, "verify-case", "--case", "1", "--alpha", "2", "--beta", "3"
    )
    assert code == 0
    assert report["status"] == "pass"
    sol = section(report, "solution")
    assert sol["c"] == "-5/4"
    assert sol["ladder_product"] == "3"
    cas = section(report, "casimir")
    assert cas["is_scalar_multiple_of_identity"] is True
    assert cas["scalar"] == "-189/512"
    blocks = section(report, "decomposition")["blocks"]
    assert [b["monomials"] for b in blocks] == [["x^0", "x^1"], ["x^3"]]


def test_verify_case3_reports_casimir_and_discrepancy(capsys):
    code, report = run_cli(
        capsys, "verify-case", "--case", "3", "--alpha", "1", "--beta", "0"
    )
    assert code == 0
    assert section(report, "casimir")["scalar"] == "-1045/82944"
    flag = section(report, "flagged-discrepancies")["whole-module-label"]
    assert flag["published"] == "-1/6"
    assert flag["computed"] == "-1/12"


def test_verify_case_trivial_pair_is_an_error(capsys):
    code, report = run_cli(
        capsys, "verify-case", "--case", "1", "--alpha", "0", "--beta", "0"
    )
    assert code == 2
    assert report["status"] == "error"
    assert "trivial" in section(report, "error")["message"]


def test_verify_case_trivial_pair_is_an_error_with_explicit_gamma(capsys):
    code, report = run_cli(
        capsys, "verify-case", "--case", "2", "--alpha", "0", "--beta", "0",
        "--gamma", "1",
    )
    assert code == 2
    assert "trivial" in section(report, "error")["message"]


def test_verify_case_intrinsic_gamma_needs_nonzero_alpha(capsys):
    code, report = run_cli(
        capsys, "verify-case", "--case", "1", "--alpha", "0", "--beta", "2"
    )
    assert code == 2
    assert "alpha != 0" in section(report, "error")["message"]


def test_verify_case_irrational_alpha_or_radicand_is_an_error(capsys):
    # alpha != 0 must be rational, and the radicand for c must stay rational
    for flags, words in (
        (["--alpha", "sqrt(2)", "--beta", "1"], "must be rational"),
        (["--alpha", "1", "--beta", "0", "--gamma", "sqrt(2)"], "irrational value"),
        (["--alpha", "1", "--beta", "sqrt(2)", "--gamma", "sqrt(2)"], "irrational value"),
    ):
        code, report = run_cli(capsys, "verify-case", "--case", "1", *flags)
        assert code == 2, flags
        message = section(report, "error")["message"]
        assert words in message and "\n" not in message


def test_verify_case_irrational_beta_solves_while_the_radicand_is_rational(capsys):
    # beta enters the radicand only as beta^2, and not at all on the
    # intrinsic locus, so c, delta and f*g stay in Q(sqrt(2))
    for flags, c in (
        (["--case", "2", "--beta", "sqrt(2)"], "-1/3*sqrt(2)"),
        (["--case", "2", "--beta", "1+sqrt(2)"], "-1/3 - 1/3*sqrt(2)"),
        (["--case", "1", "--beta", "sqrt(2)", "--gamma", "-19/3"], None),
    ):
        code, report = run_cli(capsys, "verify-case", "--alpha", "1", *flags)
        assert code == 0, flags
        assert section(report, "closure-on-space")["passed"] is True
        if c is not None:
            assert section(report, "solution")["c"] == c


def test_verify_case_alpha_zero_keeps_irrational_beta_and_gamma(capsys):
    for flags, c in (
        (["--beta", "sqrt(2)", "--gamma", "1"], "-7/10 - 1/4*sqrt(2)"),
        (["--beta", "1", "--gamma", "sqrt(3)"], "-7/10 - 1/2*sqrt(3)"),
    ):
        code, report = run_cli(
            capsys, "verify-case", "--case", "1", "--alpha", "0", *flags
        )
        assert code == 0, flags
        assert section(report, "solution")["c"] == c


def test_verify_case_negative_radicand_is_an_error(capsys):
    code, report = run_cli(
        capsys, "verify-case", "--case", "1", "--alpha", "1", "--beta", "0",
        "--gamma", "100",
    )
    assert code == 2
    assert report["status"] == "error"


def test_verify_case_explicit_gamma_off_locus(capsys):
    # radicand 900: on-space closure holds, intrinsic closure must not
    gamma = str(Fr(-579, 300) - 3)
    code, report = run_cli(
        capsys, "verify-case", "--case", "1", "--alpha", "1", "--beta", "0",
        f"--gamma={gamma}", "--branch", "upper",
    )
    assert code == 0
    assert report["status"] == "pass"
    assert section(report, "closure-on-space")["passed"] is True
    intrinsic = section(report, "closure-intrinsic")
    assert intrinsic["passed"] is False
    assert intrinsic["counts_toward_status"] is False
    assert intrinsic["nonzero_residuals"]
    # off the locus the two blocks carry different central scalars
    casimir = section(report, "casimir")
    assert casimir["is_scalar_multiple_of_identity"] is False
    assert casimir["counts_toward_status"] is False


def test_verify_case_wrong_branch_fails_under_intrinsic_gamma(capsys):
    # alpha > 0 wants the lower branch for case 1; forcing upper picks the
    # other constraint root, which cannot close intrinsically
    code, report = run_cli(
        capsys, "verify-case", "--case", "1", "--alpha", "2", "--beta", "3",
        "--branch", "upper",
    )
    assert code == 1
    assert report["status"] == "fail"
    assert section(report, "closure-on-space")["passed"] is True
    assert section(report, "closure-intrinsic")["passed"] is False


def test_enumerate_preserving_report(capsys):
    code, report = run_cli(
        capsys, "enumerate-preserving", "--space", "0,1", "--max-order", "1"
    )
    assert code == 0
    values = section(report, "preserving-operators")
    assert values["dimension"] == 4
    assert values["basis"]


def test_enumerate_preserving_v3_full_space(capsys):
    code, report = run_cli(
        capsys, "enumerate-preserving", "--space", "0,1,3", "--max-order", "3"
    )
    assert code == 0
    # the full solution space in the window: 9 independent actions on the
    # module plus 9 operators annihilating it
    assert section(report, "preserving-operators")["dimension"] == 18


def test_enumerate_bounds_the_system_size_not_the_order(capsys):
    code, report = run_cli(
        capsys, "enumerate-preserving", "--space", "0,1,3", "--max-order", "7"
    )
    assert code == 0
    basis = enumerate_preserving_operators(V3, 7)
    assert section(report, "preserving-operators")["basis"] == [op.to_text() for op in basis]
    code, report = run_cli(
        capsys, "enumerate-preserving", "--space", "0,1,1000000", "--max-order", "2"
    )
    assert code == 2
    assert "exceeds" in section(report, "error")["message"]
    # a space that starts with a minus sign is a value, not an option
    code, report = run_cli(
        capsys, "enumerate-preserving", "--space", "-1,2", "--max-order", "1"
    )
    assert code == 2
    assert section(report, "error")["message"] == (
        "ValueError: exponents must be distinct, sorted and nonnegative")


def test_enumerate_preserving_builds_no_operator(monkeypatch, capsys):
    # the report is written from the blocks' integer terms: a spy on both ways
    # a DiffOp is made sees none, and the basis is still the operators' text
    spaces = (("0,1,3", 3), ("0,1,3", 7), ("2,5,6,11", 4), ("3", 40))
    want = [[op.to_text() for op in enumerate_preserving_operators(
        MonomialSpace(tuple(int(e) for e in space.split(","))), order)]
        for space, order in spaces]
    built = []
    of, init = DiffOp._of.__func__, DiffOp.__init__

    def spy_of(cls, *args):
        built.append("_of")
        return of(cls, *args)

    def spy_init(self, *args):
        built.append("__init__")
        init(self, *args)

    monkeypatch.setattr(DiffOp, "_of", classmethod(spy_of))
    monkeypatch.setattr(DiffOp, "__init__", spy_init)
    reports = [run_cli(capsys, "enumerate-preserving", "--space", space,
                       "--max-order", str(order)) for space, order in spaces]
    assert built == []
    assert [section(report, "preserving-operators")["basis"] for _, report in reports] == want
    assert {code for code, _ in reports} == {0}
    # the spy does see the operators that the enumerator and the constructor build
    enumerate_preserving_operators(V3, 1)
    DiffOp({(0, 0): 1})
    assert set(built) == {"_of", "__init__"}


@pytest.mark.parametrize("argv, message", [
    (["enumerate-preserving", "--space", "\u0663", "--max-order", "1"],
     "ValueError: cannot parse integer '\u0663'"),
    (["enumerate-preserving", "--space", "1_000,2_000", "--max-order", "1"],
     "ValueError: cannot parse integer '1_000'"),
    (["verify-case", "--case", "2", "--alpha", "\u0663", "--beta", "1"],
     "ValueError: cannot parse scalar '\u0663'"),
    (["verify-case", "--case", "2", "--alpha", "1_000", "--beta", "1"],
     "ValueError: cannot parse scalar '1_000'"),
], ids=["space-arabic-indic", "space-underscore", "alpha-arabic-indic", "alpha-underscore"])
def test_integers_in_argv_are_ascii_digits_only(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert section(json.loads(captured.out), "error")["message"] == message


def test_rep_check_with_two_radicands_exits_2_in_one_line(tmp_path, capsys):
    params = {"alpha": "0", "beta": "0", "gamma": "2", "delta": "0"}
    path = tmp_path / "rep.json"
    for diagonal, ladders, named in [
        (["-1/2", "1/2"], [[0, 1, "sqrt(2)"], [1, 0, "sqrt(7)"]], "sqrt(2) and sqrt(7)"),
        # J0 over sqrt(2), its ladders over sqrt(3): h_i*x of [J0, J+] is the
        # first product that mixes them, so sqrt(2) is named first
        (["sqrt(2)", "1 + sqrt(2)"], [[0, 1, "sqrt(3)"], [1, 0, "sqrt(3)"]],
         "sqrt(2) and sqrt(3)"),
    ]:
        path.write_text(json.dumps(
            {"dimension": 2, "diagonal": diagonal, "ladders": ladders, "params": params}))
        code = main(["rep-check", "--rep", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        assert section(json.loads(captured.out), "error")["message"] == (
            f"ScalarDomainError: mixed radicands {named}")


def test_rep_check_classic_tables(tmp_path, capsys):
    from sl2deform.algebra import build_classic_sl2_matrices
    from sl2deform.scalars import render_scalar

    triple = build_classic_sl2_matrices(2)
    rep = {
        "dimension": 3,
        "diagonal": [render_scalar(triple.j0.rows[i][i]) for i in range(3)],
        "ladders": [
            [0, 1, render_scalar(triple.jplus.rows[1][0])],
            [1, 2, render_scalar(triple.jplus.rows[2][1])],
            [1, 0, render_scalar(triple.jminus.rows[0][1])],
            [2, 1, render_scalar(triple.jminus.rows[1][2])],
        ],
    }
    params = {"alpha": "0", "beta": "0", "gamma": "2", "delta": "0"}
    rep_path = tmp_path / "rep.json"
    params_path = tmp_path / "params.json"
    rep_path.write_text(json.dumps(rep))
    params_path.write_text(json.dumps(params))
    code, report = run_cli(
        capsys, "rep-check", "--rep", str(rep_path), "--params", str(params_path)
    )
    assert code == 0
    assert report["status"] == "pass"
    assert section(report, "relation-residuals")["all_zero"] is True
    # the spin-1 module is irreducible, so the casimir must be scalar
    assert section(report, "casimir")["is_scalar_multiple_of_identity"] is True


def test_rep_check_perturbed_entry_fails_with_location(tmp_path, capsys):
    rep = {
        "dimension": 3,
        "diagonal": ["-1", "0", "1"],
        "ladders": [
            [0, 1, "sqrt(2)"],
            [1, 2, "sqrt(2)"],
            [1, 0, "sqrt(2)"],
            [2, 1, "3/2*sqrt(2)"],  # perturbed
        ],
    }
    params = {"alpha": "0", "beta": "0", "gamma": "2", "delta": "0"}
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep | {"params": params}))
    code, report = run_cli(capsys, "rep-check", "--rep", str(rep_path))
    assert code == 1
    residuals = section(report, "relation-residuals")
    assert residuals["all_zero"] is False
    located = residuals["bracket_nonzero_entries"]
    assert located  # the report points at concrete entries
    for i, j, value in located:
        parse_scalar(value)


def test_emit_rep_round_trip(tmp_path, capsys):
    emitted = tmp_path / "case1.json"
    code, _ = run_cli(
        capsys, "verify-case", "--case", "1", "--alpha", "2", "--beta", "3",
        "--emit-rep", str(emitted),
    )
    assert code == 0
    code, report = run_cli(capsys, "rep-check", "--rep", str(emitted))
    assert code == 0
    assert report["status"] == "pass"


def test_reports_are_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for path in (out1, out2):
        code = main(
            ["verify-case", "--case", "2", "--alpha", "-3", "--beta", "1/2",
             "--report", str(path)]
        )
        capsys.readouterr()
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_scalars_round_trip(capsys):
    code, report = run_cli(
        capsys, "verify-case", "--case", "2", "--alpha", "5", "--beta", "-7"
    )
    assert code == 0
    sol = section(report, "solution")
    for key in ("c", "delta", "ladder_product"):
        parse_scalar(sol[key])
    for row in section(report, "casimir")["matrix"]:
        for entry in row:
            parse_scalar(entry)


def test_exit_code_matches_status(capsys):
    for argv, expected in [
        (["verify-case", "--case", "1", "--alpha", "2", "--beta", "3"], 0),
        (["verify-case", "--case", "1", "--alpha", "2", "--beta", "3",
          "--branch", "upper"], 1),
        (["verify-case", "--case", "1", "--alpha", "0", "--beta", "0"], 2),
    ]:
        code, report = run_cli(capsys, *argv)
        assert code == expected
        assert {0: "pass", 1: "fail", 2: "error"}[code] == report["status"]


def test_verify_case_computes_no_symbolic_action_when_it_passes(capsys, monkeypatch):
    from sl2deform.diffops import DiffOp

    calls = []
    original = DiffOp.symbolic_action

    def counted(op):
        calls.append(op)
        return original(op)

    monkeypatch.setattr(DiffOp, "symbolic_action", counted)
    code, _ = run_cli(capsys, "verify-case", "--case", "1", "--alpha", "2", "--beta", "3")
    assert code == 0
    # verdicts and matrices come from the terms; only a nonzero residual is
    # rendered through the symbolic action
    assert calls == []
    code, report = run_cli(capsys, "verify-case", "--case", "1", "--alpha", "2",
                           "--beta", "3", "--branch", "upper")
    assert code == 1
    rendered = section(report, "closure-intrinsic")["nonzero_residuals"]
    assert len(calls) == len(rendered) > 0


# -- rep-check: exact reports and malformed input --------------------------------


def spin_rep(two_j, rng, perturb=None):
    """Classic spin-j rep file, ladders shuffled; ``perturb`` = (src, dst, factor)."""
    from sl2deform.scalars import render_scalar, sqrt_exact

    j = Fr(two_j, 2)
    ladders = []
    for low in range(two_j):
        m = -j + low
        for src, dst in ((low, low + 1), (low + 1, low)):
            factor = perturb[2] if perturb and perturb[:2] == (src, dst) else 1
            ladders.append([src, dst, render_scalar(
                (Q(sqrt_exact((j - m) * (j + m + 1))) * factor).value)])
    rng.shuffle(ladders)
    return {
        "dimension": two_j + 1,
        "diagonal": [str(Fr(t, 2)) for t in range(-two_j, two_j + 1, 2)],
        "ladders": ladders,
        "params": {"alpha": "0", "beta": "0", "gamma": "2", "delta": "0"},
    }


def expected_spin_report(two_j, perturb=None):
    """The rep-check report in closed form.

    Clean, the relations hold and the Casimir is j(j+1) I.  Scaling the
    ladder entry between basis states low and low + 1 by t moves the product
    p = (j - m)(j + m + 1), m = -j + low, in [J+, J-] to t*p: the bracket
    residual is -(t - 1)p at (low, low) and (t - 1)p at (low + 1, low + 1),
    and the Casimir's entry (low + 1, low + 1) gains (t - 1)p.
    """
    n = two_j + 1
    j = Fr(two_j, 2)
    casimir = [[Fr(0)] * n for _ in range(n)]
    for i in range(n):
        casimir[i][i] = j * (j + 1)
    bracket = []
    if perturb:
        src, dst, t = perturb
        low = min(src, dst)
        m = -j + low
        shift = (t - 1) * (j - m) * (j + m + 1)
        bracket = [[low, low, str(-shift)], [low + 1, low + 1, str(shift)]]
        casimir[low + 1][low + 1] += shift
    scalar = perturb is None
    report = {
        "command": "rep-check",
        "sections": [
            {"name": "relation-residuals", "values": {
                "all_zero": not bracket,
                "raising_nonzero_entries": [],
                "lowering_nonzero_entries": [],
                "bracket_nonzero_entries": bracket,
            }},
            {"name": "casimir", "values": {
                "matrix": [[str(x) for x in row] for row in casimir],
                "is_scalar_multiple_of_identity": scalar,
                "scalar": str(j * (j + 1)) if scalar else None,
            }},
        ],
        "status": "pass" if scalar else "fail",
    }
    return json.dumps(report, indent=2) + "\n"


def test_rep_check_spin_reports_equal_the_closed_form(tmp_path, capsys):
    import random

    rng = random.Random(7)
    factors = (Fr(2), Fr(1, 2), Fr(-1), Fr(5, 3), Fr(3))
    for two_j in range(13):
        variants = [None]
        if two_j:
            low = rng.randrange(two_j)
            src, dst = (low, low + 1) if rng.random() < 0.5 else (low + 1, low)
            variants.append((src, dst, rng.choice(factors)))
        for perturb in variants:
            path = tmp_path / f"spin-{two_j}.json"
            path.write_text(json.dumps(spin_rep(two_j, rng, perturb)))
            code = main(["rep-check", "--rep", str(path)])
            assert capsys.readouterr().out == expected_spin_report(two_j, perturb), perturb
            assert code == (1 if perturb else 0)


def _unreduced(value, k: int) -> str:
    """A spelling of ``value`` that is not in lowest terms: each part times
    k/k, the radicand times 4 with its coefficient halved, and a zero as
    "-0", "0*sqrt(2)" or "0/5"."""
    if not isinstance(value, Fr):
        a, b = value.a, value.b
        return (f"{a.numerator * k}/{a.denominator * k} + "
                f"{b.numerator * k}/{b.denominator * k * 2}*sqrt({4 * value.d})")
    if not value:
        return ("-0", "0*sqrt(2)", "0/5")[k % 3]
    return f"{value.numerator * k}/{value.denominator * k}"


def test_rep_check_reads_unreduced_spellings_as_their_reduced_twins(tmp_path, capsys):
    # a clean spin-3 table, one with a ladder entry scaled and one with h_0
    # moved (irrational residual entries): written in lowest terms and
    # unreduced, with zero ladder entries added, the reports are one text
    from sl2deform.scalars import render_scalar, sqrt_exact

    two_j, j = 6, Fr(3)
    for perturb, moved in ((None, 0), ((3, 2, Fr(5, 3)), 0), (None, Fr(1, 3))):
        diagonal = [Fr(t, 2) + (moved if t == -two_j else 0)
                    for t in range(-two_j, two_j + 1, 2)]
        ladders = []
        for low in range(two_j):
            m = -j + low
            for src, dst in ((low, low + 1), (low + 1, low)):
                factor = perturb[2] if perturb and perturb[:2] == (src, dst) else 1
                ladders.append((src, dst, (Q(sqrt_exact((j - m) * (j + m + 1)))
                                           * factor).value))
        params = {"alpha": "0", "beta": "0", "gamma": "2", "delta": "0"}
        reduced = {"dimension": two_j + 1,
                   "diagonal": [render_scalar(h) for h in diagonal],
                   "ladders": [[src, dst, render_scalar(x)] for src, dst, x in ladders],
                   "params": params}
        unreduced = {"dimension": two_j + 1,
                     "diagonal": [_unreduced(h, 2 + i) for i, h in enumerate(diagonal)],
                     "ladders": [[src, dst, _unreduced(x, 2 + i)]
                                 for i, (src, dst, x) in enumerate(ladders)]
                     + [[0, 2, "0*sqrt(2)"], [5, 1, "-0"], [6, 4, "0/3"]],
                     "params": {"alpha": "-0", "beta": "0*sqrt(3)", "gamma": "4/2",
                                "delta": "0/7"}}
        for key in ("diagonal", "ladders"):
            assert all(u != r for u, r in zip(unreduced[key], reduced[key]))
        outs = []
        for payload in (reduced, unreduced):
            path = tmp_path / "rep.json"
            path.write_text(json.dumps(payload))
            code = main(["rep-check", "--rep", str(path)])
            outs.append((code, capsys.readouterr().out))
        assert outs[0] == outs[1], (perturb, moved)
        assert outs[0][0] == (0 if perturb is None and not moved else 1)
        if moved:
            raising = section(json.loads(outs[0][1]), "relation-residuals")
            assert any("sqrt(" in x for _, _, x in raising["raising_nonzero_entries"])


def test_rep_check_rejects_malformed_input_in_one_line(tmp_path, capsys):
    good = {"dimension": 2, "diagonal": ["-1/2", "1/2"],
            "ladders": [[0, 1, "1"], [1, 0, "1"]],
            "params": {"alpha": "0", "beta": "0", "gamma": "2", "delta": "0"}}
    path = tmp_path / "good.json"
    path.write_text(json.dumps(good))
    assert main(["rep-check", "--rep", str(path)]) == 0
    capsys.readouterr()
    params = good["params"]
    for change, words in (
        ({"dimension": 0, "diagonal": [], "ladders": []}, "positive integer"),
        ({"dimension": -1}, "positive integer"),
        ({"dimension": "2"}, "positive integer"),
        ({"dimension": True}, "positive integer"),
        ({"diagonal": ["-1/2"]}, "diagonal length"),
        ({"diagonal": ["-1/2", 0.5]}, "must be a scalar string"),
        ({"ladders": [[0, 1, 1], [1, 0, "1"]]}, "must be a scalar string"),
        ({"ladders": [[0, 1, "1"], [0, 1, "5"]]}, "duplicate ladder entry (0, 1)"),
        ({"ladders": [[0, 1, "1"], [1, 0]]}, "not a list [src, dst, coefficient]"),
        ({"ladders": [[0, 1, "1", "2"]]}, "not a list [src, dst, coefficient]"),
        ({"ladders": ["0,1,1"]}, "not a list [src, dst, coefficient]"),
        ({"ladders": {"0": 1}}, "must be a list"),
        ({"ladders": [[0, 0, "1"]]}, "bad ladder entry (0, 0)"),
        ({"ladders": [[0, 2, "1"]]}, "bad ladder entry (0, 2)"),
        ({"ladders": [[0, 1.0, "1"]]}, "bad ladder entry (0, 1.0)"),
        ({"ladders": [[0, 1, "one"]]}, "cannot parse scalar"),
        ({"params": params | {"alpha": 0}}, "alpha must be a scalar string"),
        ({"params": params | {"delta": None}}, "delta must be a scalar string"),
        ({"params": ["0", "0", "2", "0"]}, "params must be a JSON object"),
    ):
        path.write_text(json.dumps(good | change))
        code, report = run_cli(capsys, "rep-check", "--rep", str(path))
        assert code == 2, change
        message = section(report, "error")["message"]
        assert words in message and "\n" not in message, (change, message)
    path.write_text(json.dumps([good]))
    code, report = run_cli(capsys, "rep-check", "--rep", str(path))
    assert code == 2 and "JSON object" in section(report, "error")["message"]


_ATOMS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["0", "1", "-1/2", "sqrt(2)", "1 - 3*sqrt(3)", "x", "1/0", ""]),
)
_JSON = st.recursive(
    _ATOMS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=8,
)
_SCALAR = st.sampled_from(["0", "1", "2", "-1/2", "sqrt(2)", "3*sqrt(2)", "1 - sqrt(3)"])


@st.composite
def _rep_payloads(draw):
    """A well-formed rep file, then up to two of its parts replaced by any JSON.

    The edits run in the order of ``parts``: sub-parts first, each while its
    container is still the well-formed list or dict, then whole containers.
    """
    n = draw(st.integers(1, 4))
    entry = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _SCALAR).map(list)
    rep = {
        "dimension": n,
        "diagonal": draw(st.lists(_SCALAR, min_size=n, max_size=n)),
        "ladders": draw(st.lists(entry, max_size=6)),
        "params": draw(st.fixed_dictionaries(
            {name: _SCALAR for name in ("alpha", "beta", "gamma", "delta")})),
    }
    parts = ["diagonal entry", "ladder index", "ladder entry", "param",
             "dimension", "diagonal", "ladders", "params"]
    drawn = draw(st.lists(st.sampled_from(parts), max_size=2, unique=True))
    for part in sorted(drawn, key=parts.index):
        if part == "diagonal entry":
            rep["diagonal"][0] = draw(_ATOMS)
        elif part == "ladder entry" and rep["ladders"]:
            rep["ladders"][0] = draw(_JSON)
        elif part == "ladder index" and rep["ladders"]:
            rep["ladders"][-1][0] = draw(_ATOMS)
        elif part == "param":
            rep["params"]["alpha"] = draw(_ATOMS)
        elif part in rep:
            rep[part] = draw(_JSON)
    return rep


@settings(max_examples=150, deadline=None)
@given(st.one_of(_rep_payloads(), _JSON))
def test_rep_check_never_raises_on_any_json(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rep.json"
        path.write_text(json.dumps(payload))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["rep-check", "--rep", str(path)])
    report = json.loads(out.getvalue())
    assert report["status"] == {0: "pass", 1: "fail", 2: "error"}[code]
    if code == 2:
        assert "\n" not in section(report, "error")["message"]


def test_usage_errors_exit_2_with_the_same_text_on_every_call(capsys):
    # main() parses with one parser per process; its usage errors must read as
    # those of a freshly built parser, however many calls came before
    bad = [
        ([], "the following arguments are required: command"),
        (["verify-case", "--case", "4", "--alpha", "1", "--beta", "0"],
         "argument --case: invalid choice"),
        (["verify-case", "--case", "1", "--beta", "0"],
         "the following arguments are required: --alpha"),
        (["enumerate-preserving", "--space", "0,1,3", "--max-order", "2", "--bogus"],
         "unrecognized arguments: --bogus"),
        (["enumerate-preserving", "--space", "0,1,3", "--max-order", "x"],
         "argument --max-order: invalid int value: 'x'"),
        # integers in other scripts' digits or with "_" separators are refused
        (["verify-case", "--case", "٢", "--alpha", "1", "--beta", "1"],
         "argument --case: invalid int value: '٢'"),
        (["enumerate-preserving", "--space", "0,1", "--max-order", "1_0"],
         "argument --max-order: invalid int value: '1_0'"),
        (["enumerate-preserving", "--space", "0,1", "--max-order", "٣"],
         "argument --max-order: invalid int value: '٣'"),
    ]
    for argv, words in bad:
        texts = []
        for parse in (main, main, lambda a: build_parser().parse_args(_join_value_flags(a))):
            with pytest.raises(SystemExit) as exc:
                parse(list(argv))
            assert exc.value.code == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            texts.append(captured.err)
        assert texts[0] == texts[1] == texts[2], argv
        assert texts[0].startswith("usage: sl2deform") and words in texts[0], texts[0]


_DISPATCHED_ARGV = [
    ["verify-case", "--case=1", "--alpha=2", "--beta", "-1"],
    ["verify-case", "--cas", "1", "--alpha", "1", "--beta", "0"],
    ["verify-case", "--case", "1", "--alpha", "1", "--beta", "0", "--", "x"],
    ["verify-case", "--case", "1", "--alpha", "1", "--beta", "0", "stray"],
    ["verify-case", "--case", "3", "--alpha", "-7/3", "--beta", "1/2", "--gamma", "5",
     "--branch", "lower", "--emit-rep", "rep.json", "--report", "out.json"],
    ["enumerate-preserving", "--space", "-1,2", "--max-order", "3", "--report", "out.json"],
    ["rep-check", "--rep", "rep.json", "--params", "params.json", "--report", "out.json"],
    ["rep-check", "--params", "params.json"],
    ["-h"], ["--help"], ["verify-case", "-h"], ["enumerate-preserving", "--help"],
    ["rep-check", "--rep", "rep.json", "-h"], ["-h", "verify-case"],
    [], ["bogus"], ["bogus", "--case", "1"], ["--", "rep-check", "--rep", "rep.json"],
]


@pytest.mark.parametrize("argv", _DISPATCHED_ARGV, ids=" ".join)
def test_main_parses_each_argv_as_the_full_parser_does(argv, capsys):
    # main() hands argv after a subcommand's name straight to that
    # subcommand's parser; what it parses, prints and exits with must be what
    # the top-level parser gives for the same argv
    outcomes = []
    for parse in (_parse_args, lambda a: build_parser().parse_args(a)):
        try:
            outcome = parse(_join_value_flags(argv))
        except SystemExit as exc:
            outcome = ("exit", exc.code)
        captured = capsys.readouterr()
        outcomes.append((outcome, captured.out, captured.err))
    assert outcomes[0] == outcomes[1]


def test_rep_check_refuses_a_radicand_past_the_budget_in_one_line(tmp_path, capsys):
    n = 1000000000000000000000007  # a 25-digit prime
    rep = {"dimension": 2, "diagonal": ["-1/2", "1/2"],
           "ladders": [[0, 1, f"sqrt({n})"], [1, 0, "1"]],
           "params": {"alpha": "0", "beta": "0", "gamma": "2", "delta": "0"}}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    start = time.perf_counter()
    code, report = run_cli(capsys, "rep-check", "--rep", str(path))
    assert time.perf_counter() - start < 2
    assert code == 2
    message = section(report, "error")["message"]
    assert message.startswith("ValueError: radicand too large to split") and "\n" not in message


def test_an_unwritable_report_path_exits_2_with_only_that_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "r.json"
    code = main(["enumerate-preserving", "--space", "0,1,3", "--max-order", "1",
                 "--report", str(missing)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    report = json.loads(captured.out)  # one report, not the passing one first
    assert report["command"] == "enumerate-preserving" and report["status"] == "error"
    message = section(report, "error")["message"]
    assert message.startswith("FileNotFoundError") and "\n" not in message
    # a command's own error report still goes to a writable path
    path = tmp_path / "r.json"
    code, report = run_cli(capsys, "verify-case", "--case", "1", "--alpha", "0",
                           "--beta", "0", "--report", str(path))
    assert code == 2 and json.loads(path.read_text()) == report


def test_rep_check_refuses_json_nested_past_the_recursion_limit(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({"dimension": 1, "diagonal": ["0"], "ladders": []}))
    for files in (["--rep", str(deep)], ["--rep", str(rep), "--params", str(deep)]):
        code = main(["rep-check", *files])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        message = section(json.loads(captured.out), "error")["message"]
        assert message == f"ValueError: {deep}: JSON nested too deeply"


def test_rep_check_refuses_a_json_integer_past_the_digit_limit(tmp_path, capsys):
    import sys

    rep = tmp_path / "rep.json"
    rep.write_text('{"dimension": ' + "9" * 5000 + ', "diagonal": []}')
    code = main(["rep-check", "--rep", str(rep)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    message = section(json.loads(captured.out), "error")["message"]
    assert message == (f"ValueError: {rep} has an integer of more than "
                       f"{sys.get_int_max_str_digits()} digits, "
                       "the most that is converted to or from text")


@pytest.mark.parametrize("argv, words", [
    (["enumerate-preserving", "--space", "0," + "9" * 5000, "--max-order", "1"],
     "an input exponent has an integer of more than"),
    # the exponent parses, but the size of its preservation system is too long to print
    (["enumerate-preserving", "--space", "0," + "9" * 4300, "--max-order", "9"],
     "the size of the preservation system has an integer of more than"),
    (["verify-case", "--case", "2", "--alpha", "0", "--beta", "7" * 1600, "--gamma", "1"],
     "a report value has an integer of more than"),
    (["verify-case", "--case", "2", "--alpha", "0", "--beta", "1", "--gamma", "7" * 1600],
     "a report value has an integer of more than"),
], ids=["space-input", "system-size", "beta-report-value", "gamma-report-value"])
def test_past_the_digit_limit_exits_2_in_the_cli_own_words(capsys, argv, words):
    # Python refuses int <-> str conversions past a digit limit and advises a
    # sys call; the CLI names the limit and whether an input or a report value
    # went past it
    import sys

    code, report = run_cli(capsys, *argv)
    assert code == 2
    message = section(report, "error")["message"]
    assert message == (f"ValueError: {words} {sys.get_int_max_str_digits()} digits, "
                       "the most that is converted to or from text")
    assert "set_int_max_str_digits" not in message


# -- argv fuzzing over all three commands ------------------------------------------

_BIG_ROOTS = ["sqrt(1000000000000000000000007)", "sqrt(999999999989)",
              "3 - 2*sqrt(1000000000000000000000000)", f"sqrt({2**101 * 3})"]
_SMALL = st.fractions(min_value=-6, max_value=6, max_denominator=4).map(str)
_ARG_SCALAR = st.one_of(
    _SMALL, _SMALL,
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6).map(str),
    st.sampled_from(["sqrt(2)", "1 + sqrt(3)", "2*sqrt(8)", "-1/2*sqrt(5)"] + _BIG_ROOTS),
    st.sampled_from(["x", "", "1/0", "0.5", "sqrt(-2)", "sqrt(2) + 1"]),
)
_FLAG = st.sampled_from(["--case", "--alpha", "--beta", "--gamma", "--branch", "--space",
                         "--max-order", "--rep", "--params", "--bogus", "-h"])


@st.composite
def _argvs(draw):
    """(argv, rep, params) for one of the three commands, mostly well-formed.

    The rep file is a classic spin table with 2j <= 3, possibly with one
    entry or parameter replaced; "REP" and "PARAMS" in argv stand for the
    files the test writes.  One argv in ten loses a token or gains a flag.
    """
    command = draw(st.sampled_from(["verify-case", "enumerate-preserving", "rep-check"]))
    if command == "verify-case":
        argv = [command, "--case", draw(st.sampled_from(["1", "2", "3"])),
                "--alpha", draw(_ARG_SCALAR), "--beta", draw(_ARG_SCALAR)]
        if draw(st.booleans()):
            argv += ["--gamma", draw(st.one_of(st.just("intrinsic"), _ARG_SCALAR))]
        if draw(st.booleans()):
            argv += ["--branch", draw(st.sampled_from(["upper", "lower"]))]
    elif command == "enumerate-preserving":
        exponents = draw(st.sets(st.integers(0, 9), min_size=1, max_size=5).map(sorted))
        space = draw(st.one_of(st.just(",".join(map(str, exponents))),
                               st.sampled_from(["", "0,x", "0,,1", " 0, 1", "0,1,1"])))
        argv = [command, f"--space={space}",
                "--max-order", draw(st.sampled_from(["0", "1", "2", "3", "-1"]))]
    else:
        argv = [command, "--rep", "REP"]
        if draw(st.booleans()):
            argv += ["--params", draw(st.sampled_from(["PARAMS", "PARAMS", "missing.json"]))]
    if draw(st.integers(0, 9)) == 0:
        if draw(st.booleans()):
            del argv[draw(st.integers(0, len(argv) - 1))]
        else:
            argv.insert(draw(st.integers(1, len(argv))), draw(_FLAG))
    two_j = draw(st.integers(0, 3))
    ladders = []
    for low in range(two_j):
        product = (two_j - low) * (low + 1)  # (j - m)(j + m + 1) at m = -j + low
        ladders += [[low, low + 1, f"sqrt({product})"], [low + 1, low, f"sqrt({product})"]]
    rep = {"dimension": two_j + 1,
           "diagonal": [str(Fr(t, 2)) for t in range(-two_j, two_j + 1, 2)],
           "ladders": ladders,
           "params": {"alpha": "0", "beta": "0", "gamma": "2", "delta": "0"}}
    params = dict(rep["params"])
    where = draw(st.sampled_from(["none", "none", "diagonal", "ladder", "param", "params"]))
    if where == "diagonal":
        rep["diagonal"][draw(st.integers(0, two_j))] = draw(_ARG_SCALAR)
    elif where == "ladder" and ladders:
        ladders[draw(st.integers(0, len(ladders) - 1))][2] = draw(_ARG_SCALAR)
    elif where == "param":
        rep["params"][draw(st.sampled_from(sorted(params)))] = draw(_ARG_SCALAR)
    elif where == "params":
        params[draw(st.sampled_from(sorted(params)))] = draw(_ARG_SCALAR)
    return argv, rep, params


@settings(max_examples=120, deadline=None)
@given(_argvs())
def test_cli_argv_fuzz_exits_0_1_or_2_with_a_report_or_usage(case):
    argv, rep, params = case
    with tempfile.TemporaryDirectory() as tmp:
        files = {"REP": Path(tmp) / "rep.json", "PARAMS": Path(tmp) / "params.json",
                 "missing.json": Path(tmp) / "missing.json"}
        files["REP"].write_text(json.dumps(rep))
        files["PARAMS"].write_text(json.dumps(params))
        argv = [str(files.get(token, token)) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                # argparse: usage or help text, never a report
                assert exc.code in (0, 2), argv
                assert (err.getvalue() if exc.code else out.getvalue()).startswith("usage:")
                return
    assert code in (0, 1, 2), argv
    report = json.loads(out.getvalue())
    assert report["status"] == {0: "pass", 1: "fail", 2: "error"}[code], argv
    if code == 2:
        assert "\n" not in section(report, "error")["message"], argv


def test_a_lone_signed_sqrt_is_accepted_on_the_command_line(capsys):
    # "-sqrt(2)" reads as render_scalar's "-1*sqrt(2)", with the same report
    outputs = []
    for beta in ("-sqrt(2)", "-1*sqrt(2)"):
        code = main(["verify-case", "--case", "2", "--alpha", "1", "--beta", beta])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0
    assert section(json.loads(outputs[0][1]), "parameters")["beta"] == "-1*sqrt(2)"


def test_a_zero_denominator_in_a_radical_is_named_as_fraction_names_it(capsys):
    code, report = run_cli(
        capsys, "verify-case", "--case", "2", "--alpha", "1/0*sqrt(2)", "--beta", "1")
    assert code == 2
    assert section(report, "error")["message"] == "ZeroDivisionError: Fraction(1, 0)"


# -- the report writer against json.dumps(indent=2) --------------------------

_AWKWARD = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\u2028",
                            "\u00e9", "\ufffd", "\U0001f600", "\U0010ffff", "/"])
_TEXT = st.one_of(st.text(max_size=6), st.lists(_AWKWARD, max_size=6).map("".join))
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200).flatmap(
        lambda n: st.sampled_from([n, -n])),
    _TEXT,
)
_REPORT_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_REPORT_VALUES)
def test_report_writer_matches_json_dumps(value):
    assert to_json(value) == json.dumps(value, indent=2)


def test_report_writer_matches_json_dumps_on_edge_values():
    deep_list, deep_dict = [], {}
    for _ in range(300):
        deep_list, deep_dict = [deep_list, "x"], {"k": deep_dict, "": [1, {}]}
    for value in ([], {}, [[]], [{}], {"": []}, [True, False, None, 0, -1], "",
                  ["a", 1], [1, "a"], ["a", ["b"]], 2 ** 64, -(2 ** 64) - 1, 10 ** 100,
                  [["\U0001f600", "\x00\"\\"]], [[1, 2], ["a"]], [{"k": [1]}, "x"],
                  ["a", None, True, -2], {"s": "x", "i": -3, "t": True, "f": False, "n": None},
                  deep_list, deep_dict):
        assert to_json(value) == json.dumps(value, indent=2)


def test_report_writer_writes_the_plain_values_of_a_list_inline(monkeypatch):
    # a list that does not start with a str writes its str, int, bool and
    # None values in its own loop, as a dict does, so only the lists and
    # dicts in it are written by a call of their own
    calls = []
    write = cli.to_json
    monkeypatch.setattr(cli, "to_json", lambda v, indent="\n": calls.append(v) or write(v, indent))
    value = {"indices": [0, 1, 2], "entries": [[0, 1, "x"], [1, 0, "sqrt(2)"]],
             "flags": [True, None, "a", -3, [False]]}
    assert cli.to_json(value) == json.dumps(value, indent=2)
    assert calls == [value, value["indices"], value["entries"], *value["entries"],
                     value["flags"], [False]]


@pytest.mark.parametrize("value", [
    1.5, float("nan"), (1, 2), {1: "a"}, {None: 1}, {("a",): 1}, {"a", "b"}, b"x",
    Fr(1, 2), [1, 2.0], ["a", (1,)], {"a": ["b", 0.5]}, {"a": {2: "b"}},
    {"a": 1.5}, {"a": (1,)}, {"a": Fr(1, 2)}, {"a": "b", "c": 1.5}, [1.5], [(1,)], ["a", 1.5],
    [1, 1.5], [None, (1,)], [True, Fr(1, 2)],
])
def test_report_writer_refuses_what_is_not_a_report_value(value):
    with pytest.raises(TypeError):
        to_json(value)
