"""Golden report corpus: fixed argv whose exit code and stdout must not change.

``golden_reports.json`` lists CLI runs in order, each with its argv, its exit
code and the sha256 of its stdout, and for runs that write files (``--emit-rep``,
``--report``) the sha256 of each file written.  The runs cover ``verify-case``
on all three cases (both branches, alpha = 0, irrational beta and gamma,
intrinsic and explicit gamma, wrong-branch and off-locus runs with nonzero
residuals, error exits), ``--emit-rep`` with the emitted file read back by
``rep-check``, ``enumerate-preserving`` on a dozen fixed spaces and orders
and on 40 seeded spaces at orders 0..9, and
``rep-check`` on classic spin tables with 2j = 0..12, clean, perturbed and with
gamma = sqrt(2).

The replay runs every argv through ``cli.main`` in a fresh working
directory, after writing the spin-table rep files that :func:`rep_files`
builds; file arguments are relative to that directory.  It runs with pytest,
or on its own with ``python tests/test_golden_reports.py`` where pytest is not
installed.  ``--record`` rewrites the data file from the tree under test; do
that only on a tree whose reports are known to be right.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).with_name("golden_reports.json")
SPIN_TWO_J = range(13)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _spin_table(two_j: int, ladder_factor=None, params=None) -> dict:
    """Classic spin-j rep file in the orthonormal basis, nothing from sl2deform.

    J+ sends basis vector low to low + 1 with sqrt((j - m)(j + m + 1)), J- the
    reverse; ``ladder_factor`` = (src, dst, factor text) multiplies one entry.
    """
    j = Fraction(two_j, 2)
    ladders = []
    for low in range(two_j):
        m = -j + low
        n = (j - m) * (j + m + 1)
        for src, dst in ((low, low + 1), (low + 1, low)):
            text = f"sqrt({n})"
            if ladder_factor and ladder_factor[:2] == (src, dst):
                text = f"{ladder_factor[2]}*{text}"
            ladders.append([src, dst, text])
    return {
        "dimension": two_j + 1,
        "diagonal": [str(Fraction(t, 2)) for t in range(-two_j, two_j + 1, 2)],
        "ladders": ladders,
        "params": params or {"alpha": "0", "beta": "0", "gamma": "2", "delta": "0"},
    }


def rep_files() -> dict[str, str]:
    """Every rep and params file the corpus reads, by name, as JSON text."""
    files = {}
    for two_j in SPIN_TWO_J:
        files[f"spin-{two_j}.json"] = _spin_table(two_j)
        if two_j:
            low = two_j // 2
            files[f"spin-{two_j}-perturbed.json"] = _spin_table(
                two_j, (low, low + 1, "3/2"))
            files[f"spin-{two_j}-lowered.json"] = _spin_table(two_j, (1, 0, "-1"))
        files[f"spin-{two_j}-sqrt2.json"] = _spin_table(
            two_j, params={"alpha": "0", "beta": "0", "gamma": "sqrt(2)", "delta": "0"})
    files["params-deformed.json"] = {
        "alpha": "1/2", "beta": "0", "gamma": "2", "delta": "-1/3"}
    files["params-1-plus-sqrt3.json"] = {
        "alpha": "0", "beta": "0", "gamma": "1 + sqrt(3)", "delta": "0"}
    return {name: json.dumps(payload, indent=1) + "\n" for name, payload in files.items()}


def _run(argv: list[str]) -> tuple[int, str]:
    from sl2deform.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _written(argv: list[str]) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in ("--emit-rep", "--report")]


def replay(runs: list[dict], workdir: Path) -> list[str]:
    """Run the corpus in ``workdir``; one line per run that differs."""
    for name, text in rep_files().items():
        (workdir / name).write_text(text, encoding="utf-8")
    problems = []
    old = os.getcwd()
    os.chdir(workdir)
    try:
        for i, run in enumerate(runs):
            code, out = _run(run["argv"])
            got = {
                "exit": code,
                "stdout_sha256": _sha(out.encode()),
                "files": {p: _sha(Path(p).read_bytes()) for p in _written(run["argv"])},
            }
            want = {key: run.get(key, {}) for key in got}
            if got != want:
                problems.append(f"run {i} {run['argv']}: got {got}, recorded {want}")
    finally:
        os.chdir(old)
    return problems


def test_golden_reports_are_unchanged(tmp_path):
    runs = json.loads(DATA.read_text(encoding="utf-8"))["runs"]
    assert len(runs) > 500
    # the recorder's argv list is the recorded one, so a re-record runs the same corpus
    assert [run["argv"] for run in runs] == corpus_argvs()
    problems = replay(runs, tmp_path)
    assert not problems, "\n".join(problems[:10])


# -- recording ------------------------------------------------------------------


def corpus_argvs() -> list[list[str]]:
    """The argv of every corpus run, in order, as recorded."""
    from sl2deform.cases import CaseId
    from sl2deform.reps import intrinsic_gamma_and_product
    from sl2deform.scalars import parse_scalar, render_scalar

    runs: list[list[str]] = []
    alphas = ["2", "-1/3", "1", "0"]
    betas = ["3", "0", "-5/2", "sqrt(2)", "1 + sqrt(2)"]
    for case in ("1", "2", "3"):
        for alpha in alphas:
            for beta in betas:
                gammas = ["intrinsic", "1", "-19/3", "sqrt(2)"]
                if alpha != "0":
                    # the intrinsic gamma given explicitly, and just off it
                    g = intrinsic_gamma_and_product(
                        CaseId(int(case)).data, parse_scalar(alpha), parse_scalar(beta)).gamma
                    gammas += [render_scalar(g), render_scalar(g + Fraction(1, 7))]
                for gamma in gammas:
                    for branch in ([None] if alpha == "0" else [None, "upper", "lower"]):
                        argv = ["verify-case", "--case", case, "--alpha", alpha,
                                "--beta", beta, "--gamma", gamma]
                        runs.append(argv + (["--branch", branch] if branch else []))
    # error exits
    for case in ("1", "2", "3"):
        runs += [
            ["verify-case", "--case", case, "--alpha", "0", "--beta", "0"],
            ["verify-case", "--case", case, "--alpha", "0", "--beta", "0", "--gamma", "1"],
            ["verify-case", "--case", case, "--alpha", "sqrt(2)", "--beta", "1"],
            ["verify-case", "--case", case, "--alpha", "1", "--beta", "0", "--gamma", "100"],
            ["verify-case", "--case", case, "--alpha", "x", "--beta", "1"],
            ["verify-case", "--case", case, "--alpha", "1", "--beta", "1/0"],
            ["verify-case", "--case", case, "--alpha", "1", "--beta", "sqrt(2)",
             "--gamma", "sqrt(3)"],
            ["verify-case", "--case", case, "--alpha", "1", "--beta", "0",
             "--gamma", "sqrt(2)"],
        ]
    # --emit-rep, the file read back, and --report
    for case in ("1", "2", "3"):
        for alpha, beta, gamma in (("2", "3", "intrinsic"), ("-1/3", "sqrt(2)", "intrinsic"),
                                   ("0", "1", "-19/3"), ("1", "0", "-1179/300")):
            name = f"emit-{case}-{len(runs)}.json"
            runs.append(["verify-case", "--case", case, "--alpha", alpha, "--beta", beta,
                         "--gamma", gamma, "--emit-rep", name])
            runs.append(["rep-check", "--rep", name])
        runs.append(["verify-case", "--case", case, "--alpha", "2", "--beta", "-1",
                     "--report", f"report-{case}.json"])
    # enumerate-preserving
    for space, orders in (("0,1,3", range(5)), ("0", (0, 2)), ("3", (1, 3)),
                          ("0,1", (1, 2)), ("0,2,5", (2, 3)), ("1,4", (2,)),
                          ("0,1,2,3", (3,)), ("0,3,7", (2,)), ("2,3,5,8", (2,)),
                          ("0,1,3,6", (3,)), ("0,1,1000000", (2,)), ("1,0", (1,)),
                          ("0,1,3", (-1,))):
        for order in orders:
            runs.append(["enumerate-preserving", "--space", space,
                         "--max-order", str(order)])
    # rep-check on spin tables
    for two_j in SPIN_TWO_J:
        runs.append(["rep-check", "--rep", f"spin-{two_j}.json"])
        runs.append(["rep-check", "--rep", f"spin-{two_j}-sqrt2.json"])
        runs.append(["rep-check", "--rep", f"spin-{two_j}.json",
                     "--params", "params-1-plus-sqrt3.json"])
        if two_j:
            runs.append(["rep-check", "--rep", f"spin-{two_j}-perturbed.json"])
            runs.append(["rep-check", "--rep", f"spin-{two_j}-lowered.json",
                         "--params", "params-deformed.json"])
    runs.append(["rep-check", "--rep", "missing.json"])
    # enumerate-preserving on seeded spaces, orders 0..9: exponents below the
    # order and wide gaps, where many shifts share one block of the system
    rng = random.Random(1010)
    for i in range(40):
        exps = sorted(rng.sample(range(13), rng.randint(1, 5)))
        runs.append(["enumerate-preserving", "--space", ",".join(map(str, exps)),
                     "--max-order", str(i % 10)])
    return runs


def dump(runs: list[dict]) -> str:
    """The data file's text: one run per line."""
    return '{"runs": [\n' + ",\n".join(json.dumps(run) for run in runs) + "\n]}\n"


def record() -> list[dict]:
    runs = [{"argv": argv} for argv in corpus_argvs()]
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, text in rep_files().items():
            (workdir / name).write_text(text, encoding="utf-8")
        old = os.getcwd()
        os.chdir(workdir)
        try:
            for run in runs:
                code, out = _run(run["argv"])
                run["exit"] = code
                run["stdout_sha256"] = _sha(out.encode())
                files = {p: _sha(Path(p).read_bytes()) for p in _written(run["argv"])}
                if files:
                    run["files"] = files
        finally:
            os.chdir(old)
    return runs


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        DATA.write_text(dump(record()), encoding="utf-8")
        sys.exit(0)
    with tempfile.TemporaryDirectory() as tmp:
        found = replay(json.loads(DATA.read_text(encoding="utf-8"))["runs"], Path(tmp))
    print("\n".join(found) or "golden reports unchanged")
    sys.exit(1 if found else 0)
