"""The README's library quickstart runs as printed, every function the bench
traces still exists under the name it is traced by, and every public name
of the package has a caller outside the tests."""

import ast
import importlib
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_readme_quickstart_runs_and_prints_what_it_says():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S)[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "-189/512",
        "(0, 1) 1 (Fraction(-9, 4), Fraction(-5, 4))",
        "(2,) 0 3/4",
        "-43/60",
    ]


def test_every_bench_trace_target_resolves_in_sl2deform():
    targets = runpy.run_path(str(ROOT / "bench" / "layers.py"))["TARGETS"]
    assert targets
    for name, (module_name, class_name, attr, _hook) in targets.items():
        owner = importlib.import_module(f"sl2deform.{module_name}")
        if class_name is not None:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, attr, None)), name


def _names_outside_own_def(tree, strings):
    """Each name and attribute name in ``tree``, and with ``strings`` each
    string constant, except those inside the def (function, method or class)
    of the same name."""
    def walk(node, own):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None and name != own:
            yield name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = node.name
        for child in ast.iter_child_nodes(node):
            yield from walk(child, own)

    return set(walk(tree, None))


def test_every_public_operator_attribute_is_called_by_the_package_or_the_bench():
    # a name that only the tests reach is test-only surface: each export of
    # sl2deform, and each public attribute of the operator, matrix, triple
    # and space classes, is named in src/ outside __init__.py and outside its
    # own def, or in bench/, where a string such as a trace target counts
    import dataclasses

    import sl2deform
    from sl2deform.algebra import MatrixTriple
    from sl2deform.diffops import DiffOp, MonomialSpace
    from sl2deform.matrices import Matrix

    named = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name != "__init__.py":
            named |= _names_outside_own_def(ast.parse(path.read_text(encoding="utf-8")), False)
    for path in sorted((ROOT / "bench").glob("*.py")):
        named |= _names_outside_own_def(ast.parse(path.read_text(encoding="utf-8")), True)
    public = set(sl2deform.__all__)
    for cls in (DiffOp, Matrix, MatrixTriple, MonomialSpace):
        fields = dataclasses.fields(cls) if dataclasses.is_dataclass(cls) else ()
        members = {name for name in [*vars(cls), *(f.name for f in fields)]
                   if not name.startswith("_")}
        assert members, cls
        public |= {f"{cls.__name__}.{name}" for name in members}
    assert {"DiffOp.compose", "DiffOp.to_text", "Matrix.rows", "MatrixTriple.dimension",
            "MonomialSpace.exponents", "solve_case"} <= public
    assert sorted(name for name in public if name.rpartition(".")[2] not in named) == []


def test_bench_count_hooks_read_irrational_matrices_and_operators():
    # the traced run's hooks read matrices and operators through entries()
    # and terms, whatever the stored form; on ladders over several radicands
    # and operators over sqrt(2) they must give the counts those give
    from collections import Counter
    from fractions import Fraction

    from sl2deform.diffops import DiffOp
    from sl2deform.matrices import Matrix
    from sl2deform.scalars import QuadExt, quadext

    from reference_solvers import build_classic_sl2_matrices

    hooks = runpy.run_path(str(ROOT / "bench" / "layers.py"))
    triple = build_classic_sl2_matrices(6)
    # J+ + J0: J+ lies below the diagonal, so the two share no entry
    plus_j0 = Matrix.from_entries(triple.dimension, {
        (i, j): x for m in (triple.jplus, triple.j0) for i, j, x in m.entries()})
    pairs = [(triple.jplus, triple.jminus), (triple.jminus, triple.jplus),
             (plus_j0, triple.jminus @ triple.jplus)]
    for a, b in pairs:
        n = a.dimension
        col_nnz = Counter(k for _, k, _ in a.entries())
        row_nnz = Counter(k for k, _, _ in b.entries())
        want = sum(col_nnz[k] * row_nnz[k] for k in range(n))
        assert hooks["_matmul_work"]((a, b), a @ b) == {"entry_mults": want,
                                                         "entry_slots": n ** 3}
        assert want > 0
    radicands = {x.d for _, _, x in triple.jplus.entries() if isinstance(x, QuadExt)}
    assert len(radicands) > 1, radicands

    root2 = quadext(0, 1, 2)
    a = DiffOp({(1, 1): root2, (0, 0): quadext(1, 1, 2), (2, 1): -3})
    b = DiffOp({(0, 2): quadext(0, Fraction(1, 6), 2), (3, 1): 5})
    assert hooks["_pairs"]((a, b), a.compose(b)) == {"term_pairs": len(a.terms) * len(b.terms)}
    assert len(a.terms) * len(b.terms) == 6
