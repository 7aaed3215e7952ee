"""The README's library quickstart runs as printed, every function the bench
traces still exists under the name it is traced by, and every public operator
attribute has a caller outside the tests."""

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


def _names_outside_own_def(tree):
    """Each attribute name and each string constant in ``tree``, except those
    inside the ``DiffOp`` method of the same name."""
    def walk(node, own):
        if isinstance(node, ast.Attribute) and node.attr != own:
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value != own:
            yield node.value
        in_class = isinstance(node, ast.ClassDef) and node.name == "DiffOp"
        for child in ast.iter_child_nodes(node):
            is_method = in_class and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from walk(child, child.name if is_method else own)

    return set(walk(tree, None))


def test_every_public_operator_attribute_is_called_by_the_package_or_the_bench():
    # an attribute that only the tests name is test-only surface: each public
    # DiffOp attribute is named, as an attribute or a string such as the
    # bench's trace targets, in src/ outside its own def, or in bench/
    from sl2deform.diffops import DiffOp

    named = set()
    for path in [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]:
        named |= _names_outside_own_def(ast.parse(path.read_text(encoding="utf-8")))
    public = sorted(name for name in vars(DiffOp) if not name.startswith("_"))
    assert {"compose", "scale", "preserves_space", "to_text"} <= set(public)
    assert [name for name in public if name not in named] == []


def test_bench_count_hooks_read_irrational_matrices_and_operators():
    # the traced run's hooks read matrices and operators through entries()
    # and terms, whatever the stored form; on ladders over several radicands
    # and operators over sqrt(2) they must give the counts those give
    from collections import Counter
    from fractions import Fraction

    from sl2deform.algebra import build_classic_sl2_matrices
    from sl2deform.diffops import DiffOp
    from sl2deform.matrices import Matrix
    from sl2deform.scalars import QuadExt, quadext

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
