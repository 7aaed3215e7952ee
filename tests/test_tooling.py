"""The README's library quickstart runs as printed, and every function the
bench traces still exists under the name it is traced by."""

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
