"""Per-layer trace: spans around calls into sl2deform's public functions.

``Tracer.install`` replaces each function in ``TARGETS`` by a wrapper that
records a span ``(name, start, end, parent, op_id)``.  A module-level
function is replaced under every name any ``sl2deform`` module binds it to
(``cli.parse_scalar`` as well as ``scalars.parse_scalar``); a method is
replaced on its class.  Spans live in flat arrays in memory and are written
out only when the run ends.  ``Tracer.uninstall`` puts every original back.

A span's self time is its duration minus the durations of its direct child
spans.  Time the wrappers themselves spend, and time in code no target
covers, lands in the parent span (or in no span at the top level); the
benchmark reports the slowdown as ``trace.overhead_frac``.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional, Sequence

_MARK = "_bench_layer_wrapper"


def _pairs(args, _result) -> dict:
    a, b = args[0], args[1]
    return {"term_pairs": len(a.terms) * len(b.terms)}


def _matmul_work(args, _result) -> dict:
    from sl2deform.scalars import scalar_is_zero

    a, b = args[0].rows, args[1].rows
    n = len(a)
    col_nnz = [sum(1 for i in range(n) if not scalar_is_zero(a[i][k])) for k in range(n)]
    row_nnz = [sum(1 for j in range(n) if not scalar_is_zero(b[k][j])) for k in range(n)]
    return {"entry_mults": sum(c * r for c, r in zip(col_nnz, row_nnz)), "entry_slots": n ** 3}


def _enumerate_sizes(args, result) -> dict:
    space, order = args[0], args[1]
    width = (order + 1) * (max(space.exponents) + 2 * order + 1)
    return {"unknowns": width, "basis_dim": len(result)}


#: metric name -> (module, class or None, attribute, count hook)
TARGETS: dict[str, tuple[str, Optional[str], str, Optional[Callable]]] = {
    "cli.main": ("cli", None, "main", None),
    "reps.solve_case": ("reps", None, "solve_case", None),
    "reps.intrinsic_gamma_and_product": ("reps", None, "intrinsic_gamma_and_product", None),
    "reps.decompose_rep": ("reps", None, "decompose_rep", None),
    "algebra.check_deformed_relations": ("algebra", None, "check_deformed_relations", None),
    "algebra.casimir_matrix": ("algebra", None, "casimir_matrix", None),
    "diffops.compose": ("diffops", "DiffOp", "compose", _pairs),
    "diffops.symbolic_action": ("diffops", "DiffOp", "symbolic_action", None),
    "diffops.matrix_on_space": ("diffops", "DiffOp", "matrix_on_space", None),
    "diffops.preserves_space": ("diffops", "DiffOp", "preserves_space", None),
    "diffops.closure_check": ("diffops", None, "closure_check", None),
    "diffops.enumerate_preserving_operators":
        ("diffops", None, "enumerate_preserving_operators", _enumerate_sizes),
    "diffops.lie_closure_probe": ("diffops", None, "lie_closure_probe", None),
    "matrices.matmul": ("matrices", "Matrix", "__matmul__", _matmul_work),
    "matrices.coordinate_block_split": ("matrices", None, "coordinate_block_split", None),
    "matrices.is_scalar_multiple_of_identity":
        ("matrices", None, "is_scalar_multiple_of_identity", None),
    "scalars.quadext": ("scalars", None, "quadext", None),
    "scalars.squarefree_split": ("scalars", None, "squarefree_split", None),
    "scalars.sqrt_exact": ("scalars", None, "sqrt_exact", None),
    "scalars.parse_scalar": ("scalars", None, "parse_scalar", None),
    "scalars.render_scalar": ("scalars", None, "render_scalar", None),
}
LAYERS = ("cli", "reps", "algebra", "diffops", "matrices", "scalars")


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sl2deform" or name.startswith("sl2deform."))]


def leftover_wrappers() -> list[str]:
    """Names in sl2deform modules and classes still bound to a trace wrapper."""
    found = []
    for module in _package_modules():
        for attr, value in vars(module).items():
            if getattr(value, _MARK, False):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for name, member in vars(value).items():
                    if getattr(member, _MARK, False):
                        found.append(f"{module.__name__}.{attr}.{name}")
    return found


class Tracer:
    """Span recorder for one traced run; create, install, run ops, uninstall."""

    def __init__(self):
        self.names = list(TARGETS)
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        nid = self.names.index(name)
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                for key, value in hook(args, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        import importlib

        for name, (module_name, class_name, attr, hook) in TARGETS.items():
            module = importlib.import_module(f"sl2deform.{module_name}")
            if class_name is not None:
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, hook)
            for other in _package_modules():
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def dump(self, path: Path) -> None:
        """Write every span as gzipped column-wise JSON, a chunk at a time."""
        columns = {"name": self.name, "start_ns": self.start, "end_ns": self.end,
                   "parent": self.parent, "op_id": self.op}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write('{"names":' + json.dumps(self.names))
            for key, column in columns.items():
                fh.write(f',"{key}":[')
                for i in range(0, len(column), 1 << 16):
                    fh.write(("," if i else "") + ",".join(map(str, column[i:i + (1 << 16)])))
                fh.write("]")
            fh.write("}")


def self_times(start: Sequence[int], end: Sequence[int], parent: Sequence[int]) -> array:
    """Duration of each span minus the durations of its direct children."""
    n = len(start)
    child = array("q", bytes(8 * n))
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    return array("q", (end[i] - start[i] - child[i] for i in range(n)))


def has_ancestor(i: int, wanted: int, name: Sequence[int], parent: Sequence[int]) -> bool:
    p = parent[i]
    while p >= 0:
        if name[p] == wanted:
            return True
        p = parent[p]
    return False


#: every per-layer metric of a traced run: name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "cli.main.self_ms": ("ms/op", "lower"),
    "cli.report_bytes": ("B/op", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "reps.solve_case.calls": ("calls/op", "lower"),
    "reps.solve_case.self_ms": ("ms/op", "lower"),
    "reps.intrinsic_gamma_and_product.self_ms": ("ms/op", "lower"),
    "reps.decompose_rep.self_ms": ("ms/op", "lower"),
    "algebra.check_deformed_relations.self_ms": ("ms/op", "lower"),
    "algebra.casimir_matrix.self_ms": ("ms/op", "lower"),
    "diffops.compose.calls": ("calls/op", "lower"),
    "diffops.compose.self_ms": ("ms/op", "lower"),
    "diffops.compose.term_pairs": ("count/op", "lower"),
    "diffops.symbolic_action.calls": ("calls/op", "lower"),
    "diffops.symbolic_action.self_ms": ("ms/op", "lower"),
    "diffops.matrix_on_space.calls": ("calls/op", "lower"),
    "diffops.matrix_on_space.self_ms": ("ms/op", "lower"),
    "diffops.symbolic_action_per_matrix": ("ratio", "lower"),
    "diffops.preserves_space.self_ms": ("ms/op", "lower"),
    "diffops.closure_check.self_ms": ("ms/op", "lower"),
    "diffops.enumerate_preserving_operators.self_ms": ("ms/op", "lower"),
    "diffops.enumerate_preserving_operators.unknowns": ("count/call", "lower"),
    "diffops.enumerate_preserving_operators.basis_dim": ("count/call", "lower"),
    "diffops.lie_closure_probe.self_ms": ("ms/op", "lower"),
    "matrices.matmul.calls": ("calls/op", "lower"),
    "matrices.matmul.self_ms": ("ms/op", "lower"),
    "matrices.matmul.entry_mults": ("count/op", "lower"),
    "matrices.matmul.useful_frac": ("ratio", "higher"),
    "matrices.coordinate_block_split.self_ms": ("ms/op", "lower"),
    "matrices.is_scalar_multiple_of_identity.self_ms": ("ms/op", "lower"),
    "scalars.quadext.calls": ("calls/op", "lower"),
    "scalars.quadext.self_ms": ("ms/op", "lower"),
    "scalars.squarefree_split.calls": ("calls/op", "lower"),
    "scalars.squarefree_split.self_ms": ("ms/op", "lower"),
    "scalars.sqrt_exact.calls": ("calls/op", "lower"),
    "scalars.parse_scalar.calls": ("calls/op", "lower"),
    "scalars.parse_scalar.self_ms": ("ms/op", "lower"),
    "scalars.render_scalar.calls": ("calls/op", "lower"),
    "scalars.render_scalar.self_ms": ("ms/op", "lower"),
    **{f"{layer}.self_ms": ("ms/op", "lower") for layer in LAYERS},
    "trace.overhead_frac": ("ratio", "lower"),
}


def layer_metrics(tracer: Tracer, n_ops: int, measured: dict[str, float],
                  op_scale: Optional[Sequence[float]] = None) -> dict[str, dict]:
    """The ``PER_LAYER`` metrics, per traced op, from the spans and counts.

    ``measured`` holds the values the trace cannot see: ``cli.report_bytes``,
    ``cli.import_ms`` and ``trace.overhead_frac``.  ``op_scale[op_id]``, when
    given, multiplies the self times of that op's spans.
    """
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls = [0] * len(tracer.names)
    self_ns = [0.0] * len(tracer.names)
    for nid, dt, op in zip(tracer.name, selfs, tracer.op):
        calls[nid] += 1
        self_ns[nid] += dt * (op_scale[op] if op_scale is not None else 1)
    values = dict(measured)
    for nid, name in enumerate(tracer.names):
        values[f"{name}.calls"] = calls[nid] / n_ops
        values[f"{name}.self_ms"] = self_ns[nid] / 1e6 / n_ops
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = sum(
            self_ns[nid] for nid, name in enumerate(tracer.names)
            if name.split(".")[0] == layer) / 1e6 / n_ops

    counts = tracer.counts
    values["diffops.compose.term_pairs"] = counts["diffops.compose.term_pairs"] / n_ops
    mults, slots = counts["matrices.matmul.entry_mults"], counts["matrices.matmul.entry_slots"]
    values["matrices.matmul.entry_mults"] = mults / n_ops
    values["matrices.matmul.useful_frac"] = mults / slots if slots else 0.0
    enum = "diffops.enumerate_preserving_operators"
    enum_calls = calls[tracer.names.index(enum)]
    for stat in ("unknowns", "basis_dim"):
        values[f"{enum}.{stat}"] = counts[f"{enum}.{stat}"] / enum_calls if enum_calls else 0.0

    sym = tracer.names.index("diffops.symbolic_action")
    mat = tracer.names.index("diffops.matrix_on_space")
    inside = sum(1 for i, nid in enumerate(tracer.name)
                 if nid == sym and has_ancestor(i, mat, tracer.name, tracer.parent))
    values["diffops.symbolic_action_per_matrix"] = inside / calls[mat] if calls[mat] else 0.0
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}
