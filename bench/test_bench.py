"""Self-tests of the benchmark: generators, oracles, trace arithmetic, wrapper removal.

Run from the root of a checkout:  python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layers  # noqa: E402
import oracles  # noqa: E402
import worker  # noqa: E402
from workloads import POOL_SIZE, WORKLOADS, build_pool  # noqa: E402


def _describe(pool) -> list:
    """Everything that defines a pool, with spin tables read back from disk."""
    out = []
    for op in pool:
        argv = list(op.argv)
        if op.kind == "rep-check":
            argv[-1] = Path(argv[-1]).read_text()
        out.append((op.kind, argv, repr(op.params), op.expect))
    return out


@pytest.fixture(scope="module")
def runner():
    cli, diffops = worker.import_package(BENCH.parent)
    return worker.Runner(cli, diffops)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    a = _describe(build_pool(workload, 7, tmp_path / "a"))
    b = _describe(build_pool(workload, 7, tmp_path / "b"))
    c = _describe(build_pool(workload, 8, tmp_path / "c"))
    assert len(a) == POOL_SIZE[workload]
    assert a == b
    assert a != c
    # the seed moves values only: the kinds, and so the work mix, stay put
    assert [op[0] for op in a] == [op[0] for op in c]


@pytest.fixture(autouse=True)
def _workdirs(tmp_path):
    for name in "abc":
        (tmp_path / name).mkdir()


def _first_output(runner, workload: str, kind: str, tmp_path: Path):
    pool = build_pool(workload, 3, tmp_path / "a")
    op = next(op for op in pool if op.kind == kind)
    runner.prepare(op)
    code, text = runner.run(op)
    assert oracles.check(op, code, text) is None, "the genuine output must pass"
    return op, code, text


def test_oracle_rejects_corrupted_enumeration(runner, tmp_path):
    op, code, text = _first_output(runner, "enumerate-probe", "enumerate", tmp_path)
    report = json.loads(text)
    values = report["sections"][0]["values"]
    short = json.loads(text)
    short["sections"][0]["values"]["basis"] = values["basis"][:-1]
    short["sections"][0]["values"]["dimension"] -= 1
    assert oracles.check(op, code, json.dumps(short))
    escaping = json.loads(text)
    escaping["sections"][0]["values"]["basis"][0] = "1 * x^99 * D^0"
    assert oracles.check(op, code, json.dumps(escaping))
    assert oracles.check(op, 2, text)


def test_oracle_rejects_corrupted_spin_report(runner, tmp_path):
    op, code, text = _first_output(runner, "spin-rep-check", "rep-check", tmp_path)
    wrong = text.replace(f'"scalar": "{oracles._section(json.loads(text), "casimir")["scalar"]}"',
                         '"scalar": "1/7"')
    assert wrong != text
    assert oracles.check(op, code, wrong)


def test_oracle_rejects_misplaced_perturbation(runner, tmp_path):
    pool = build_pool("spin-rep-check", 3, tmp_path / "a")
    op = next(op for op in pool if "perturb" in op.expect)
    code, text = runner.run(op)
    assert code == 1 and oracles.check(op, code, text) is None
    src, dst, factor = op.expect["perturb"]
    op.expect["perturb"] = [src, dst, "7"]
    assert oracles.check(op, code, text)


def test_oracle_rejects_corrupted_probe(runner, tmp_path):
    for kind in ("probe-basis", "probe-ladders"):
        op, code, text = _first_output(runner, "enumerate-probe", kind, tmp_path)
        report = json.loads(text)
        report["matrix_lie_span_dimension"] += 1
        assert oracles.check(op, code, json.dumps(report))
        report = json.loads(text)
        report["closed_as_operators"] = not report["closed_as_operators"]
        assert oracles.check(op, code, json.dumps(report))


def test_oracle_rejects_wrong_exit_code(runner, tmp_path):
    op, code, text = _first_output(runner, "verify-mix", "wrong-branch", tmp_path)
    assert code == 1
    assert oracles.check(op, 0, text.replace('"status": "fail"', '"status": "pass"'))


def test_self_time_of_a_nested_trace():
    #   root [0, 100]
    #     a  [10, 40]
    #       g [15, 25]
    #     b  [50, 90]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 90]
    parent = [-1, 0, 1, 0]
    assert list(layers.self_times(start, end, parent)) == [30, 20, 10, 40]
    assert layers.has_ancestor(2, 7, [7, 1, 2, 3], parent)
    assert not layers.has_ancestor(3, 1, [7, 1, 2, 3], parent)


def test_wrappers_are_removed_after_a_traced_run(runner, tmp_path):
    import sl2deform.cli as cli
    import sl2deform.matrices as matrices
    import sl2deform.scalars as scalars

    originals = (cli.parse_scalar, scalars.parse_scalar, matrices.Matrix.__matmul__, cli.main)
    pool = build_pool("spin-rep-check", 1, tmp_path / "a")[:2]
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert "sl2deform.cli.parse_scalar" in layers.leftover_wrappers()
        assert "sl2deform.matrices.Matrix.__matmul__" in layers.leftover_wrappers()
        for i, op in enumerate(pool):
            tracer.op_id = i
            code, _ = runner.run(op)
            assert code == op.expect["exit"]
    finally:
        tracer.uninstall()
    assert layers.leftover_wrappers() == []
    assert (cli.parse_scalar, scalars.parse_scalar, matrices.Matrix.__matmul__, cli.main) == originals
    names = {tracer.names[n] for n in tracer.name}
    assert {"cli.main", "matrices.matmul", "scalars.parse_scalar"} <= names
    metrics = layers.layer_metrics(tracer, len(pool), {
        "cli.report_bytes": 1.0, "cli.import_ms": 1.0, "trace.overhead_frac": 0.0})
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["matrices.matmul.calls"]["value"] == 12


def test_benchmark_file_lists_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    for metric in spec["per_layer"]:
        assert (metric["unit"], metric["better"]) == layers.PER_LAYER[metric["name"]]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "ops_per_s", "op_ms_p50", "op_ms_p90", "setup_s", "peak_rss_mb"}
