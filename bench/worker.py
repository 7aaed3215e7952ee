"""One workload process: set up, run the closed loop, check, report.

Started by ``run.py`` as a fresh interpreter.  It imports ``sl2deform`` from
the checkout's ``src/``, builds the seeded op pool, prints ``ready <t>``
(``time.monotonic()``, which run.py compares with its own clock to get the
set-up time) and ``reference_ms <ms>`` (the machine's current speed), and,
unless ``--mode setup``, runs the ops one at a time, each after the previous
one finished (closed loop, one client, no threads).

Modes:
  setup    stop right after ``ready``
  run      timed loop; with ``--trace 1`` the timed loop runs under the
           layer trace, then the first ops run untraced and traced in turn
  profile  one pass over the pool under cProfile; top 5 by tottime

The last stdout line is a JSON object with the results.  Checks run after
the loop ends, outside every timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOADS, Op, build_pool

MIN_TIMED_OPS = 100  # so p90 has at least ten samples above it
OVERHEAD_OPS = 40    # ops run both untraced and traced to measure the trace overhead

# The shared VMs this runs on change speed by up to 2x for tens of seconds at
# a time, so raw wall-clock figures of one 30 s run move by +-20% on the same
# seed.  Before every timed op the loop runs a fixed reference kernel, and the
# op's time is scaled to the machine speed at which that kernel takes
# NOMINAL_REFERENCE_MS (about its time on a quiet 2-vCPU VM).  Raw figures are
# reported next to the scaled ones.
NOMINAL_REFERENCE_MS = 1.6


def reference_kernel() -> None:
    """Fixed exact-arithmetic work, nothing from sl2deform: Fractions, str, dict."""
    acc, seen = Fraction(0), {}
    for i in range(1, 300):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        seen[i] = str(acc.numerator % 97)


def reference_ms() -> float:
    """Median of five runs of the reference kernel now, for scaling the set-up time."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def import_package(root: Path):
    """Import sl2deform from ``root/src``, never from anywhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import sl2deform.cli
    import sl2deform.diffops

    if src not in Path(sl2deform.__file__).resolve().parents:
        raise ImportError(f"sl2deform was imported from {sl2deform.__file__}, not {src}")
    return sl2deform.cli, sl2deform.diffops


class Runner:
    """Executes ops against the package and captures what each one prints."""

    def __init__(self, cli, diffops):
        self.cli = cli
        self.diffops = diffops
        self.errors: list[str] = []

    def prepare(self, op: Op) -> None:
        """Turn generated operator terms into operators (part of set-up)."""
        if op.kind == "probe-ladders":
            op.params["ops"] = [self.diffops.DiffOp(t) for t in op.params["terms"]]

    def run(self, op: Op) -> tuple[int | None, str]:
        try:
            if op.argv:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = self.cli.main(list(op.argv))
                return code, buf.getvalue()
            diffops = self.diffops
            space = diffops.MonomialSpace(op.params["space"])
            if op.kind == "probe-basis":
                ops = diffops.enumerate_preserving_operators(space, op.params["order"])
            else:
                ops = op.params["ops"]
            report = diffops.lie_closure_probe(ops, space)
            return 0, json.dumps({
                "operators": [o.to_text() for o in ops],
                "closed_as_operators": report.closed_as_operators,
                "failing_pairs": [list(p) for p in report.failing_pairs],
                "matrix_lie_span_dimension": report.matrix_lie_span_dimension,
                "rounds_used": report.rounds_used,
            }) + "\n"
        except Exception:  # an op that crashes is a failed op, not a failed run
            self.errors.append(traceback.format_exc())
            return None, ""


class Loop:
    """Closed-loop timing over a cycled pool, comparing every repeat with the first pass."""

    def __init__(self, runner: Runner, pool: list[Op]):
        self.runner = runner
        self.pool = pool
        self.first: list[tuple[int | None, str]] = []
        self.times: list[float] = []
        self.uses = [0] * len(pool)
        self.mismatches = 0
        self.reference_times: list[float] = []
        self.elapsed = 0.0

    def go(self, seconds: float, min_ops: int, on_op=None, reference: bool = False) -> None:
        pool, runner, clock = self.pool, self.runner, time.perf_counter
        begin = clock()
        i = 0
        while True:
            slot = i % len(pool)
            if on_op is not None:
                on_op(i)
            if reference:
                r0 = clock()
                reference_kernel()
                self.reference_times.append(clock() - r0)
            t0 = clock()
            result = runner.run(pool[slot])
            t1 = clock()
            self.times.append(t1 - t0)
            self.uses[slot] += 1
            if i < len(pool):
                self.first.append(result)
            elif result != self.first[slot]:
                self.mismatches += 1
            i += 1
            if i >= min_ops and t1 - begin >= seconds:
                break
        self.elapsed = t1 - begin


def failing_slots(pool: list[Op], outputs: list[tuple[int | None, str]]) -> dict[int, str]:
    """Pool index -> reason, for every first-pass output the oracles reject."""
    import oracles

    failing = {}
    for slot, (op, (code, text)) in enumerate(zip(pool, outputs)):
        try:
            problem = oracles.check(op, code, text)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem:
            failing[slot] = f"op {slot} ({op.kind} {' '.join(op.argv)}): {problem}"
    return failing


def failed_ops(loop: Loop, failing: dict[int, str]) -> int:
    """Ops of ``loop`` whose pool entry failed its check, plus repeats that differed."""
    return loop.mismatches + sum(loop.uses[slot] for slot in failing)


def digest(outputs: list[tuple[int | None, str]]) -> str:
    return hashlib.sha256("".join(text for _, text in outputs).encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run", "profile"), default="run")
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    t_import = time.monotonic()
    cli, diffops = import_package(args.root)
    import_ms = (time.monotonic() - t_import) * 1e3
    workdir = args.root / "bench" / "out" / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(cli, diffops)
        pool = build_pool(args.workload, args.seed, workdir)
        for op in pool:
            runner.prepare(op)
        print(f"ready {time.monotonic()!r}", flush=True)
        print(f"reference_ms {reference_ms()!r}", flush=True)
        if args.mode == "setup":
            return 0
        result = {"workload": args.workload, "seed": args.seed, "pool": len(pool)}
        if args.mode == "profile":
            result.update(profile(runner, pool))
        elif args.trace:
            result.update(traced(runner, pool, args, import_ms))
        else:
            result.update(timed(runner, pool, args.seconds))
        if runner.errors:
            sys.stderr.write(runner.errors[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.pop("failing", None)
    print(json.dumps(result), flush=True)
    return 0


def _summary(pool: list[Op], loop: Loop) -> dict:
    failing = failing_slots(pool, loop.first)
    reasons = list(failing.values())[:20]
    if loop.mismatches:
        reasons.append(f"{loop.mismatches} repeated ops printed other output than their first run")
    return {
        "attempted": len(loop.times),
        "failed": failed_ops(loop, failing),
        "reasons": reasons,
        "digest": digest(loop.first),
        "failing": failing,
    }


def _p50_p90(values: list[float]) -> tuple[float, float]:
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def op_scales(loop: Loop) -> list[float]:
    """Per op, the factor to nominal machine speed, from the five reference runs around it."""
    refs = loop.reference_times
    return [NOMINAL_REFERENCE_MS / (1e3 * statistics.median(refs[max(0, i - 2):i + 3]))
            for i in range(len(refs))]


def timed(runner: Runner, pool: list[Op], seconds: float) -> dict:
    loop = Loop(runner, pool)
    loop.go(seconds, max(MIN_TIMED_OPS, len(pool)), reference=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    refs = loop.reference_times
    scaled_ms = [t * 1e3 * f for t, f in zip(loop.times, op_scales(loop))]
    raw_ms = [t * 1e3 for t in loop.times]
    p50, p90 = _p50_p90(scaled_ms)
    raw_p50, raw_p90 = _p50_p90(raw_ms)
    out = _summary(pool, loop)
    out.update({
        "elapsed_s": loop.elapsed,
        "ops_per_s": len(scaled_ms) / (sum(scaled_ms) / 1e3),
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "above_p90": sum(1 for t in scaled_ms if t > p90),
        "peak_rss_mb": peak_rss_mb,
        "reference_ms_median": statistics.median(refs) * 1e3,
        "raw": {"ops_per_s": len(raw_ms) / (sum(raw_ms) / 1e3), "op_ms_p50": raw_p50,
                "op_ms_p90": raw_p90},
    })
    return out


def trace_overhead(runner: Runner, head: list[Op]) -> tuple[float, int]:
    """Run each op untraced and traced back to back, alternating which goes first.

    Returns the median over the ops of traced time over untraced time, minus
    1, and the number of ops whose two outputs differ.  Both runs of an op see
    the same machine speed, so no scaling is needed.
    """
    import layers

    clock = time.perf_counter
    ratios = []
    differ = 0
    for i, op in enumerate(head):
        outputs, times = {}, {}
        for wrapped in ((False, True) if i % 2 == 0 else (True, False)):
            tracer = layers.Tracer()
            if wrapped:
                tracer.install()
            try:
                t0 = clock()
                outputs[wrapped] = runner.run(op)
                times[wrapped] = clock() - t0
            finally:
                tracer.uninstall()
        ratios.append(times[True] / times[False])
        differ += outputs[False] != outputs[True]
    return statistics.median(ratios) - 1, differ


def traced(runner: Runner, pool: list[Op], args, import_ms: float) -> dict:
    """Short untraced warm-up, the timed loop under the trace, overhead probe.

    Self times are scaled to nominal machine speed per op, like the timed
    loop's figures.
    """
    import layers

    head = pool[:OVERHEAD_OPS]
    Loop(runner, head).go(0.0, len(head))
    tracer = layers.Tracer()
    loop = Loop(runner, pool)

    def mark(i: int) -> None:
        tracer.op_id = i

    tracer.install()
    try:
        loop.go(args.seconds, len(pool), on_op=mark, reference=True)
    finally:
        tracer.uninstall()
    overhead, differ = trace_overhead(runner, head)
    leftovers = layers.leftover_wrappers()

    n = len(loop.times)
    report_bytes = sum(len(text) * loop.uses[slot] for slot, (_, text) in enumerate(loop.first))
    metrics = layers.layer_metrics(tracer, n, {
        "cli.report_bytes": report_bytes / n,
        "cli.import_ms": import_ms,
        "trace.overhead_frac": overhead,
    }, op_scale=op_scales(loop))
    if args.spans is not None:
        tracer.dump(args.spans)
    out = _summary(pool, loop)
    out["attempted"] += 2 * len(head)
    out["failed"] += differ
    if differ:
        out["reasons"].append(f"{differ} ops printed something else when traced")
    if leftovers:
        out["reasons"].append(f"trace wrappers left installed: {leftovers}")
    out.update({"metrics": metrics, "spans": len(tracer), "leftover_wrappers": leftovers,
                "elapsed_s": loop.elapsed,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
    return out


def profile(runner: Runner, pool: list[Op]) -> dict:
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    loop = Loop(runner, pool)
    profiler.enable()
    loop.go(0.0, len(pool))
    profiler.disable()
    stats = pstats.Stats(profiler)
    rows = sorted(stats.stats.items(), key=lambda kv: kv[1][2], reverse=True)[:5]
    top = [{"function": f"{Path(file).name}:{line}({func})", "calls": nc,
            "tottime_s": tt, "cumtime_s": ct}
           for (file, line, func), (_, nc, tt, ct, _) in rows]
    out = _summary(pool, loop)
    out["profile_top5"] = top
    return out


if __name__ == "__main__":
    sys.exit(main())
