"""sl2deform benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify-mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload, one table
    python3 bench/run.py --workload spin-rep-check --seed 1 --profile

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run, ``--profile`` the top 5 functions by
cProfile tottime over one pass of the pool.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from worker import NOMINAL_REFERENCE_MS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# setup_s is the median over fresh processes: the timed worker plus probes
# started before and after it, so one slow phase of the machine cannot
# dominate a run
SETUP_PROBES_EACH_SIDE = 4
WORKER_TIMEOUT_S = 160  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not run; nothing is reported."""


def spawn(args: list[str]) -> tuple[float, float, dict | None]:
    """Start a fresh worker; return raw and scaled set-up seconds and its result.

    The scaled set-up time is the raw one at nominal machine speed, from the
    reference kernel the worker runs right after its set-up.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT), *args]
    began = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(args)}")
    lines = out.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[0].startswith("ready "):
        raise BenchError(f"worker failed with exit {proc.returncode}: {' '.join(args)}")
    setup_s = float(lines[0].split()[1]) - began
    scaled_s = setup_s * NOMINAL_REFERENCE_MS / float(lines[1].split()[1])
    result = json.loads(lines[-1]) if len(lines) > 2 else None
    return setup_s, scaled_s, result


def run_workload(workload: str, seed: int, seconds: int, trace: int, profile: bool) -> dict:
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}"
    if profile:
        result = spawn(common + ["--mode", "profile"])[2]
        result["metrics"] = {}
        stem += "-profile"
    elif trace:
        spans = out_dir / f"{stem}-spans.json.gz"
        result = spawn(common + ["--trace", "1", "--spans", str(spans)])[2]
        stem += "-trace1"
    else:
        probe = common + ["--mode", "setup"]
        samples = [spawn(probe)[:2] for _ in range(SETUP_PROBES_EACH_SIDE)]
        raw_s, scaled_s, result = spawn(common + ["--trace", "0"])
        samples.append((raw_s, scaled_s))
        samples += [spawn(probe)[:2] for _ in range(SETUP_PROBES_EACH_SIDE)]
        result["setup_samples_raw_s"] = [raw for raw, _ in samples]
        setups = [scaled for _, scaled in samples]
        result["setup_samples_s"] = setups
        result["raw"]["setup_s"] = statistics.median(result["setup_samples_raw_s"])
        result["metrics"] = {
            "ops_per_s": {"value": result["ops_per_s"], "unit": "ops/s"},
            "op_ms_p50": {"value": result["op_ms_p50"], "unit": "ms"},
            "op_ms_p90": {"value": result["op_ms_p90"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        stem += "-trace0"
    result["correct"] = result["failed"] == 0 and not result["reasons"]
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def show(result: dict) -> None:
    """Human-readable lines; a program reading the result needs only the last JSON line."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {result['workload']} seed {result['seed']}: {attempted} ops "
          f"attempted, closed loop, one client; pool of {result['pool']} ops")
    for name, metric in result["metrics"].items():
        print(f"  {name:<52} {metric['value']:>14.6g} {metric['unit']}")
    if "raw" in result:
        print(f"  {'failed_frac':<52} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
        print(f"  times above are scaled to the nominal machine speed; the reference kernel "
              f"took {result['reference_ms_median']:.3f} ms here, "
              f"{NOMINAL_REFERENCE_MS} ms at nominal speed")
        raw = result["raw"]
        print(f"  raw wall clock: {raw['ops_per_s']:.4g} ops/s, p50 {raw['op_ms_p50']:.4g} ms, "
              f"p90 {raw['op_ms_p90']:.4g} ms, set-up {raw['setup_s']:.4g} s; "
              f"{result['above_p90']} samples above p90")
    for row in result.get("profile_top5", []):
        print(f"  {row['tottime_s']:9.4f} s tottime {row['calls']:>9} calls  {row['function']}")
    for reason in result["reasons"]:
        print(f"  FAILED: {reason}")
    print(f"  report_sha256 {result['digest']} (first {result['pool']} ops)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="cProfile one pass of the pool instead of timing it")
    args = parser.parse_args()
    if not (ROOT / "src" / "sl2deform" / "cli.py").is_file():
        print(f"bench: no sl2deform sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace, args.profile)
                   for w in workloads]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for result in results:
        show(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in results for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
