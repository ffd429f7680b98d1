"""strangeci benchmark: four seeded closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

--trace 0 measures with tracing off and prints every end-to-end metric of
BENCHMARK.json.  Each workload is a fixed pool of operations made from the
seed; the run makes passes over it until the operations' summed time
reaches --seconds, and each operation's time is its mean over the passes
(its best, for operations much shorter than a millisecond).
Set-up time is the median over 3 to 7 fresh processes (import, cold
construction of every field the workload touches, input generation); peak
RSS is that of the measuring process.  Times are calibrated against a
fixed reference loop timed in the same processes and reported as on a core
where that loop takes 1 ms (see worker.py), so that a slow spell of a
shared machine shows less; the wall-clock figures are printed beside.

--trace 1 runs the workload once under span tracing and prints every
per-layer metric of BENCHMARK.json.  The spans go to perfbench/out/.

Every operation's output is checked, untimed; operations that raise or fail
their check are counted in "failed".  The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Workloads, their
layers and the predictions the per-layer metrics serve are in
perfbench/plan.json.  python3 perfbench/selftest.py checks the benchmark
itself at a tiny size.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census", "search", "decide", "gauss")
# setup_s is the median set-up time of fresh processes, taken as many before
# the measuring process as after it, so that they span the run: one each side,
# and up to three each side while those before sum to under SETUP_BUDGET_S / 2
SETUP_MAX_EACH_SIDE, SETUP_BUDGET_S = 3, 3.0
DEADLINE_S = 170.0  # the whole run must end within this


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# names under which each workload's three timing metrics are printed
ALIASES = {
    "census": ("samples_per_s", "sample_ms_p50", "sample_ms_tail"),
    "search": ("points_per_s", "search_ms_p50", "search_ms_tail"),
    "decide": ("decisions_per_s", "decision_ms_p50", "decision_ms_tail"),
    "gauss": ("tangents_per_s", "tangent_ms_p50", "tangent_ms_tail"),
}


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    base = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    before: list[float] = []
    raw_before: list[float] = []
    while not before or (len(before) < SETUP_MAX_EACH_SIDE and sum(raw_before) < SETUP_BUDGET_S / 2):
        b = worker(["--mode", "setup", *base], deadline)
        before.append(b["setup_s"])
        raw_before.append(b["raw_setup_s"])
    m = worker(["--mode", "measure", "--seconds", str(args.seconds), *base], deadline)
    after = [worker(["--mode", "setup", *base], deadline) for _ in before]
    setups = before + [m["setup_s"]] + [a["setup_s"] for a in after]
    metrics = {
        "throughput": (m["throughput"], "1/s"),
        "op_ms_p50": (m["op_ms_p50"], "ms"),
        "op_ms_tail": (m["op_ms_tail"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }
    per_s, p50, tail = ALIASES[args.workload]
    pct = f"p{m['tail_pct']:g}"
    raw_setups = raw_before + [m["raw_setup_s"]] + [a["raw_setup_s"] for a in after]
    lines = [
        f"{per_s} = {m['throughput']:.6g} 1/s ({m['work']} {m['item']}s per pass of {m['pool']} "
        f"operations; {m['passes']} passes, {m['attempted']} operations in {m['busy_s']:.3f} s busy)",
        f"{p50} = {m['op_ms_p50']:.6g} ms (n={m['pool']} operations, each its {m['timing']} over the passes)",
        f"{tail} = {m['op_ms_tail']:.6g} ms ({pct}, n={m['pool']}, {m['tail_beyond']} beyond)",
        f"setup_s = {metrics['setup_s'][0]:.6g} s (median of {' '.join(f'{s:.4f}' for s in setups)})",
        f"peak_rss_mb = {m['peak_rss_mb']:.6g} MB",
        f"failed_ops_frac = {m['failed'] / m['attempted']:.6g} ({m['failed']} of {m['attempted']})",
        f"outcome_digest = {m['digest']}",
        f"reference loop = {m['reading_ms']:.4f} ms ({'10th percentile' if m['timing'] == 'best' else 'median'} "
        f"of {m['readings']} readings; operation times are the {m['timing']} over the passes, scaled to 1 ms)",
        f"wall clock, unscaled: {per_s} = {m['raw_throughput']:.6g} 1/s, {p50} = {m['raw_op_ms_p50']:.6g} ms, "
        f"{tail} = {m['raw_op_ms_tail']:.6g} ms, setup_s = {statistics.median(raw_setups):.6g} s",
    ]
    return metrics, {"attempted": m["attempted"], "failed": m["failed"], "errors": m["errors"], "lines": lines}


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    base = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    t = worker(["--mode", "trace", *base], deadline)
    metrics = {name: tuple(v) for name, v in t["layers"].items()}
    lines = [f"{name} = {v:.6g} {unit}" for name, (v, unit) in metrics.items()]
    lines.append(f"spans = {t['spans']} (perfbench/out/spans-{args.workload}.npz)")
    return metrics, {"attempted": t["attempted"], "failed": t["failed"], "errors": t["errors"], "lines": lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for perfbench/selftest.py")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "strangeci" / "__init__.py").is_file():
        print(f"error: no strangeci sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = spec()["per_layer" if args.trace else "end_to_end"]
    try:
        metrics, info = (per_layer if args.trace else end_to_end)(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in info["lines"]:
        print(line)
    for err in info["errors"]:
        print(f"FAILED {err}")
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {
            d["name"]: {"value": metrics[d["name"]][0], "unit": metrics[d["name"]][1]}
            for d in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
