"""One fresh process of the benchmark: set up a workload, then measure or trace it.

Started by run.py; prints one JSON object as its last line of output.

  --mode setup    set up only; report the set-up time
  --mode measure  set up, then make passes over the workload's pool of
                  operations until their summed time reaches --seconds;
                  tracing off
  --mode trace    set up under the tracer, make one pass untraced and one
                  traced; report per-layer metrics and write every span to
                  perfbench/out/

Calibration.  On a shared machine the same code runs up to 1.7x slower for
stretches of seconds to minutes.  So the worker also times a fixed
pure-Python reference loop (REF_ITERS additions and multiplications of
small ints, about 1 ms) throughout the run, and scales every time to a
core on which that loop takes REF_MS.  Each workload times its operations
one of two ways (Workload.timing), and scales them by the matching
statistic of the reference readings:

  "mean"  an operation's time is its mean over the passes, scaled by the
          median reading.  For operations of a millisecond or more, which
          meet the machine's interruptions as the typical reading does.
  "best"  an operation's time is its fastest over the passes, scaled by
          the 10th-percentile reading.  For operations much shorter than
          a reading, most of which run uninterrupted.

A set-up time is one timing of typical speed, so it is scaled by the
median of readings taken just before and just after it.  The raw
wall-clock figures are reported beside the scaled ones.
"""

import time

REF_ITERS = 20000
REF_MS = 1.0  # the reference loop's time on a quiet core of a 2-vCPU x86-64 virtual machine


def reference_ms() -> float:
    """One timing of the reference loop, in ms."""
    t = time.perf_counter()
    x = 0
    for k in range(REF_ITERS):
        x += k * k
    return 1e3 * (time.perf_counter() - t)


REF_BEFORE_SETUP = [reference_ms() for _ in range(5)]
T0 = time.perf_counter()  # set-up time counts from here: imports, fields, inputs

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_ERRORS = 5


def import_strangeci():
    """Import the package from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import strangeci

    if Path(strangeci.__file__).resolve().parent != src / "strangeci":
        raise SystemExit(f"strangeci was imported from {strangeci.__file__}, not from {src}")


def percentile(sorted_vals: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(round(pct / 100 * len(sorted_vals), 9)))
    return sorted_vals[rank - 1], len(sorted_vals) - rank


CAL_EVERY_S = 0.1  # busy time between two rounds of reference readings


class Loop:
    """Closed-loop driver over a workload's pool: times each operation, checks it untimed.

    The first pass checks every output; later passes require the same output
    again.  best[i] is operation i's fastest time over the passes made,
    total[i] / count[i] its mean.  Before an operation, once CAL_EVERY_S of
    busy time has passed since the last round, the loop times the reference
    loop three times.
    """

    def __init__(self, workload):
        self.w = workload
        self.best = [math.inf] * workload.pool_size
        self.total = [0.0] * workload.pool_size
        self.count = [0] * workload.pool_size
        self.readings: list[float] = []  # reference_ms()
        self.since_reading = math.inf
        self.busy = 0.0
        self.attempted = 0
        self.work = 0
        self.failed = 0
        self.errors: list[str] = []
        self.outcomes: list[str] = []  # from the first pass

    def fail(self, i: int, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(f"op {i}: {message}")

    def call(self, i: int):
        """Run operation i; returns (input, result, error), error None on success."""
        if self.since_reading >= CAL_EVERY_S:
            self.readings += [reference_ms() for _ in range(3)]
            self.since_reading = 0.0
        inp = self.w.input(i)
        result, error = None, None
        t = time.perf_counter()
        try:
            result = self.w.run(inp)
        except Exception as exc:  # an operation that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        self.attempted += 1
        self.busy += dt
        self.since_reading += dt
        self.best[i] = min(self.best[i], dt)
        self.total[i] += dt
        self.count[i] += 1
        return inp, result, error

    def settle(self, i: int, inp, result, error) -> None:
        """Check the first output of operation i and account for it."""
        if error is None:
            error = self.w.check(inp, result)
        if error is None:
            self.work += self.w.work(inp, result)
        else:
            self.fail(i, error)
        self.outcomes.append(self.w.outcome(inp, result) if error is None else "failed")

    def repeat(self, i: int, inp, result, error) -> None:
        """A later output of operation i must equal the first."""
        if error is not None:
            self.fail(i, error)
        elif self.w.outcome(inp, result) != self.outcomes[i]:
            self.fail(i, "output differs when the operation is repeated")

    def one_pass(self) -> None:
        for i in range(self.w.pool_size):
            self.settle(i, *self.call(i))

    def op_times(self) -> tuple[list[float], float]:
        """Each operation's time in seconds by the workload's timing, and the matching reading in ms."""
        readings = sorted(self.readings)
        if self.w.timing == "best":
            return self.best, percentile(readings, 10.0)[0]
        return [t / n for t, n in zip(self.total, self.count)], statistics.median(readings)

    def run_for(self, seconds: float) -> int:
        """Passes over the pool until the busy time reaches seconds; returns passes begun."""
        self.one_pass()
        passes = 1
        while True:
            passes += 1
            for i in range(self.w.pool_size):
                if self.busy >= seconds and passes > self.w.min_passes:
                    return passes - (i == 0)
                self.repeat(i, *self.call(i))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(name: str, seed: int, tiny: bool) -> dict:
    """Build the workload; its set-up time, raw and calibrated by readings either side."""
    import workloads

    w = workloads.build(name, seed, tiny)
    raw_s = time.perf_counter() - T0
    ref = statistics.median(REF_BEFORE_SETUP + [reference_ms() for _ in range(5)])
    return {"workload": w, "setup_s": raw_s * REF_MS / ref, "raw_setup_s": raw_s}


def measure(name: str, seed: int, seconds: float, tiny: bool) -> dict:
    import workloads

    setup = set_up(name, seed, tiny)
    w = setup.pop("workload")
    loop = Loop(w)
    passes = loop.run_for(seconds)
    times, reading = loop.op_times()
    raw = sorted(times)
    scaled = sorted(t * REF_MS / reading for t in times)
    tail, beyond = percentile(scaled, w.tail_pct)
    return {
        **setup,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "errors": loop.errors,
        "item": w.item,
        "pool": w.pool_size,
        "passes": passes,
        "work": loop.work,
        "busy_s": loop.busy,
        "throughput": loop.work / sum(scaled),
        "op_ms_p50": 1e3 * statistics.median(scaled),
        "op_ms_tail": 1e3 * tail,
        "raw_throughput": loop.work / sum(raw),
        "raw_op_ms_p50": 1e3 * statistics.median(raw),
        "raw_op_ms_tail": 1e3 * percentile(raw, w.tail_pct)[0],
        "timing": w.timing,
        "reading_ms": reading,
        "readings": len(loop.readings),
        "tail_pct": w.tail_pct,
        "tail_beyond": beyond,
        "digest": workloads.digest(loop.outcomes),
    }


def trace(name: str, seed: int, tiny: bool) -> dict:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        w = workloads.build(name, seed, tiny)
    finally:
        tracer.uninstall()
    untraced = Loop(w)
    untraced.one_pass()

    traced = Loop(w)
    pending = []
    tracer.install()
    try:
        for i in range(w.pool_size):
            tracer.op_id = i
            pending.append((i, *traced.call(i)))
    finally:
        tracer.op_id = -1
        tracer.uninstall()
    for args in pending:  # checks run untraced, after the pass
        traced.settle(*args)
    del pending

    overhead = traced.busy / untraced.busy - 1.0
    metrics = tracing.layer_metrics(tracer, overhead)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}.npz")
    return {
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "errors": untraced.errors + traced.errors,
        "spans": len(tracer.start),
        "layers": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    import_strangeci()
    if args.mode == "setup":
        out = set_up(args.workload, args.seed, args.tiny)
        del out["workload"]
    elif args.mode == "measure":
        out = measure(args.workload, args.seed, args.seconds, args.tiny)
    else:
        out = trace(args.workload, args.seed, args.tiny)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
