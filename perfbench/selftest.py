"""Self-test of the benchmark at a tiny size.

  python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed and that plan.json covers it. It
runs every workload with --tiny, traced and untraced, and checks that every
declared metric is emitted with its declared unit and that nothing fails.
It checks that a census run gives the same outcomes in two processes. It
feeds each workload's check a deliberately corrupted output and requires
the failure to be counted. Finally, it requires run.py to fail without a
result in a directory that holds only BENCHMARK.json and perfbench/.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def ok(message: str) -> None:
    print(f"ok   {message}")


def check_spec(spec: dict, plan: dict) -> None:
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)) or not all(NAME.match(n) for n in names):
        fail("names must be unique and well formed")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"workload entry {w}")
        if w["name"] not in plan["workloads"]:
            fail(f"plan.json has no entry for workload {w['name']}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"end_to_end entry {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per_layer entry {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            fail(f"metric entry {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be an end-to-end metric in s, lower is better")
    if setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must have the largest bound")
    predicted = {n for row in plan["predictions"] for n in row["layer_metrics"]}
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in predicted]
    if missing:
        fail(f"per-layer metrics without a prediction in plan.json: {missing}")
    ok("BENCHMARK.json is well formed and plan.json covers every workload and per-layer metric")


def run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_emitted(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run(workload, trace)
            if code != 0 or not lines:
                fail(f"{workload} --trace {trace} exited {code}")
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} --trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{workload} --trace {trace}: {lines}")
            declared = {m["name"]: m["unit"] for m in spec[section]}
            emitted = result["metrics"]
            if set(emitted) != set(declared):
                fail(f"{workload} --trace {trace}: emitted {sorted(set(emitted) ^ set(declared))} differ")
            for name, unit in declared.items():
                value = emitted[name]["value"]
                if emitted[name]["unit"] != unit or isinstance(value, bool) or not isinstance(value, (int, float)):
                    fail(f"{workload} --trace {trace}: {name} = {emitted[name]}")
                if trace == 0 and not value > 0:
                    fail(f"{workload}: end-to-end metric {name} is {value}")
            ok(f"{workload} --trace {trace}: all {len(declared)} {section} metrics emitted with units")


def digest_of(lines: list[str]) -> str:
    return next(line for line in lines if line.startswith("outcome_digest"))


def check_deterministic() -> None:
    first = digest_of(run("census", 0, seed=5)[1])
    second = digest_of(run("census", 0, seed=5)[1])
    other = digest_of(run("census", 0, seed=6)[1])
    if first != second:
        fail(f"census outcomes differ between two runs of one seed: {first} vs {second}")
    if first == other:
        fail("census outcomes do not depend on the seed")
    ok("census outcomes repeat across processes for one seed and change with the seed")


def corrupt(w, inp, result):
    """A wrong output of the same shape as result."""
    from strangeci import geometry, gf

    if w.name == "census":
        rec = next((r for r in result["records"] if r.singular_points), None)
        if rec is None:
            return None
        m, pt = rec.singular_points[0]
        smooth = next((a for a in geometry.enumerate_points(pt.field, rec.system.n)
                       if rec.system.on_zero_set(a) and not geometry.is_singular_at(rec.system, a)
                       and a.minimal_subfield_degree() == m), None)
        if smooth is None:
            return None
        rec.singular_points[0] = (m, smooth)
        return result
    if w.name == "search":
        return [(1, geometry.ProjectivePoint(gf.make_field(inp.field.p), [1] + [0] * inp.n))]
    if w.name == "decide":
        return not result if inp.kind != "locus" else None
    image, tangent = result
    return geometry.ProjectivePoint(image.field, [1] * len(image.coords)), tangent


def check_corruption_counted() -> None:
    sys.path.insert(0, str(HERE))
    import worker

    worker.import_strangeci()
    import workloads

    for name in workloads.WORKLOADS:
        w = workloads.build(name, 3, tiny=True)
        bad = []
        for i in range(w.pool_size):
            inp = w.input(i)
            wrong = corrupt(w, inp, w.run(inp))
            if wrong is not None:
                bad.append((inp, wrong))
            if len(bad) == 3:
                break
        if not bad:
            fail(f"{name}: no operation to corrupt")
        loop = worker.Loop(w)
        for i, (inp, wrong) in enumerate(bad):
            loop.attempted += 1
            loop.settle(i, inp, wrong, None)
        if loop.failed != len(bad):
            fail(f"{name}: {len(bad) - loop.failed} of {len(bad)} corrupted outputs passed the check")
        ok(f"{name}: {len(bad)} corrupted outputs counted as failed ({loop.errors[0]})")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, lines = run("census", 0, cwd=bare)
        if code == 0 or any(line.startswith("{") for line in lines):
            fail(f"run.py without the sources exited {code} with {lines}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    ok(f"run.py without the sources exits {code} and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plan = json.loads((HERE / "plan.json").read_text())
    check_spec(spec, plan)
    check_emitted(spec)
    check_deterministic()
    check_corruption_counted()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
