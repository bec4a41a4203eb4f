"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json and both trace modes it checks that the
result line has the four keys, that every declared metric is emitted once
with its declared unit, and that the workload's output checks ran. It then
feeds each independent check a wrong output and expects it flagged, and
checks that the benchmark refuses to run where there is no program.
Exit code 0 when everything holds.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180


def run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, "--workload", workload, "--seed", 0, "--seconds", 1,
               "--trace", trace, "--tiny")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(next(line for line in lines
                             if line.startswith("detail: "))[8:])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"attempted={result.get('attempted')}")
    if detail["checks_run"] < 1:
        problems.append(f"{where}: no output check ran")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"{where}: metrics {sorted(set(metrics) ^ set(declared))}"
                        " emitted or declared but not both")
    for name, unit in declared.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{where}: {name} unit {entry.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
    return problems


def check_negative_controls() -> list[str]:
    """Each independent check must flag a wrong output."""
    sys.path.insert(0, str(HERE))
    import checks

    problems = []
    rng = np.random.default_rng(0)
    patches = rng.standard_normal((50, 8))
    patches /= np.linalg.norm(patches, axis=1, keepdims=True)
    tissues = rng.standard_normal((4, 8))
    classes = rng.standard_normal((3, 8))
    cols = checks.slip_columns(patches, tissues, classes, 0.5)
    if checks.pooled_mismatch(cols, cols) is not None:
        problems.append("pooled_mismatch flags identical columns")
    if checks.pooled_mismatch(cols + 1e-7, cols) is None:
        problems.append("pooled_mismatch misses a 1e-7 error")

    class Bag:  # the attributes same_bags reads from a slipmil WsiBag
        def __init__(self, data, coords, label, pid):
            self.patches = type("M", (), {"data": data})()
            self.coords, self.label, self.patient_id = coords, label, pid

    coords = np.zeros((50, 2), dtype=np.uint32)
    parsed = [(patches, coords, 1, "p")]
    if checks.same_bags([Bag(patches, coords, 1, "p")], parsed) is not None:
        problems.append("same_bags flags identical bags")
    wrong = patches.copy()
    wrong[3, 2] = np.nextafter(wrong[3, 2], 2.0)
    if checks.same_bags([Bag(wrong, coords, 1, "p")], parsed) is None:
        problems.append("same_bags misses a one-ulp change")

    doc = {"metrics": {"class_averaged_accuracy": 0.5},
           "context": {"vectors": [[[0.25, 0.5]]]}}
    expected = {"rc": 0, "metrics": {"class_averaged_accuracy": 0.5},
                "context": [[[0.25, 0.5]]]}
    if checks.reference_mismatch(doc, expected) is not None:
        problems.append("reference_mismatch flags an identical run")
    for key, value in (("metrics", {"class_averaged_accuracy": 0.75}),
                       ("context", [[[0.25, 0.5 + 1e-8]]])):
        if checks.reference_mismatch(doc, {**expected, key: value}) is None:
            problems.append(f"reference_mismatch misses a change in {key}")
    return problems


def check_refuses_without_program() -> list[str]:
    """Where only BENCHMARK.json and the benchmark exist, it must fail."""
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "--workload", "synth-roundtrip", "--seed", 0,
                   "--seconds", 1, "--trace", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        return ["benchmark ran without the program"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_negative_controls() + check_refuses_without_program()
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, workload["name"], trace)
    for problem in problems:
        print("FAIL", problem)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
