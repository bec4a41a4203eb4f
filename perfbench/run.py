"""slipmil benchmark: one workload per process, printed as one JSON line.

    python3 perfbench/run.py --workload fewshot-grid --seed 1 --seconds 10 \
        --trace 0

--trace 0 times the workload untraced and reports the end-to-end metrics.
--trace 1 runs a fixed number of passes untraced, then the same passes with
every public slipmil function wrapped in a span, and reports the per-layer
metrics; the spans are saved to .bench_out/spans-<workload>.npz.

The program is imported from src/ of the checkout this file sits in. The
last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The lines before it give the machine, the tail percentile and its sample
count, failures by kind, and per-slice figures.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread unless the caller sets one: the products here are N x 32
# by 32 x K, too small to gain from threads, and on a 2-core machine a
# threaded BLAS pool adds a start-up transient of about a second to a run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
LOOP_DEADLINE_S = 120  # no new pass starts after this, whatever min_passes
TAIL_LEVELS = (99, 95, 90, 75, 50)
REFERENCE_MS = 3.0  # nominal time of reference_kernel; see speed_scale
_REFERENCE_TEXT = "dense cribriform glands, hyperchromatic pleomorphic nuclei t03"
_REFERENCE_TOKEN = re.compile(r"[a-z0-9]+")


def tail_level(n: int) -> int:
    """Highest percentile with at least ten samples beyond it."""
    return next((p for p in TAIL_LEVELS if n * (100 - p) / 100 >= 10), 50)


def import_seconds() -> float:
    """Median time of `import slipmil` in a fresh interpreter, numpy
    already loaded."""
    code = ("import sys, time, numpy; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import slipmil; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                             check=True, capture_output=True, text=True,
                             timeout=60, cwd=ROOT)
        times.append(float(out.stdout))
    return statistics.median(times)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(str(ROOT / ".git" / ref))
        if not commit:
            packed = _read(str(ROOT / ".git" / "packed-refs"))
            commit = next((line.split()[0] for line in packed.splitlines()
                           if line.endswith(" " + ref)), "")
        head = commit
    return head or "unknown (not a git checkout)"


def machine(seed: int) -> dict:
    import numpy as np

    cpuinfo = _read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip()
                  for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        level = _read(str(index / "level"))
        kind = _read(str(index / "type"))
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(str(index / "size"))
        elif level == "1" and kind == "Data":
            caches["L1d"] = _read(str(index / "size"))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset") for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_passes(wl, tracer=None, passes=None, seconds=None, first=0):
    """Closed loop: time each op alone, check it, then start the next.

    With `passes`, run exactly that many, numbered from `first`; otherwise
    run whole passes until `seconds` have gone and at least `wl.min_passes`
    are done.
    """
    from workloads import Record

    records = []
    start = time.perf_counter()
    p = first
    while True:
        wl.begin_pass(p)
        for op in wl.pass_ops(p):
            rec = Record(op, p)
            if tracer is not None:
                tracer.op_id, tracer.enabled = len(records), True
            t0 = time.perf_counter()
            try:
                out = wl.run(op)
            except Exception as exc:  # a raising op is a failed op
                out = exc
            rec.latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.op_id, tracer.enabled = -1, False
            rec.ref = timed(reference_kernel)
            if isinstance(out, Exception):
                rec.fail(f"{type(out).__name__}: {out}", mismatch=False)
            else:
                try:
                    wl.check(op, out, rec)
                except Exception as exc:  # unreadable output is wrong output
                    rec.fail(f"check raised {type(exc).__name__}: {exc}",
                             mismatch=True)
            records.append(rec)
        p += 1
        elapsed = time.perf_counter() - start
        if passes is not None:
            if p >= first + passes:
                break
        elif (p >= wl.min_passes and elapsed >= seconds) \
                or elapsed >= LOOP_DEADLINE_S:
            break
    return records


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@functools.cache
def _reference_arrays():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.standard_normal((8, 32)), rng.standard_normal((16384, 32))


def reference_kernel() -> float:
    """Fixed work that calls no slipmil code, of the kinds the workloads do:
    an integer loop, small numpy products and reductions, tokenizing a
    string into a dict, and one pass over a 4 MB array. Its time says how
    fast the machine ran just then."""
    import numpy as np

    small, big = _reference_arrays()
    total = 0
    for i in range(6000):
        total += i * i
    for _ in range(120):
        total += float((small @ small.T).sum())
    for _ in range(100):
        total += float(np.linalg.norm(small.mean(axis=0)))
    vocab: dict[str, int] = {}
    for _ in range(150):
        total += sum(vocab.setdefault(word, len(vocab))
                     for word in _REFERENCE_TOKEN.findall(_REFERENCE_TEXT))
    return total + float((big @ small.T).max())


def speed_scale(refs: list) -> tuple[float, float]:
    """(REFERENCE_MS / median reference time, that median in ms).

    The speed of a shared machine drifts by tens of percent over minutes,
    and fresh processes land in different spells, so every time the run
    reports is multiplied by this factor: it is the time the op would have
    taken had the machine run the reference kernel in REFERENCE_MS.
    """
    ref_ms = 1e3 * statistics.median(refs)
    return REFERENCE_MS / ref_ms, ref_ms


def end_to_end(wl, records, setup_s: float,
               setup_refs: list) -> tuple[dict, dict]:
    import numpy as np

    ok = [r for r in records if r.error is None]
    lat = np.array([r.latency for r in ok]) * 1e3
    level = tail_level(wl.min_passes * len(wl.pass_ops(0)))
    # An op that repeats every pass (fewshot-grid, large-bag-scoring) counts
    # once, at its median latency over the passes, in the throughputs and
    # the median; a burst of contention from outside then moves them less.
    by_op: dict = {}
    for r in records:
        by_op.setdefault(r.op, []).append(r)
    busy = runs = work = 0.0
    typical = []
    for rs in by_op.values():
        good = [r for r in rs if r.error is None]
        busy += np.median([r.latency for r in rs])
        runs += len(good) / len(rs)
        work += sum(r.work for r in good) / len(rs)
        if good:
            typical.append(np.median([r.latency for r in good]) * 1e3)
    measured = {
        "setup_s": setup_s,
        "runs_per_s": float(runs / busy),
        "patches_per_s": float(work / busy),
        "op_p50_ms": float(np.median(typical)) if ok else 0.0,
        "op_tail_ms": float(np.percentile(lat, level)) if ok else 0.0,
    }
    scale, ref_ms = speed_scale([r.ref for r in records] + setup_refs)
    values = {name: value / scale if name.endswith("_per_s")
              else value * scale for name, value in measured.items()}
    values["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {"op_tail_ms": f"p{level}", "latency_n": len(ok),
            "passes": records[-1].pass_index + 1, "unscaled": measured,
            "reference_ms": ref_ms, "speed_scale": scale}
    return values, info


def summarize(wl, records) -> dict:
    failed = [r for r in records if r.error is not None]
    kinds: dict[str, int] = {}
    for r in failed:
        kinds[r.error] = kinds.get(r.error, 0) + 1
    return {
        "attempted": len(records),
        "failed": len(failed),
        "failed_frac": len(failed) / len(records),
        "wrong_outputs": sum(r.mismatch for r in records),
        "failures": kinds,
        "checks_run": wl.checks_run,
        "problems_outside_ops": wl.problems,
    }


def measure(wl, seconds: int, import_s: float) -> tuple[dict, list, dict]:
    wl.prepare()
    reference_kernel()  # make its arrays before the first timing
    setup, setup_refs = [], []
    for _ in range(SETUP_REPS):
        setup.append(timed(wl.setup))
        setup_refs.append(timed(reference_kernel))
    setup = statistics.median(setup)
    records = run_passes(wl, seconds=seconds)
    wl.final_check(records)
    values, info = end_to_end(wl, records, import_s + setup, setup_refs)
    info.update(setup_import_s=import_s, setup_workload_s=setup)
    return values, records, info


def trace(wl) -> tuple[dict, list, dict]:
    from tracing import Tracer

    wl.prepare()
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    wl.setup()
    tracer.enabled = False
    # Untraced and traced copies of each pass alternate, so a slow spell of
    # the machine falls on both sides of trace.overhead_frac alike.
    untraced, traced = [], []
    for p in range(wl.trace_passes):
        tracer.uninstall()
        untraced += run_passes(wl, passes=1, first=p)
        tracer.install()
        traced += run_passes(wl, tracer=tracer, passes=1, first=p)
    tracer.uninstall()
    base = sum(r.latency for r in untraced)
    op_wall = sum(r.latency for r in traced)
    values = tracer.layer_metrics(op_wall, op_wall / base - 1.0)
    tracer.write(str(ROOT / ".bench_out" / f"spans-{wl.name}.npz"))
    records = untraced + traced
    wl.final_check(records)
    split = tracer.layer_split()
    total = sum(split.values())
    info = {"spans": len(tracer.start), "passes": wl.trace_passes,
            "self_time_share": {k: round(v / total, 4) if total else 0.0
                                for k, v in split.items()},
            "not_found": tracer.missing,
            "hook_errors": tracer.counts["hook_errors"]}
    return values, records, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "slipmil" / "__init__.py").is_file():
        print(f"error: no slipmil package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import slipmil
    if Path(slipmil.__file__).resolve().parent != SRC / "slipmil":
        print(f"error: imported slipmil from {slipmil.__file__}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](work, args.seed, args.tiny)
    try:
        if args.trace:
            values, records, info = trace(wl)
        else:
            values, records, info = measure(wl, args.seconds,
                                            import_seconds())
        info.update(wl.detail(records))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = summarize(wl, records)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    print("machine: " + json.dumps(machine(args.seed), sort_keys=True))
    print(f"workload: {wl.name}")
    print("detail: " + json.dumps({**summary, **info}, sort_keys=True))
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": summary["wrong_outputs"] == 0 and not wl.problems,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
