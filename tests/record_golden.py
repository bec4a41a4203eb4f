"""Record the golden output digests: a sha256 of every file and every stdout
that a fixed set of `slipmil` commands writes.

    python tests/record_golden.py

tests/test_golden.py runs the same commands through `cli.main` and compares
their digests with tests/golden/digests.json. A report is hashed without its
`created_at` line, and its fields are kept too (a scalar as its value, a
list as a digest), so a mismatch names the first differing key path and the
largest difference among the numbers kept. Re-record only when a change is
meant to alter outputs, and list the files it changes with that change.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"
NEEDLE_SEEDS = (0, 1, 2)
POOLINGS = ("slip", "topk", "avg")
SHOTS = (1, 2, 4, 8)
TAUS = ("0.01", "0.001")
GRID = """\
data = needle0.bin
classes = needle0.bin.classes.txt
tissues = needle0.bin.tissues.txt,needle1.bin.tissues.txt
poolings = slip,topk,avg,zero
shots = 1,4
seeds = 0,1
"""
CREATED_AT = re.compile(rb'"created_at": "[^"]*", ')


def commands() -> list:
    """(label, argv) of every command, in order; each writes `label`'s
    stdout and the files its --out names."""
    cmds = [(f"needle{seed}.bin", ["synth", "--preset", "needle", "--seed",
                                   str(seed), "--out", f"needle{seed}.bin"])
            for seed in NEEDLE_SEEDS]
    cmds.append(("easy.bin", ["synth", "--preset", "separable-easy",
                              "--seed", "3", "--out", "easy.bin"]))
    cmds.append(("spec.bin", [
        "synth", "--num-classes", "2", "--num-tissues", "3", "--n-min", "5",
        "--n-max", "9", "--bags-per-class", "4", "--dv", "16", "--dt", "8",
        "--seed", "7", "--out", "spec.bin"]))
    for seed in NEEDLE_SEEDS:
        data = f"needle{seed}.bin"
        for pooling in POOLINGS:
            for shots in SHOTS:
                for tau in TAUS:
                    out = f"train-{seed}-{pooling}-{shots}-{tau}.json"
                    cmds.append((out, [
                        "train", "--data", data, "--tissues",
                        data + ".tissues.txt", "--classes",
                        data + ".classes.txt", "--pooling", pooling,
                        "--shots", str(shots), "--tau", tau, "--seed",
                        str(seed), "--out", out]))
    for pooling in POOLINGS:
        cmds.append((f"eval-{pooling}", [
            "eval", "--data", "needle0.bin", "--report",
            f"train-0-{pooling}-4-0.01.json"]))
    cmds.append(("eval-zero-needle", [
        "eval", "--data", "needle0.bin", "--zero-shot", "--classes",
        "needle0.bin.classes.txt"]))
    cmds.append(("eval-zero-easy", [
        "eval", "--data", "easy.bin", "--zero-shot", "--classes",
        "easy.bin.classes.txt", "--tau", "0.001"]))
    cmds.append(("rows.json", ["ablate", "--grid", "grid.cfg", "--out",
                               "rows.json"]))
    cmds.append(("bag0", [
        "heatmap", "--data", "needle0.bin", "--bag", "0", "--class-index",
        "0", "--tissues", "needle0.bin.tissues.txt", "--classes",
        "needle0.bin.classes.txt", "--out-prefix", "bag0"]))
    return cmds


def run_commands(workdir) -> dict:
    """Run every command through `cli.main` in `workdir`; returns each
    output's bytes by name: the files written, and `<label>.stdout`."""
    from slipmil.cli import main

    workdir = Path(workdir)
    (workdir / "grid.cfg").write_text(GRID, encoding="utf-8")
    before = {p.name for p in workdir.iterdir()}
    outputs = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for label, argv in commands():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"{argv} exited {code}: {err.getvalue()}")
            outputs[label + ".stdout"] = out.getvalue().encode("utf-8")
    finally:
        os.chdir(cwd)
    for path in sorted(workdir.iterdir()):
        if path.name not in before:
            outputs[path.name] = path.read_bytes()
    return outputs


def is_report(name: str) -> bool:
    return name.startswith("train-") and name.endswith(".json")


def report_fields(data: bytes) -> dict:
    """A report's fields by key path: a scalar as itself, a list as the
    sha256 of its JSON text; no `created_at`."""
    doc = json.loads(data)
    doc.pop("created_at")
    fields = {}

    def walk(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else key, value[key])
        elif isinstance(value, list):
            text = json.dumps(value).encode("utf-8")
            fields[prefix] = "sha256:" + hashlib.sha256(text).hexdigest()[:16]
        else:
            fields[prefix] = value

    walk("", doc)
    return fields


def digest(name: str, data: bytes) -> str:
    if is_report(name):
        data, found = CREATED_AT.subn(b"", data, count=1)
        assert found == 1, f"{name}: no created_at"
    return hashlib.sha256(data).hexdigest()


def record(outputs: dict) -> dict:
    return {
        "files": {name: digest(name, data)
                  for name, data in sorted(outputs.items())},
        "reports": {name: report_fields(data)
                    for name, data in sorted(outputs.items())
                    if is_report(name)},
    }


def mismatches(outputs: dict, golden: dict) -> list:
    """One line per output whose digest differs from `golden`'s, or that
    one side lacks."""
    lines = []
    files = golden["files"]
    for name in sorted(set(files) | set(outputs)):
        if name not in outputs:
            lines.append(f"{name}: not written")
        elif name not in files:
            lines.append(f"{name}: written, but not in the golden digests")
        elif digest(name, outputs[name]) != files[name]:
            lines.append(f"{name}: digest differs"
                         + _report_difference(outputs[name],
                                              golden["reports"].get(name)))
    return lines


def _report_difference(data: bytes, expected) -> str:
    if expected is None:
        return ""
    got = report_fields(data)
    paths = [p for p in sorted(set(got) | set(expected))
             if got.get(p) != expected.get(p)]
    if not paths:
        return "; every field agrees, so the layout changed"
    gaps = [abs(got[p] - expected[p]) for p in paths
            if all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in (got.get(p), expected.get(p)))]
    largest = (f"largest difference {max(gaps)!r}" if gaps else
               "no differing number is kept, only list digests")
    return (f"; first differing key path {paths[0]!r} "
            f"({len(paths)} differ); {largest}")


def main() -> int:
    sys.path.insert(0, str(GOLDEN.parent.parent.parent / "src"))
    with tempfile.TemporaryDirectory() as work:
        golden = record(run_commands(work))
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden['files'])} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
