"""Record the fewshot-grid reference: one pass of the grid at the reference
seed, with each op's exit code, metrics and trained context.

    python3 perfbench/record_reference.py

fewshot-grid compares later runs with this file (metrics exactly, contexts
to 1e-9). Re-record only when a change to the program is meant to alter
these results, and say so with the change.
"""
from __future__ import annotations

import json
import shutil
import sys

from run import ROOT, SRC

sys.path.insert(0, str(SRC))

from workloads import (  # noqa: E402
    REFERENCE_FILE, REFERENCE_SEED, FewshotGrid)


def main() -> int:
    work = ROOT / ".bench_work" / "record-reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = FewshotGrid(work, REFERENCE_SEED, tiny=False)
        wl.choose_datasets()
        wl.setup()
        ops = []
        for op in wl.pass_ops(0):
            rc, _, _ = wl.run(op)
            entry = dict(zip(("pooling", "shots", "seed", "tau"), op), rc=rc)
            if rc == 0:
                with open(work / "report.json", encoding="utf-8") as fh:
                    doc = json.load(fh)
                entry.update(metrics=doc["metrics"],
                             context=doc["context"]["vectors"])
            ops.append(entry)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump({"seed": REFERENCE_SEED, "epochs": wl.epochs, "ops": ops},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(ops)} ops to {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
