"""Record the reference outputs of the fixed solve operations into reference.json.

    python3 perfbench/record_reference.py

Runs every fixed ``solve`` operation of every workload once and stores E,
basis size and dropped labels, with the commit they came from. Run it only
when a change is meant to alter these results, and say why in CHANGES.md.
"""

import json
import os
import random
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import gate, run, workloads  # noqa: E402


def main() -> None:
    run.cap_threads(os.environ)
    from fpeit import cli, presets

    work = ROOT / "perfbench" / "_work" / "reference"
    operations = {}
    try:
        for name in workloads.WORKLOADS:
            for op in workloads.batch(name, random.Random(0)):
                if op.kind != "solve" or op.generated or op.label in operations:
                    continue
                out = work / op.label.replace(":", "-")
                config = presets.config_from_dict(op.doc)
                if cli.run_solve(config, out) != 0:
                    raise SystemExit(f"{op.label} failed")
                with open(out / "report.json") as fh:
                    operations[op.label] = gate.solve_summary(json.load(fh))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {"commit": run._commit(), "operations": operations}
    with open(ROOT / "perfbench" / "reference.json", "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
