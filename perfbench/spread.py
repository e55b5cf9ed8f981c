"""Run the benchmark on several seeds and report each metric's median, quartiles and spread.

    python3 perfbench/spread.py --workload solve-dense --seeds 1 2 3 4 5 [--trace 0]

Spread is (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``. End-to-end metrics are shown against
their bound in BENCHMARK.json; the benchmark is steady when each spread
(except that of setup_s) is below a third of its bound. Every run's result
line and the summary go to ``perfbench/_results/spread-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        line = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **line})
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']}", flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = stats.quartiles(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "values": values}
        if name in bounds:
            summary[name].update(spread=stats.spread(values), bound=bounds[name])
        spread = summary[name].get("spread")
        shown = "" if spread is None else f"  spread {spread:.4f} (bound {bounds[name]})"
        print(f"{name:48s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}{shown}")
    out = ROOT / "perfbench" / "_results" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary},
                              indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
