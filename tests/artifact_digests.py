"""Print the sha256 of every artifact of every preset as {run: {artifact: sha256}} JSON.

Run it on two trees and compare the outputs to check that a change leaves
every artifact byte-identical:  PYTHONPATH=src python tests/artifact_digests.py
With ``--against BASE.json`` (an earlier output) it prints instead each
``run artifact`` whose digest differs from BASE, or is missing from either
side, and exits 1 if there is any.
Each preset runs ``solve`` with ``interior`` and ``dump_powers``, ``solve``
with ``dense_error`` off and ``verify``. The slab construction, which no
preset uses, runs the first ``solve`` only (``verify`` fails on its fields):
``piecewise-of`` of the lorentzian beta = 0.5 conductivity at M = 1 and 16
with both interpolants, and the README ``piecewise`` example. A run that
exits non-zero stops the tool with its name. report.json is hashed without
``timings`` and ``wall_time``.
"""
import argparse
import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from fpeit.cli import run_solve, run_verify
from fpeit.presets import PRESET_NAMES, config_from_dict

RUNS = {"solve": (run_solve, {"interior": True, "dump_powers": True}),
        "cheap": (run_solve, {"dense_error": False}), "verify": (run_verify, {})}
SLABS = {f"piecewise-of-M{M}-{interpolant}": {
    "conductivity": {"variant": "piecewise-of", "source": {"variant": "lorentzian", "beta": 0.5},
                     "M": M, "interpolant": interpolant},
    "boundary_data": {"case": "lorentzian", "beta": 0.5}}
    for M in (1, 16) for interpolant in ("linear", "cubic")}
SLABS["piecewise"] = {
    "conductivity": {"variant": "piecewise", "edges": [-1, 0, 1], "K": 2.0, "samples": [
        {"chi": -0.5, "ys": [-0.8, 0.8], "sigmas": [2.0, 3.0]},
        {"chi": 0.5, "ys": [-0.8, 0.0, 0.8], "sigmas": [3.0, 2.5, 2.0]}]},
    "boundary_data": {"expression": "shifted-cubic", "beta": 0.0}}
JOBS = ([(preset, {"preset": preset}, RUNS) for preset in PRESET_NAMES]
        + [(name, doc, {"solve": RUNS["solve"]}) for name, doc in SLABS.items()])


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "report.json":
        report = {k: v for k, v in json.loads(data).items() if k not in ("timings", "wall_time")}
        data = json.dumps(report, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


parser = argparse.ArgumentParser(description="sha256 of every preset artifact")
parser.add_argument("--against", metavar="BASE.json",
                    help="list the artifacts whose digest differs from BASE")
args = parser.parse_args()

digests = {}
for name, doc, runs in JOBS:
    for run, (command, options) in runs.items():
        config = config_from_dict({**doc, **options})
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(sys.stderr):
            if command(config, out) != 0:  # a failed verify still writes verify.json
                sys.exit(f"{name}:{run} exited non-zero")
            digests[f"{name}:{run}"] = {p.name: digest(p) for p in sorted(Path(out).iterdir())}
if args.against is None:
    print(json.dumps(digests, indent=1, sort_keys=True))
    sys.exit(0)
base = json.loads(Path(args.against).read_text())
changed = [f"{run} {name}" for run in sorted(set(digests) | set(base))
           for name in sorted(set(digests.get(run, {})) | set(base.get(run, {})))
           if digests.get(run, {}).get(name) != base.get(run, {}).get(name)]
for line in changed:
    print(line)
sys.exit(1 if changed else 0)
