"""Print the sha256 of every artifact of every preset as {run: {artifact: sha256}} JSON.

Run it on two trees and compare the outputs to check that a change leaves
every artifact byte-identical:  PYTHONPATH=src python tests/artifact_digests.py
With ``--against BASE.json`` (an earlier output) it prints instead each
``run artifact`` whose digest differs from BASE, or is missing from either
side, and exits 1 if there is any.
Each preset runs ``solve`` with ``interior`` and ``dump_powers``, ``solve``
with ``dense_error`` off (unless its dense fit needs the dense error) and
``verify``, then the first and the last again with ``"rule": "trapezoid"``.
A run that exits non-zero stops the tool with its name. report.json is
hashed without ``timings`` and ``wall_time``.
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
        "cheap": (run_solve, {"dense_error": False}), "verify": (run_verify, {}),
        "trapezoid-solve": (run_solve, {"interior": True, "dump_powers": True, "rule": "trapezoid"}),
        "trapezoid-verify": (run_verify, {"rule": "trapezoid"})}


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
for preset in PRESET_NAMES:
    for run, (command, options) in RUNS.items():
        config = config_from_dict({"preset": preset, **options})
        if config.fit_quadrature == "dense" and not config.dense_error:
            continue
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(sys.stderr):
            if command(config, out) != 0:  # a failed verify still writes verify.json
                sys.exit(f"{preset}:{run} exited non-zero")
            digests[f"{preset}:{run}"] = {p.name: digest(p) for p in sorted(Path(out).iterdir())}
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
