"""Print the sha256 of every artifact of every preset as {run: {artifact: sha256}} JSON.

Run it on two trees and compare the outputs to check that a change leaves
every artifact byte-identical:  PYTHONPATH=src python tests/artifact_digests.py
Each preset runs ``solve`` with ``interior`` and ``dump_powers``, ``solve``
with ``dense_error`` off (unless its dense fit needs the dense error) and
``verify``. report.json is hashed without ``timings`` and ``wall_time``.
"""
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


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "report.json":
        report = {k: v for k, v in json.loads(data).items() if k not in ("timings", "wall_time")}
        data = json.dumps(report, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


digests = {}
for preset in PRESET_NAMES:
    for run, (command, options) in RUNS.items():
        config = config_from_dict({"preset": preset, **options})
        if config.fit_quadrature == "dense" and not config.dense_error:
            continue
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(sys.stderr):
            command(config, out)
            digests[f"{preset}:{run}"] = {p.name: digest(p) for p in sorted(Path(out).iterdir())}
print(json.dumps(digests, indent=1, sort_keys=True))
