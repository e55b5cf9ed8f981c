"""The operations of each benchmark workload, drawn from a seed.

A workload is a fixed batch of operations, each one call of
``fpeit.cli.run_solve``, ``run_verify`` or ``run_powers``. Named presets are
fixed; the seed draws the parameters of the generated disk scenes (center,
r^2, contrast, shifted-cubic beta) and, in the runner, the order in which a
batch runs. Generated scenes keep N, P, S and Q at their defaults, so the
work of an operation does not change with the seed.

This module uses only the standard library until ``prepare`` is called, so
the set-up probe can time the ``fpeit`` import on its own.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("solve-dense", "artifact-write", "verify-oracles")

SOLVE_PRESETS = ("sinusoidal", "lorentzian-0.5", "radial-rings", "disk-0.6", "triangle")
VERIFY_PRESETS = ("sinusoidal", "lorentzian-0.5", "constant", "disk-0.6", "radial-rings", "triangle")
# dense error off, so the run skips the Q-ray rebuild and only writes artifacts
RINGS_DUMP = {"preset": "radial-rings", "dense_error": False, "interior": True, "dump_powers": True}


@dataclass(frozen=True)
class Op:
    """One benchmark operation."""

    kind: str        # "solve", "verify" or "powers": the fpeit.cli.run_* it calls
    label: str       # unique in its batch; fixed operations are keyed by it in reference.json
    doc: dict        # run config, as fpeit.presets.config_from_dict takes it
    generated: bool = False


def disk_scene(rng: random.Random) -> dict:
    """A background-10 scene with one disk inclusion and shifted-cubic data."""
    rho, phi = 0.6 * math.sqrt(rng.random()), 2.0 * math.pi * rng.random()
    disk = {"kind": "disk", "cx": rho * math.cos(phi), "cy": rho * math.sin(phi),
            "r2": rng.uniform(0.04, 0.2), "value": 10.0 * rng.uniform(2.0, 10.0)}
    return {"conductivity": {"variant": "scene", "background": 10.0, "shapes": [disk]},
            "boundary_data": {"expression": "shifted-cubic", "beta": rng.uniform(0.0, 0.8)}}


def _scenes(kind: str, count: int, rng: random.Random) -> list[Op]:
    return [Op(kind, f"{kind}:disk-scene-{i}", disk_scene(rng), generated=True)
            for i in range(1, count + 1)]


def batch(workload: str, rng: random.Random) -> list[Op]:
    """The fixed batch of a workload; generated scenes are drawn from ``rng``."""
    if workload == "solve-dense":
        return ([Op("solve", f"solve:{p}", {"preset": p}) for p in SOLVE_PRESETS]
                + _scenes("solve", 2, rng))
    if workload == "artifact-write":
        return ([Op("powers", "powers:sinusoidal", {"preset": "sinusoidal"})]
                + _scenes("powers", 1, rng)
                + [Op("solve", "solve:radial-rings:dump", dict(RINGS_DUMP))])
    if workload == "verify-oracles":
        return ([Op("verify", f"verify:{p}", {"preset": p}) for p in VERIFY_PRESETS]
                + _scenes("verify", 2, rng))
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def prepare(ops: list[Op]) -> list:
    """Set-up before the first operation: build each config, field and boundary data.

    Returns the RunConfig of each operation. Functions are looked up on
    ``fpeit.presets`` at call time, so a traced run sees these calls.
    """
    from fpeit import presets

    configs = []
    for op in ops:
        cfg = presets.config_from_dict(op.doc)
        presets.build_field(cfg)
        presets.build_boundary_data(cfg)
        configs.append(cfg)
    return configs
