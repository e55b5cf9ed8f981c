"""Correctness gate: checks every operation's outputs after the timed region.

Fixed operations are compared with the reference recorded at the seed
commit (``reference.json``: E, basis size, dropped labels). Generated scenes
must give a finite E no larger than the data norm and a full basis. A
verify run must report no failed check. A powers dump must have the header
and row count of its table, and its values read back must equal the table
built in memory.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

POWERS_HEADER = "degree,seed,ray,step,x,y,ReZ,ImZ"
# E may move by rounding only, e.g. with a different BLAS thread count
E_RTOL, E_ATOL = 1e-8, 1e-13


class GateError(Exception):
    """An operation's output failed its correctness check."""


def load_reference(path) -> dict:
    with open(path) as fh:
        return json.load(fh)["operations"]


def solve_summary(report: dict) -> dict:
    """The part of a solve report.json the reference records."""
    return {"error": report["error"], "basis_size": report["basis_size"],
            "dropped": [label for label, _ in report["dropped"]]}


def compare_with_reference(summary: dict, ref: dict) -> None:
    e, e_ref = summary["error"], ref["error"]
    if not abs(e - e_ref) <= E_RTOL * abs(e_ref) + E_ATOL:
        raise GateError(f"E = {e!r}, reference {e_ref!r}")
    if summary["basis_size"] != ref["basis_size"]:
        raise GateError(f"basis size {summary['basis_size']}, reference {ref['basis_size']}")
    if summary["dropped"] != ref["dropped"]:
        raise GateError(f"dropped labels {summary['dropped']}, reference {ref['dropped']}")


def check_invariants(summary: dict, config) -> None:
    """Generated scenes: E finite and at most the data norm, and no function dropped."""
    from fpeit import boundary_solver, presets

    e = summary["error"]
    theta = 2.0 * math.pi * np.arange(config.Q) / config.Q
    data = np.asarray(presets.build_boundary_data(config)(theta), dtype=float)
    norm = boundary_solver.error_norm(data, np.zeros_like(data))
    if not (math.isfinite(e) and e <= norm):
        raise GateError(f"E = {e!r} is not finite or exceeds the data norm {norm!r}")
    full = min(2 * config.N + 1, config.P)
    if summary["basis_size"] != full or summary["dropped"]:
        raise GateError(f"basis of {summary['basis_size']} functions (full is {full}), "
                        f"dropped {summary['dropped']}")


def expected_table(config):
    """The formal-power table run_powers and run_solve build for this config."""
    from fpeit import formal_powers, presets, pseudoanalytic

    field = presets.build_field(config)
    mesh = pseudoanalytic.radial_mesh(config.P, config.S, rim_grading=config.rim_grading,
                                      corner_angles=presets.corner_angles_for(config, field))
    seq = pseudoanalytic.build_sequence(field, mesh)
    return formal_powers.build_table(seq, mesh, config.N, rule=config.rule)


def _seed_code(text: str) -> float:
    codes = {"1": 0.0, "i": 1.0}
    if text not in codes:
        raise ValueError(f"unknown seed {text!r}")
    return codes[text]


def check_powers_csv(path, table) -> None:
    """Header, row count and exact values of a powers.csv dump against ``table``."""
    with open(path) as fh:
        header = fh.readline().strip()
    if header != POWERS_HEADER:
        raise GateError(f"powers.csv header {header!r}")
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, converters={1: _seed_code}, ndmin=2)
    except ValueError as exc:
        raise GateError(f"powers.csv does not parse: {exc}") from exc
    Z = np.stack([table.Z1, table.Zi])             # (seed, degree, ray, step)
    if rows.shape != (Z.size, 8):
        raise GateError(f"powers.csv has {rows.shape[0]} rows, expected {Z.size}")
    # C order of (seed, degree, ray, step) is the dump's row order
    seed, degree, ray, step = (i.ravel() for i in np.indices(Z.shape))
    x, y = table.mesh.xy()
    expected = np.column_stack([degree, seed, ray, step, x[ray, step], y[ray, step],
                                Z.real.ravel(), Z.imag.ravel()])
    bad = int(np.count_nonzero(rows != expected))
    if bad:
        raise GateError(f"powers.csv differs from the in-memory table in {bad} values")


def _count_rows(path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def check(op, config, out: Path, reference: dict) -> None:
    """Raise GateError unless the outputs of ``op`` in ``out`` are correct."""
    if op.kind == "verify":
        with open(out / "verify.json") as fh:
            failed = json.load(fh)["failed"]
        if failed:
            raise GateError(f"verify failed: {failed}")
        return
    if op.kind == "powers":
        check_powers_csv(out / "powers.csv", expected_table(config))
        return
    with open(out / "report.json") as fh:
        summary = solve_summary(json.load(fh))
    if op.generated:
        check_invariants(summary, config)
    elif op.label in reference:
        compare_with_reference(summary, reference[op.label])
    else:
        raise GateError(f"no reference recorded for {op.label}")
    if config.interior and _count_rows(out / "interior.csv") != config.P * (config.S + 1):
        raise GateError("interior.csv row count differs from the mesh")
    if config.dump_powers:
        check_powers_csv(out / "powers.csv", expected_table(config))
