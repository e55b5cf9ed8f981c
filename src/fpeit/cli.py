"""Command-line front end: solve, verify, and powers subcommands.

Exit codes: 0 success, 1 verification threshold breach, 2 validation error,
3 numerical failure. The log level is taken from the FPEIT_LOG environment
variable (error, warn, info, debug).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from .boundary_solver import error_norm, reconstruct_interior, solve_dirichlet
from .errors import DomainError, ValidationError
from .formal_powers import build_table, pseudoanalyticity_check, rows, write_csv, write_powers_csv
from .presets import (
    PRESET_NAMES,
    RunConfig,
    build_boundary_data,
    build_field,
    config_from_dict,
    corner_angles_for,
    exact_case_for,
    load_config,
)
from .pseudoanalytic import (
    build_sequence,
    limit_construction,
    radial_mesh,
    successor_residual,
    successor_residual_mesh,
)
from .verification import divergence_residual, interior_points

# E below this fraction of the data norm is rounding noise, and so is its quadrature gap
GAP_FLOOR = 1e-12

# verify's standard: its thresholds and the spacing of its finite-difference stencils
THRESHOLDS = {
    "divergence": 1e-3,
    "vekua_ratio": 1.2,          # residual decrease factor under mesh doubling
    "successor_mesh_ratio": 1.2,
    "successor_cartesian": 1e-6,
    "residual_floor": 1e-10,     # below this a residual is rounding noise, no ratio asked
}
FD_H = 1e-4

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging():
    level = os.environ.get("FPEIT_LOG", "warn").lower()
    if level not in _LOG_LEVELS:
        print(f"fpeit: ignoring unknown FPEIT_LOG={level!r} "
              f"(expected one of {sorted(_LOG_LEVELS)})", file=sys.stderr)
        level = "warn"
    logging.basicConfig(level=_LOG_LEVELS[level],
                        format="%(levelname)s %(name)s: %(message)s")


def run_solve(config: RunConfig, out_dir) -> int:
    """Run the pipeline and write coefficients.csv, boundary_fit.csv, report.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    field = build_field(config)
    data_fn = build_boundary_data(config)
    t0 = time.monotonic()
    res = solve_dirichlet(field, data_fn, N=config.N, P=config.P, S=config.S,
                          Q=config.Q, dense_error=config.dense_error)
    fit = res.fit
    if config.interior:
        u = reconstruct_interior(res)
    t_write = time.monotonic()
    write_csv(out / "coefficients.csv", ["alpha", "b"], [rows(fit.labels, fit.coefficients)])
    th, d, f = res.theta_dense, res.data_dense, res.fit_dense  # arc length l equals theta
    write_csv(out / "boundary_fit.csv", ["theta", "l", "data", "fit", "residual"],
              [rows(th, th, d, f, d - f)])
    if config.interior:
        write_csv(out / "interior.csv", ["x", "y", "u"], [rows(*res.mesh.xy(), u)])
    seq = build_sequence(field, res.mesh)
    if config.dump_powers:
        table = build_table(seq, res.mesh, config.N)
        write_powers_csv(table, out / "powers.csv")
    timings = {**res.timings, "write": time.monotonic() - t_write}

    significant = int(np.sum(np.abs(fit.coefficients) > 1e-3))
    U = res.basis.functions
    defect = float(np.max(np.abs((U * res.basis.weights) @ U.T - np.eye(len(U)))))
    E_half = error_norm(res.data_dense[::2], res.fit_dense[::2])  # even dense points: the Q/2 grid
    floor = GAP_FLOOR * error_norm(res.data_dense, np.zeros_like(res.data_dense))
    gap = abs(fit.error - E_half) / fit.error if config.Q % 2 == 0 and fit.error > floor else None
    top = np.isin(fit.labels, [config.N - 1, config.N, 2 * config.N, 2 * config.N + 1])
    diagnostics = {
        "orthonormality_defect": defect,
        "min_kept_norm_ratio": float(res.basis.norm_ratios.min()),
        # labels of the seed-1 and seed-i powers of the top two degrees
        "coefficient_tail": float(np.linalg.norm(fit.coefficients[top])),
        # how many digits of E are quadrature error
        "error_quadrature_gap": gap,
        # one kept function per fit node, so the node fit interpolates the data
        "basis_saturated": len(res.basis.labels) == config.P == 2 * config.N + 1,
        # sigma is not separable: its period-1 sequence only approximates the reduction
        "limit_construction": limit_construction(field),
    }
    report = {
        "preset": config.preset,
        "config": config.to_dict(),
        "error": fit.error,
        "error_fit_nodes": fit.error_fit_nodes,
        "basis_size": int(len(res.basis.labels)),
        "dropped": [[int(lab), float(r)] for lab, r in res.basis.dropped],
        "coefficient_count": int(len(fit.coefficients)),
        "significant_coefficients": significant,
        "sequence_period": seq.period,
        "diagnostics": diagnostics,
        "timings": {k: round(v, 4) for k, v in timings.items()},
        "wall_time": round(time.monotonic() - t0, 4),
        "artifacts": sorted(p.name for p in out.iterdir() if p.is_file()),
    }
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"E = {fit.error:.6e}  basis = {report['basis_size']}  -> {out}")
    return 0


def run_verify(config: RunConfig, out_dir) -> int:
    """Residual report for a named exact case (or any smooth-sigma scenario).

    Writes verify.json with divergence residuals, per-degree Vekua residuals,
    and successor-condition residuals; exit 0 iff every thresholded family
    passes. Vekua and mesh-successor residuals are finite-difference
    truncation measurements, so they are thresholded on their decrease under
    joint mesh doubling rather than on absolute size; the Cartesian successor
    residual for separable conductivities sits at the rounding floor and gets
    an absolute threshold. For the limit construction (sigma not separable)
    the successor residuals measure its gap and are reported without
    thresholds. The Vekua residual is thresholded exactly when the boundary
    data is an exact case, so a limit construction with exact-case data has
    its Vekua residual enforced too; without an exact case it is reported
    without a threshold.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    floor = THRESHOLDS["residual_floor"]
    field = build_field(config)
    build_boundary_data(config)  # no oracle reads it, but verify rejects what solve rejects
    case = exact_case_for(config)
    smooth = case is not None

    checks: dict[str, dict] = {}

    if smooth:
        pts = interior_points(200, rmax=0.95, seed=0)
        res_h = {h: divergence_residual(case.sigma, case.u, pts, h=h, dtype=np.longdouble)
                 for h in (1e-3, FD_H)}
        checks["divergence"] = {
            "residuals": {f"{h:g}": r for h, r in res_h.items()},
            "threshold": THRESHOLDS["divergence"],
            "passed": bool(res_h[FD_H] <= THRESHOLDS["divergence"]),
        }

    def refined(coarse, fine, need, enforced):
        """The entry of a residual family on a mesh and its joint refinement: it passes
        when every residual above the floor falls by at least ``need``."""
        ratios = [c / max(f, 1e-300) for c, f in zip(coarse, fine) if c > floor]
        return {"residuals": [float(c) for c in coarse],
                "residuals_refined": [float(f) for f in fine],
                "min_ratio": float(min(ratios)) if ratios else None,
                "threshold_ratio": need if enforced else None,
                "passed": bool(not ratios or min(ratios) >= need) if enforced else None}

    Nv = min(config.N, 8)
    P1, S1 = config.P, min(config.S, 100)
    meshes = [radial_mesh(P1, S1), radial_mesh(2 * P1, 2 * S1)]
    seqs = [build_sequence(field, m) for m in meshes]
    vekua = [pseudoanalyticity_check(sq, m, Nv) for m, sq in zip(meshes, seqs)]
    succ_mesh = [successor_residual_mesh(sq, m) for m, sq in zip(meshes, seqs)]

    limit_gap = limit_construction(field)
    checks["vekua_per_degree"] = refined(*vekua, THRESHOLDS["vekua_ratio"], smooth)
    checks["successor_mesh"] = refined(*succ_mesh, THRESHOLDS["successor_mesh_ratio"],
                                       not limit_gap)
    succ_cart = successor_residual(field, meshes[0], h=FD_H)
    checks["successor_cartesian"] = {
        "residuals": succ_cart,
        "threshold": None if limit_gap else THRESHOLDS["successor_cartesian"],
        "passed": None if limit_gap else bool(max(succ_cart) <= THRESHOLDS["successor_cartesian"]),
        "note": "limit-case gap |2 dx(p)/p|, no smallness expected" if limit_gap else "",
    }

    failed = [name for name, c in checks.items() if c.get("passed") is False]
    doc = {"preset": config.preset, "config": config.to_dict(),
           "checks": checks, "failed": failed}
    with open(out / "verify.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if failed:
        print("verify FAILED: " + ", ".join(failed))
        return 1
    print("verify passed")
    return 0


def run_powers(config: RunConfig, out_dir) -> int:
    """Build the formal-power table and dump it as powers.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    field = build_field(config)
    corners = corner_angles_for(config, field)
    mesh = radial_mesh(config.P, config.S, corner_angles=corners)
    table = build_table(build_sequence(field, mesh), mesh, config.N)
    write_powers_csv(table, out / "powers.csv")
    print(f"wrote powers for N={config.N} on {config.P}x{config.S} mesh -> {out}")
    return 0


def _config_from_args(args) -> RunConfig:
    if args.config is not None:
        return load_config(args.config)
    if args.preset:
        return config_from_dict({"preset": args.preset})
    raise ValidationError("either --config or --preset is required")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpeit",
        description="Forward Dirichlet solver for the 2-D impedance equation "
                    "via formal powers on the unit disk")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="JSON run config")
    common.add_argument("--preset", type=str, default=None,
                        help=f"named preset ({', '.join(PRESET_NAMES)})")
    common.add_argument("--threads", type=int, default=0, metavar="K",
                        help="BLAS/OpenMP and ray-block worker cap (0 = all cores); "
                             "applied before numpy loads")

    p_solve = sub.add_parser("solve", parents=[common],
                             help="fit boundary data and write CSV artifacts")
    p_solve.add_argument("--out", type=str, default="out", help="output directory")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run residual oracles and write verify.json")
    p_verify.add_argument("--out", type=str, default=".", help="output directory")

    p_powers = sub.add_parser("powers", parents=[common],
                              help="dump the formal-power table as CSV")
    p_powers.add_argument("--out", type=str, default="out", help="output directory")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 0:
            raise ValidationError(f"--threads must be >= 0 (0 = all cores), got {args.threads}")
        cfg = _config_from_args(args)
        if args.command == "solve":
            return run_solve(cfg, args.out)
        if args.command == "verify":
            return run_verify(cfg, args.out)
        if args.command == "powers":
            return run_powers(cfg, args.out)
        parser.error(f"unknown command {args.command!r}")
    except (ValidationError, DomainError) as exc:
        print(f"fpeit: invalid input: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # NumericalError, FloatingPointError, OverflowError
        print(f"fpeit: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
