"""Orthonormalization, fitting, the error norm and the end-to-end pipeline.

The raw boundary system and its canonical trace order and labels come from
``fpeit.formal_powers.boundary_system``.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .conductivity import ConductivityField
from .errors import ValidationError
from .formal_powers import (
    BoundarySystem,
    FormalPowerTable,
    boundary_system,
    build_table,
    rim_traces,
)
from .pseudoanalytic import GeneratingSequence, RadialMesh, build_sequence, radial_mesh

log = logging.getLogger(__name__)


def inner_product(f: np.ndarray, g: np.ndarray, weights: np.ndarray) -> float:
    """Closed-curve trapezoid quadrature of f*g over the boundary.

    Weights are half the sum of the adjacent arc gaps per node; on uniform
    rays they all equal 2*pi/P.
    """
    f, g, weights = np.asarray(f, float), np.asarray(g, float), np.asarray(weights, float)
    if f.shape != g.shape or f.shape != weights.shape:
        raise ValidationError("inner_product arguments must share the boundary sampling")
    return float(np.dot(f * weights, g))


@dataclass(frozen=True)
class OrthonormalBasis:
    theta: np.ndarray
    weights: np.ndarray
    functions: np.ndarray   # (K, P) orthonormal rows u_alpha
    transform: np.ndarray   # (K, M): functions = transform @ raw
    labels: np.ndarray      # (K,) labels of the kept functions
    raw_labels: np.ndarray  # (M,) labels of the raw system
    dropped: tuple          # ((label, residual_norm), ...)


def orthonormalize(system: BoundarySystem, drop_tol: float = 1e-10) -> OrthonormalBasis:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Functions are processed in the system order. A function whose
    post-projection norm falls below ``drop_tol`` times its original norm is
    dropped and logged with its residual norm.
    """
    M, P = system.raw.shape
    if P < M:
        log.warning("only %d boundary nodes for %d raw functions; "
                    "at most %d can survive orthonormalization", P, M, P)
    w = system.weights
    kept_u: list[np.ndarray] = []
    kept_t: list[np.ndarray] = []
    kept_labels: list[int] = []
    dropped: list[tuple[int, float]] = []
    for j in range(M):
        v = system.raw[j].astype(float).copy()
        tv = np.zeros(M)
        tv[j] = 1.0
        norm0 = math.sqrt(max(inner_product(v, v, w), 0.0))
        if kept_u:
            U = np.asarray(kept_u)
            T = np.asarray(kept_t)
            for _ in range(2):  # MGS + one re-orthogonalization pass
                c = U @ (w * v)
                v = v - c @ U
                tv = tv - c @ T
        norm = math.sqrt(max(inner_product(v, v, w), 0.0))
        if norm0 == 0.0 or norm < drop_tol * norm0:
            log.info("dropping raw function label=%d (residual norm %.3e of original %.3e)",
                     system.labels[j], norm, norm0)
            dropped.append((int(system.labels[j]), float(norm)))
            continue
        kept_u.append(v / norm)
        kept_t.append(tv / norm)
        kept_labels.append(int(system.labels[j]))
    return OrthonormalBasis(theta=system.theta, weights=w,
                            functions=np.asarray(kept_u),
                            transform=np.asarray(kept_t),
                            labels=np.asarray(kept_labels, dtype=int),
                            raw_labels=system.labels.copy(),
                            dropped=tuple(dropped))


@dataclass(frozen=True)
class FitResult:
    """Expansion of imposed boundary data over the orthonormal basis."""

    labels: np.ndarray         # (K,)
    coefficients: np.ndarray   # (K,) b_alpha
    raw_coefficients: np.ndarray  # (M,) combination over the raw traces
    fitted: np.ndarray         # (P,) fitted trace at the fit nodes
    error: float               # Lebesgue-norm residual on Q dense points
    error_fit_nodes: float     # discrete residual at the fit nodes
    config: dict = dc_field(default_factory=dict)


def fit_coefficients(basis: OrthonormalBasis, data: np.ndarray):
    """Least-squares coefficients b_alpha = <data, u_alpha> and the fitted trace."""
    data = np.asarray(data, dtype=float)
    if data.shape != basis.theta.shape:
        raise ValidationError("data must be sampled at the basis boundary nodes")
    b = basis.functions @ (basis.weights * data)
    fitted = b @ basis.functions
    return b, fitted


def error_norm(data: np.ndarray, fitted: np.ndarray, weights=None) -> float:
    """sqrt of the closed-curve trapezoid integral of (data - fitted)^2.

    With ``weights`` omitted the sampling is taken as uniform on [0, 2pi).
    """
    data, fitted = np.asarray(data, float), np.asarray(fitted, float)
    if weights is None:
        weights = np.full(data.shape, 2.0 * math.pi / data.size)
    r = data - fitted
    return math.sqrt(max(inner_product(r, r, np.asarray(weights, float)), 0.0))


def upsample_periodic_linear(theta_src: np.ndarray, values: np.ndarray,
                             theta_dst: np.ndarray) -> np.ndarray:
    """Periodic linear interpolation of a boundary trace in theta."""
    th = np.asarray(theta_src, float)
    v = np.asarray(values, float)
    order = np.argsort(th)
    th, v = th[order], v[order]
    th_ext = np.concatenate([th, [th[0] + 2 * math.pi]])
    v_ext = np.concatenate([v, [v[0]]])
    return np.interp(np.asarray(theta_dst, float) % (2 * math.pi), th_ext, v_ext,
                     period=2 * math.pi)


def reconstruct_interior(table: FormalPowerTable, transform: np.ndarray,
                         b: np.ndarray) -> np.ndarray:
    """Interior field sum_alpha b_alpha u~_alpha(z) on the mesh nodes.

    u~_alpha is the basis transform applied to the interior real parts of the
    formal powers; the boundary restriction reproduces the fitted trace
    exactly because the transform and coefficients are shared.
    """
    c = np.asarray(transform).T @ np.asarray(b)
    re_fields = np.concatenate([table.Z1.real, table.Zi[1:].real], axis=0)  # (M, P, S+1)
    return np.einsum("m,mps->ps", c, re_fields)


# --------------------------------------------------------------------------
# end-to-end pipeline
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveResult:
    fit: FitResult
    mesh: RadialMesh
    sequence: GeneratingSequence
    table: FormalPowerTable
    basis: OrthonormalBasis
    theta_dense: np.ndarray
    data_dense: np.ndarray
    fit_dense: np.ndarray
    timings: dict


def solve_dirichlet(field: ConductivityField, data_fn, *, N: int = 17, P: int = 35,
                    S: int = 400, Q: int = 1000, dense_error: bool = True,
                    rule: str = "cubic", rim_grading: float = 1.0,
                    corner_angles=(), drop_tol: float = 1e-10,
                    fit_quadrature: str = "nodes",
                    config_echo: dict | None = None) -> SolveResult:
    """Run the full pipeline: mesh, sequence, powers, orthonormal fit, error.

    ``data_fn`` maps boundary angles to imposed Dirichlet values. The
    residual norm is integrated on Q equally spaced boundary points; with
    ``dense_error`` (default) the fitted trace is re-evaluated there from the
    raw traces rebuilt on a Q-ray mesh (``rim_traces``: ray blocks, rim
    column only), otherwise it is upsampled from the fit nodes by periodic
    linear interpolation.

    ``fit_quadrature`` selects where the coefficients are determined:
    ``"nodes"`` projects onto the orthonormal basis at the P fit nodes;
    ``"dense"`` solves the least-squares problem against the Q-point dense
    traces instead, which discretizes the boundary-integral fit criterion
    directly. The dense fit matters when P barely resolves the degrees in
    play (an interpolatory node fit can hide aliased high-degree content
    between the nodes); it requires ``dense_error``.
    """
    if N < 1:
        raise ValidationError(f"N must be >= 1, got {N}")
    if Q < P:
        raise ValidationError(f"Q={Q} must be at least P={P}")
    if fit_quadrature not in ("nodes", "dense"):
        raise ValidationError(f"unknown fit_quadrature {fit_quadrature!r}")
    if fit_quadrature == "dense" and not dense_error:
        raise ValidationError("fit_quadrature='dense' requires dense_error")
    if P < 2 * N + 1:
        log.warning("P=%d boundary nodes for %d raw functions (2N+1 with N=%d); "
                    "the basis will saturate at P functions", P, 2 * N + 1, N)
    timings: dict[str, float] = {}
    t0 = time.monotonic()
    mesh = radial_mesh(P, S, rim_grading=rim_grading, corner_angles=corner_angles)
    seq = build_sequence(field, mesh)
    table = build_table(seq, mesh, N, rule=rule)
    timings["build"] = time.monotonic() - t0

    t1 = time.monotonic()
    system = boundary_system(table)
    basis = orthonormalize(system, drop_tol=drop_tol)
    data_P = np.asarray(data_fn(mesh.theta), dtype=float)
    b, fitted = fit_coefficients(basis, data_P)
    timings["fit"] = time.monotonic() - t1

    raw_q = None
    if dense_error:
        t2 = time.monotonic()
        mesh_q = radial_mesh(Q, S, rim_grading=rim_grading)
        raw_q = rim_traces(build_sequence(field, mesh_q), mesh_q, N, rule=rule)
        timings["dense_traces"] = time.monotonic() - t2

    t3 = time.monotonic()
    theta_q = 2.0 * math.pi * np.arange(Q) / Q
    data_q = np.asarray(data_fn(theta_q), dtype=float)
    if fit_quadrature == "dense":
        U_q = basis.transform @ raw_q
        b, *_ = np.linalg.lstsq(U_q.T, data_q, rcond=None)
        fitted = b @ basis.functions
    e_fit = error_norm(data_P, fitted, weights=mesh.boundary_weights)
    c = basis.transform.T @ b
    if dense_error:
        fit_q = c @ raw_q
    else:
        fit_q = upsample_periodic_linear(mesh.theta, fitted, theta_q)
    E = error_norm(data_q, fit_q)
    timings["error"] = time.monotonic() - t3
    timings["total"] = time.monotonic() - t0

    echo = dict(config_echo or {})
    echo.update({"N": N, "P": P, "S": S, "Q": Q, "dense_error": dense_error,
                 "rule": rule, "rim_grading": rim_grading,
                 "corner_angles": [float(a) for a in corner_angles],
                 "drop_tol": drop_tol, "fit_quadrature": fit_quadrature})
    fit_res = FitResult(labels=basis.labels, coefficients=b, raw_coefficients=c,
                        fitted=fitted, error=E, error_fit_nodes=e_fit, config=echo)
    return SolveResult(fit=fit_res, mesh=mesh, sequence=seq, table=table, basis=basis,
                       theta_dense=theta_q, data_dense=data_q, fit_dense=fit_q,
                       timings=timings)
