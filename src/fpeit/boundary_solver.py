"""Orthonormalization, fitting, the error norm and the end-to-end pipeline.

The raw boundary system and its canonical trace order and labels come from
``fpeit.formal_powers.rim_traces``; the fitted function, on the rim for the
dense error and in the interior for ``interior.csv``, from
``fpeit.formal_powers.fitted_field``, which build the sequence one ray block
at a time, so the solve builds no formal-power table and no Q-ray node array.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .conductivity import ConductivityField
from .errors import ValidationError
from .formal_powers import BoundarySystem, fitted_field, rim_traces
from .pseudoanalytic import RadialMesh, radial_mesh

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
    dropped: tuple          # ((label, residual_norm), ...)
    norm_ratios: np.ndarray  # (K,) post-projection / original norm of the kept functions


# a function whose post-projection norm falls below this fraction of its own is dropped
DROP_TOL = 1e-10


def orthonormalize(system: BoundarySystem) -> OrthonormalBasis:
    """Classical Gram-Schmidt with one re-orthogonalization pass (CGS2).

    Functions are processed in the system order. A function whose
    post-projection norm falls below ``DROP_TOL`` times its original norm is
    dropped and logged with its residual norm; the ratios of the kept ones
    are recorded in ``norm_ratios``.
    """
    M, P = system.raw.shape
    if P < M:
        log.info("only %d boundary nodes for %d raw functions; "
                 "the basis will saturate at %d functions", P, M, P)
    w = system.weights
    U, T = np.empty((M, P)), np.empty((M, M))  # the first k rows hold the kept functions
    kept: list[int] = []
    ratios: list[float] = []
    dropped: list[tuple[int, float]] = []
    for j in range(M):
        k = len(kept)
        v = system.raw[j].astype(float).copy()
        tv = np.zeros(M)
        tv[j] = 1.0
        norm0 = math.sqrt(max(inner_product(v, v, w), 0.0))
        for _ in range(2):  # CGS, every coefficient from the same v, then once more
            c = U[:k] @ (w * v)
            v = v - c @ U[:k]
            tv = tv - c @ T[:k]
        norm = math.sqrt(max(inner_product(v, v, w), 0.0))
        if norm0 == 0.0 or norm < DROP_TOL * norm0:
            log.info("dropping raw function label=%d (residual norm %.3e of original %.3e)",
                     system.labels[j], norm, norm0)
            dropped.append((int(system.labels[j]), float(norm)))
            continue
        U[k], T[k] = v / norm, tv / norm
        kept.append(j)
        ratios.append(norm / norm0)
    k = len(kept)
    return OrthonormalBasis(theta=system.theta, weights=w, functions=U[:k], transform=T[:k],
                            labels=system.labels[kept], dropped=tuple(dropped),
                            norm_ratios=np.asarray(ratios))


@dataclass(frozen=True)
class FitResult:
    """Expansion of imposed boundary data over the orthonormal basis."""

    labels: np.ndarray         # (K,)
    coefficients: np.ndarray   # (K,) b_alpha
    seeds: np.ndarray          # (N+1,) complex Horner seeds a_n = c_n + i c_(N+1+n)
    fitted: np.ndarray         # (P,) fitted trace at the fit nodes
    error: float               # Lebesgue-norm residual on Q dense points
    error_fit_nodes: float     # discrete residual at the fit nodes


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
    return np.interp(theta_dst, theta_src, values, period=2 * math.pi)


def reconstruct_interior(res: SolveResult) -> np.ndarray:
    """Interior field Re sum_n Z^(n)(a_n) of a solve on its mesh nodes, (P, S+1).

    It is the fitted combination of the raw traces' formal powers, run as
    one Horner chain from the fit's seeds; its boundary column reproduces
    the fitted trace up to rounding.
    """
    return fitted_field(res.field, res.mesh, len(res.fit.seeds) - 1, res.fit.seeds)


# --------------------------------------------------------------------------
# end-to-end pipeline
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveResult:
    fit: FitResult
    mesh: RadialMesh
    field: ConductivityField
    basis: OrthonormalBasis
    theta_dense: np.ndarray
    data_dense: np.ndarray
    fit_dense: np.ndarray
    timings: dict


def _boundary_samples(data_fn, theta: np.ndarray) -> np.ndarray:
    """The boundary data at ``theta``, which must be finite: else the fit and E are NaN.

    An overflow in ``data_fn`` is reported by this check, not by numpy's warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        data = np.asarray(data_fn(theta), dtype=float)
    bad = np.flatnonzero(~np.isfinite(data))
    if len(bad):
        raise ValidationError(f"boundary data is not finite at theta = {theta[bad[0]]:.17g}")
    return data


def solve_dirichlet(field: ConductivityField, data_fn, *, N: int = 17, P: int = 35,
                    S: int = 400, Q: int = 1000, dense_error: bool = True) -> SolveResult:
    """Run the full pipeline: mesh, sequence, powers, orthonormal fit, error.

    ``data_fn`` maps boundary angles to imposed Dirichlet values. The mesh
    snaps a ray to each of ``field.corner_angles()``. The residual norm is
    integrated on Q equally spaced boundary points.

    With P >= 2N+1 the coefficients project the data onto the orthonormal
    basis at the P fit nodes. With ``dense_error`` (default) the fitted trace
    is then re-evaluated on a Q-ray mesh (``fitted_field``: one Horner chain
    per ray block), otherwise it is upsampled from the fit nodes by periodic
    linear interpolation. That cheap E measures the interpolation of the
    fitted node values, and is neither a lower nor an upper bound on the
    error of the fit.

    With P < 2N+1 a node fit would interpolate a basis cut short by the node
    count and hide aliased high-degree content between the nodes. The
    coefficients then solve the least-squares problem against the Q-point
    traces of every raw function, rebuilt on the Q-ray mesh (``rim_traces``),
    which discretizes the boundary-integral fit criterion directly; E is
    measured on those traces whatever ``dense_error`` says.
    """
    if N < 1:
        raise ValidationError(f"N must be >= 1, got {N}")
    if Q < P:
        raise ValidationError(f"Q={Q} must be at least P={P}")
    node_fit = P >= 2 * N + 1
    dense_error = dense_error or not node_fit
    timings: dict[str, float] = {}
    t0 = time.monotonic()
    mesh = radial_mesh(P, S, corner_angles=field.corner_angles())
    # bad data is rejected before any formal power is built
    data_P = _boundary_samples(data_fn, mesh.theta)
    theta_q = 2.0 * math.pi * np.arange(Q) / Q
    data_q = _boundary_samples(data_fn, theta_q)
    system = rim_traces(field, mesh, N)
    timings["build"] = time.monotonic() - t0

    t1 = time.monotonic()
    basis = orthonormalize(system)
    b, fitted = fit_coefficients(basis, data_P)
    timings["fit"] = time.monotonic() - t1

    t2 = time.monotonic()
    if dense_error:
        mesh_q = radial_mesh(Q, S)
    if not node_fit:
        raw_q = rim_traces(field, mesh_q, N).raw
        b, *_ = np.linalg.lstsq((basis.transform @ raw_q).T, data_q, rcond=None)
        fitted = b @ basis.functions
    c = basis.transform.T @ b
    # raw coefficients by label (the reserved label N+1 is 0): a_n = c_n + i c_(N+1+n)
    c_full = np.zeros(2 * N + 2)
    c_full[system.labels] = c
    seeds = c_full[:N + 1] + 1j * c_full[N + 1:]
    if not node_fit:
        fit_q = c @ raw_q
    elif dense_error:
        fit_q = fitted_field(field, mesh_q, N, seeds, rim=True)
    else:
        fit_q = upsample_periodic_linear(mesh.theta, fitted, theta_q)
    if dense_error:
        timings["dense_traces"] = time.monotonic() - t2

    t3 = time.monotonic()
    e_fit = error_norm(data_P, fitted, weights=mesh.boundary_weights)
    E = error_norm(data_q, fit_q)
    timings["error"] = time.monotonic() - t3
    timings["total"] = time.monotonic() - t0

    fit_res = FitResult(labels=basis.labels, coefficients=b, seeds=seeds,
                        fitted=fitted, error=E, error_fit_nodes=e_fit)
    return SolveResult(fit=fit_res, mesh=mesh, field=field, basis=basis,
                       theta_dense=theta_q, data_dense=data_q, fit_dense=fit_q,
                       timings=timings)
