"""Generating-pair calculus on a radial mesh of the unit disk.

Conventions
-----------
The complex derivative operators carry no 1/2 factor:

    dz = d/dx - i d/dy,     dzbar = d/dx + i d/dy.

All identities in this module (characteristic coefficients, successor
condition, Vekua residual) are stated and tested under this convention.
One consequence: the pair integral of the pair derivative returns twice the
classical antiderivative expression (the tests check this round trip). The
formal power recursion uses only the integral and is unaffected.

Only generating pairs of the form (F, G) = (p, i/p) with p > 0 are
supported; this is the class the impedance-equation reduction produces, and
a pair is held as its field p. The pair condition Im(conj(F) G) = 1 holds
identically, and of the characteristic coefficients A and a vanish while
B = dz(p)/p and b = dzbar(p)/p. Both integrals of the pair integral are
real: with W = u + iv on a ray dz = (sr + i si) dt,

    Re int G* W dz = int (u sr - v si) / p dt =: A,   Re int F* W dz = int p (u si + v sr) dt =: B,
    fg_integral(W) = p A + i B / p,

where (F*, G*) = (-i p, 1/p) is the adjoint pair.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .conductivity import AnalyticSeparable, ConductivityField, PiecewiseSeparable
from .errors import NumericalError, ValidationError

log = logging.getLogger(__name__)

RIM_TOL = 1e-12
CHUNK = 16  # intervals per block of the cumulative ray quadrature


# --------------------------------------------------------------------------
# mesh
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialMesh:
    """Center plus rays-by-steps sampling of the unit disk.

    Nodes are z[r, s] = z0 + t[s] * span[r], where span[r] points from the
    center to the rim along ray r, so every ray starts at z0 (s = 0) and ends
    on the unit circle (s = S). The parameter grid t is shared by all rays,
    which lets the cumulative quadrature operators be computed once.
    """

    theta: np.ndarray            # (P,) ray angles, sorted, in [0, 2pi)
    t: np.ndarray                # (S+1,) path parameters, 0 = t0 < ... < tS = 1
    z0: complex
    nodes: np.ndarray            # (P, S+1) complex
    span: np.ndarray             # (P,) complex, nodes[:, -1] - z0
    boundary_weights: np.ndarray  # (P,) closed-curve trapezoid arc weights
    chunk_nodes: np.ndarray      # (C, b+3) node window read by each quadrature chunk
    chunk_ops: dict              # rule -> (C, b+3, b) window-to-prefix-sum maps

    @property
    def ray_count(self):
        return len(self.theta)

    @property
    def step_count(self):
        return len(self.t) - 1

    def xy(self):
        return self.nodes.real, self.nodes.imag


def _cumulative_cubic_weights(t: np.ndarray):
    """Per-interval weights integrating the local cubic through 4 nodes.

    For interval [t_j, t_j+1] the stencil is nodes (j-1 .. j+2), clamped at
    the ends, and the weights are the integrals of the Lagrange basis. Exact
    for cubics, O(h^4) globally, and valid on non-uniform grids.
    """
    S = len(t) - 1
    if S < 3:
        raise ValidationError(f"need at least 3 radial steps, got {S}")
    idx = np.empty((S, 4), dtype=np.intp)
    base = np.clip(np.arange(S) - 1, 0, S - 3)
    idx[:] = base[:, None] + np.arange(4)[None, :]
    tau = t[idx]                                     # (S, 4)
    a, b = t[:-1], t[1:]
    mid = 0.5 * (a + b)
    scale = tau[:, -1] - tau[:, 0]
    x = (tau - mid[:, None]) / scale[:, None]        # conditioning shift/scale
    V = x[:, None, :] ** np.arange(4)[None, :, None]  # (S, 4, 4), V[j,m,k] = x_k^m
    xa = (a - mid) / scale
    xb = (b - mid) / scale
    m = np.arange(1, 5)[None, :]
    mom = (xb[:, None] ** m - xa[:, None] ** m) / m * scale[:, None]
    w = np.linalg.solve(V, mom[:, :, None])[:, :, 0]
    return idx, w


def _chunk_operators(t: np.ndarray):
    """Cumulative ray quadrature on the grid t as per-chunk linear maps.

    The S intervals form chunks of b = CHUNK (b = S - 2 when S < CHUNK + 2).
    Chunk c reads the b + 3 nodes ``windows[c]`` holding its intervals'
    stencils, and ``ops[rule][c]`` maps them to its b prefix sums; the running
    integral adds the totals of the chunks before it.
    """
    S = len(t) - 1
    b = CHUNK if S >= CHUNK + 2 else S - 2
    C = -(-S // b)
    first = np.clip(np.arange(C) * b - 1, 0, S - b - 2)
    j = np.arange(S)
    half = 0.5 * np.diff(t)
    stencils = {"cubic": _cumulative_cubic_weights(t),
                "trapezoid": (np.stack([j, j + 1], axis=1), np.stack([half, half], axis=1))}
    ops = {}
    for rule, (idx, w) in stencils.items():
        inc = np.zeros((C, b + 3, b))
        inc[(j // b)[:, None], idx - first[j // b, None], (j % b)[:, None]] = w
        ops[rule] = np.cumsum(inc, axis=2)
    return first[:, None] + np.arange(b + 3), ops


def radial_mesh(P: int, S: int, z0: complex = 0j, rim_grading: float = 1.0,
                corner_angles: Sequence[float] = ()) -> RadialMesh:
    """Build the radial integration mesh.

    Parameters
    ----------
    P, S:
        Ray count and radial step count.
    z0:
        Expansion center, strictly inside the disk (default 0).
    rim_grading:
        1.0 keeps the radial parameters uniform; g > 1 clusters them toward
        the rim via t = 1 - (1 - u)^g, for conductivities varying sharply
        near the boundary.
    corner_angles:
        Boundary angles that must coincide with some ray (one nearest ray is
        snapped to each); used to force rays across polygon corners.
    """
    if P < 3 or S < 3:
        raise ValidationError(f"mesh needs P >= 3 rays and S >= 3 steps, got P={P}, S={S}")
    z0 = complex(z0)
    if abs(z0) >= 1.0 - 1e-9:
        raise ValidationError(f"center z0={z0} must lie strictly inside the unit disk")

    theta = 2.0 * math.pi * np.arange(P) / P
    for ang in corner_angles:
        ang = float(ang) % (2.0 * math.pi)
        k = int(np.argmin(np.minimum(np.abs(theta - ang), 2 * math.pi - np.abs(theta - ang))))
        theta[k] = ang
    theta = np.unique(theta)
    if len(theta) != P:
        raise ValidationError("corner snapping collapsed two rays; increase P or adjust angles")

    u = np.linspace(0.0, 1.0, S + 1)
    g = float(rim_grading)
    if g <= 0:
        raise ValidationError(f"rim_grading must be positive, got {rim_grading!r}")
    t = u if g == 1.0 else 1.0 - (1.0 - u) ** g
    t[0], t[-1] = 0.0, 1.0

    # distance from z0 to the unit circle along each ray direction
    e = np.exp(1j * theta)
    d = z0.real * np.cos(theta) + z0.imag * np.sin(theta)
    R = -d + np.sqrt(d * d + 1.0 - abs(z0) ** 2)
    span = R * e
    nodes = z0 + t[None, :] * span[:, None]

    rim_err = np.max(np.abs(np.abs(nodes[:, -1]) - 1.0))
    if rim_err > RIM_TOL:
        raise NumericalError(f"rim nodes off the unit circle by {rim_err:.2e}")

    gaps = np.diff(np.concatenate([theta, [theta[0] + 2 * math.pi]]))
    bw = 0.5 * (gaps + np.roll(gaps, 1))
    windows, ops = _chunk_operators(t)
    return RadialMesh(theta=theta, t=t, z0=z0, nodes=nodes, span=span,
                      boundary_weights=bw, chunk_nodes=windows, chunk_ops=ops)


def _ray_cumsum(f: np.ndarray, mesh: RadialMesh, rule: str) -> np.ndarray:
    """Running quadrature of f dt along every ray at steps 1..S, shape (..., P, S)."""
    try:
        op = mesh.chunk_ops[rule]
    except KeyError:
        raise ValidationError(f"unknown quadrature rule {rule!r}") from None
    C, width, b = op.shape
    windows = f[..., mesh.chunk_nodes].reshape(-1, C, width)
    # one stacked product over all chunks; rows are the rays of every leading index
    Y = np.matmul(windows.swapaxes(0, 1), op)                  # (C, rows, b)
    Y[1:] += np.cumsum(Y[:-1, :, -1:], axis=0)                # carry the chunk totals
    return Y.swapaxes(0, 1).reshape(f.shape[:-1] + (C * b,))[..., :mesh.step_count]


def cumulative_path_integral(f: np.ndarray, mesh: RadialMesh, rule: str = "cubic") -> np.ndarray:
    """Cumulative integral of f dz from the center along every ray.

    ``f`` has shape (P, S+1); the result matches it, with zeros at s = 0.
    ``rule`` is "cubic" (default, 4-point local cubic) or "trapezoid".
    """
    f = np.asarray(f)
    out = np.zeros(np.broadcast_shapes(f.shape, mesh.nodes.shape), dtype=complex)
    out[..., 1:] = _ray_cumsum(f, mesh, rule)
    return out * mesh.span[:, None]


# --------------------------------------------------------------------------
# generating pairs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratingPair:
    """The pair (F, G) = (p, i/p), held as its field p sampled on the mesh;
    optionally backed by a callable p(x, y).

    p must be finite and positive at every node, and then the pair condition
    Im(conj(F) G) = 1 holds identically.
    """

    p: np.ndarray
    p_fn: Callable | None = None

    def __post_init__(self):
        if not (np.all(np.isfinite(self.p)) and np.all(self.p > 0)):
            raise ValidationError("p must be positive and finite at every node")

    @property
    def F(self) -> np.ndarray:
        """F = p as a complex field."""
        return self.p + 0j


def _fd_xy(fn: Callable, x: np.ndarray, y: np.ndarray, h: float):
    """d/dx and d/dy of fn by centered differences on a local Cartesian stencil.

    Arms are shortened to the largest step that stays in the closed disk
    (one-sided when a side collapses entirely). In the tangential direction
    at the rim both straight arms leave the disk, so there the difference is
    taken along the circle instead (rotated stencil) and projected onto the
    requested direction.
    """
    r2 = x * x + y * y
    r = np.sqrt(r2)
    collapse = 0.05 * h
    out = []
    for dx, dy in ((1.0, 0.0), (0.0, 1.0)):
        b = x * dx + y * dy  # signed component of the position along the step direction
        # largest alpha with |q + alpha*d| <= 1 (and the mirrored arm)
        disc = np.maximum(b * b + 1.0 + RIM_TOL - r2, 0.0)
        ap = np.clip(-b + np.sqrt(disc), 0.0, h)
        am = np.clip(b + np.sqrt(disc), 0.0, h)
        ap = np.where(ap < collapse, 0.0, ap)
        am = np.where(am < collapse, 0.0, am)
        both = (ap == 0.0) & (am == 0.0)
        fp = fn(x + dx * ap, y + dy * ap)
        fm = fn(x - dx * am, y - dy * am)
        arms = ap + am
        safe = np.where(arms > 0.0, arms, 1.0)
        d = (fp - fm) / safe
        if np.any(both):
            # tangential at the rim: difference along the circle, projected
            # onto the step direction (the radial component is negligible
            # exactly where both arms collapse)
            xb, yb, rb = x[both], y[both], r[both]
            c, s = math.cos(h), math.sin(h)
            ft = fn(xb * c - yb * s, xb * s + yb * c)
            fb = fn(xb * c + yb * s, -xb * s + yb * c)
            tang = (-yb * dx + xb * dy) / rb
            d[both] = tang * (ft - fb) / (2.0 * h * rb)
        out.append(d)
    return out


def _coefficients(p: np.ndarray, grad_p, grad_q):
    """B and b of the pair (p, i/p) from the (d/dx, d/dy) of p and of q = 1/p.

    A = a = 0 for these pairs, and B = (dz(p)/p - p dz(1/p)) / 2, b the same
    with dzbar. Both halves equal dz(p)/p in exact arithmetic; the symmetric
    form keeps the finite-difference truncation of the two pairs of a
    separable sequence cancelling in the successor condition.
    """
    (px, py), (qx, qy) = grad_p, grad_q
    ux = 0.5 * (px / p - p * qx)
    uy = 0.5 * (py / p - p * qy)
    return ux - 1j * uy, ux + 1j * uy


def characteristic_coefficients(pair: GeneratingPair, mesh: RadialMesh, h: float = 1e-4):
    """The coefficient fields (B, b) of a pair (p, i/p); its A and a vanish.

    Derivatives of p and 1/p are taken by centered finite differences with
    spacing ``h`` (one-sided at the rim), so the pair must be backed by a
    callable p.
    """
    if pair.p_fn is None:
        raise ValidationError("characteristic coefficients need a callable-backed pair (p, i/p)")
    x, y = mesh.xy()
    return _coefficients(pair.p, _fd_xy(pair.p_fn, x, y, h),
                         _fd_xy(lambda a, b: 1.0 / pair.p_fn(a, b), x, y, h))


# --------------------------------------------------------------------------
# pair integral and mesh derivatives
# --------------------------------------------------------------------------

def fg_integral(W: np.ndarray, pair: GeneratingPair, mesh: RadialMesh,
                rule: str = "cubic") -> np.ndarray:
    """Pair integral of W from the center along every ray, for the pair (p, i/p).

    Returns p Re(int G* W dz) + (i/p) Re(int F* W dz) cumulatively at every
    node; the value at s = 0 is 0. With p = 1 this is the ordinary complex
    contour integral. Both integrands are real (see the module docstring),
    so the two running integrals take one real pass of the chunked ray
    quadrature.
    """
    p = pair.p
    Wdz = W * mesh.span[:, None]                 # (u sr - v si) + i (u si + v sr)
    # both integrands in one stack: with two rows or more per chunk, numpy's
    # matmul always takes the gemm path (one row goes through gemv, which
    # rounds differently), so a ray's result does not depend on its ray slice
    f = np.empty((2,) + Wdz.shape)
    np.divide(Wdz.real, p, out=f[0])
    np.multiply(Wdz.imag, p, out=f[1])
    A, B = _ray_cumsum(f, mesh, rule)
    out = np.empty(Wdz.shape, dtype=complex)
    out[..., 0] = 0.0
    np.multiply(p[..., 1:], A, out=out.real[..., 1:])
    np.divide(B, p[..., 1:], out=out.imag[..., 1:])
    return out


def mesh_gradient(W: np.ndarray, mesh: RadialMesh):
    """d/dx and d/dy of a mesh field by curvilinear central differences.

    Parameter derivatives along t (radial) and theta (angular, periodic) are
    inverted through the numerically evaluated mesh Jacobian. The center
    column (s = 0) is singular and returned as NaN; the rim column uses
    one-sided differences in t.
    """
    W = np.asarray(W)

    def d_dt(f):
        out = np.empty(f.shape, dtype=f.dtype)
        t = mesh.t
        hp = (t[2:] - t[1:-1])[None, :]
        hm = (t[1:-1] - t[:-2])[None, :]
        out[:, 1:-1] = (hm ** 2 * f[:, 2:] - hp ** 2 * f[:, :-2]
                        + (hp ** 2 - hm ** 2) * f[:, 1:-1]) / (hp * hm * (hp + hm))
        out[:, 0] = (f[:, 1] - f[:, 0]) / (t[1] - t[0])
        h1, h2 = t[-1] - t[-2], t[-1] - t[-3]
        # second-order one-sided at the rim
        out[:, -1] = (f[:, -1] * (h1 + h2) / (h1 * h2)
                      - f[:, -2] * h2 / (h1 * (h2 - h1))
                      + f[:, -3] * h1 / (h2 * (h2 - h1)))
        return out

    def d_dtheta(f):
        th = mesh.theta
        fp = np.roll(f, -1, axis=0)
        fm = np.roll(f, 1, axis=0)
        hp = (np.roll(th, -1) - th) % (2 * math.pi)
        hp[hp == 0] = 2 * math.pi
        hm = (th - np.roll(th, 1)) % (2 * math.pi)
        hm[hm == 0] = 2 * math.pi
        hp, hm = hp[:, None], hm[:, None]
        return (hm ** 2 * fp - hp ** 2 * fm + (hp ** 2 - hm ** 2) * f) / (hp * hm * (hp + hm))

    xt, yt = d_dt(mesh.nodes.real), d_dt(mesh.nodes.imag)
    xq, yq = d_dtheta(mesh.nodes.real), d_dtheta(mesh.nodes.imag)
    Wt, Wq = d_dt(W), d_dtheta(W)
    det = xt * yq - xq * yt
    with np.errstate(divide="ignore", invalid="ignore"):
        Wx = (Wt * yq - Wq * yt) / det
        Wy = (Wq * xt - Wt * xq) / det
    Wx[:, 0] = np.nan
    Wy[:, 0] = np.nan
    return Wx, Wy


def dz_field(W: np.ndarray, mesh: RadialMesh) -> np.ndarray:
    Wx, Wy = mesh_gradient(W, mesh)
    return Wx - 1j * Wy


def dzbar_field(W: np.ndarray, mesh: RadialMesh) -> np.ndarray:
    Wx, Wy = mesh_gradient(W, mesh)
    return Wx + 1j * Wy


def _vekua_operator(p: np.ndarray, mesh: RadialMesh):
    """W -> |dzbar(W) - b conj(W)| per node, with b = dzbar(p)/p computed once."""
    p = np.asarray(p, dtype=float)
    b = dzbar_field(p.astype(complex), mesh) / p
    return lambda W: np.abs(dzbar_field(np.asarray(W, dtype=complex), mesh) - b * np.conj(W))


def vekua_residual(W: np.ndarray, p: np.ndarray, mesh: RadialMesh) -> np.ndarray:
    """|dzbar(W) - (dzbar(p)/p) conj(W)| per node (NaN at the center column)."""
    return _vekua_operator(p, mesh)(W)


# --------------------------------------------------------------------------
# generating sequences
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratingSequence:
    """Periodic chain of generating pairs; pair_for(m) = pairs[m % period]."""

    period: int
    pairs: tuple

    def pair_for(self, m: int) -> GeneratingPair:
        return self.pairs[m % self.period]


def build_sequence(field: ConductivityField, mesh: RadialMesh) -> GeneratingSequence:
    """Generating sequence of the impedance-to-Vekua reduction for a conductivity field.

    Separable fields (analytic or slab-wise) give the period-2 sequence

        even m: (p2/p1, i p1/p2),   odd m: (p1 p2, i/(p1 p2)),

    with p1 = sqrt(sigma1), p2 = sqrt(sigma2) (per slab where applicable).
    When the two pairs coincide (sigma1 constant) the period degenerates
    to 1. Limit-case and scene fields give the period-1 sequence with
    p = sqrt(sigma) at every node.
    """
    x, y = mesh.xy()
    if isinstance(field, (AnalyticSeparable, PiecewiseSeparable)):
        s1, s2 = field.separable_parts(x, y)
        p1, p2 = np.sqrt(s1), np.sqrt(s2)

        def p_even(a, b):
            u1, u2 = field.separable_parts(np.asarray(a, float), np.asarray(b, float))
            return np.sqrt(u2 / u1)

        def p_odd(a, b):
            u1, u2 = field.separable_parts(np.asarray(a, float), np.asarray(b, float))
            return np.sqrt(u1 * u2)

        even = GeneratingPair(p2 / p1, p_even)
        odd = GeneratingPair(p1 * p2, p_odd)
        if np.array_equal(even.p, odd.p):
            return GeneratingSequence(period=1, pairs=(even,))
        return GeneratingSequence(period=2, pairs=(even, odd))

    p = np.sqrt(field.evaluate(x, y))

    def p_fn(a, b):
        return np.sqrt(field.evaluate(a, b))

    return GeneratingSequence(period=1, pairs=(GeneratingPair(p, p_fn),))


def _successor_gaps(seq: GeneratingSequence, coefficients):
    """|B_(m+1) + b_m| per node for each m in one period; ``coefficients(pair)`` gives (B, b)."""
    Bb = [coefficients(pair) for pair in seq.pairs]
    return [np.abs(Bb[(m + 1) % seq.period][0] + Bb[m][1]) for m in range(seq.period)]


def successor_residual(seq: GeneratingSequence, mesh: RadialMesh, h: float = 1e-4):
    """max|B_(m+1) + b_m| over nodes, for each m in one period (Cartesian stencil).

    For separable conductivities the finite-difference truncation cancels
    exactly between the two pairs (the separable factors drop out of the
    shared difference quotients), so the residual sits at the rounding floor.
    For a period-1 sequence built from an x-dependent conductivity the
    residual instead measures |2 dx(p)/p|, the gap of the limit-case
    construction, and is not expected to be small.
    """
    gaps = _successor_gaps(seq, lambda pair: characteristic_coefficients(pair, mesh, h=h))
    return [float(np.max(g)) for g in gaps]


def successor_residual_mesh(seq: GeneratingSequence, mesh: RadialMesh):
    """Successor residual with derivatives taken on the mesh itself.

    The polar stencils mix x and y, so no structural cancellation occurs and
    the residual reflects genuine discretization error: it shrinks at second
    order as the mesh is refined. Interior nodes only (the center column is
    singular and the rim column one-sided).
    """
    def coefficients(pair):
        return _coefficients(pair.p, mesh_gradient(pair.p, mesh), mesh_gradient(1.0 / pair.p, mesh))

    return [float(np.nanmax(g[:, 1:-1])) for g in _successor_gaps(seq, coefficients)]
