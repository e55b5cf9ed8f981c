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

The pair integral has one kernel, ``_Chains``: a state of real (A, B)
fields, advanced one pair integral at a time by a blocked ray quadrature.
The formal-power chains run on it, and ``fg_integral`` is one of its steps.
The ray quadrature is a property of the mesh: ``radial_mesh`` builds one
kind of mesh, uniform radial steps integrated by the local-cubic cumulative
rule, and builds its operator once, in the strided chunk form that
``_Chains`` reads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .conductivity import ConductivityField, SeparableField
from .errors import NumericalError, ValidationError

RIM_TOL = 1e-12
CHUNK = 16  # intervals per block of the cumulative ray quadrature


# --------------------------------------------------------------------------
# mesh
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialMesh:
    """Polar grid of the unit disk about the origin: rays by steps.

    Nodes are z[r, s] = t[s] * span[r] with span[r] = e^{i theta[r]}, so every
    ray starts at the origin (s = 0) and ends on the unit circle at angle
    theta[r] (s = S). The parameter grid t is shared by all rays, which lets
    the cumulative quadrature operator be computed once. Only ``gradient``,
    built on first use, holds per-node arrays; ``span`` and ``nodes`` are formed on access.
    """

    theta: np.ndarray            # (P,) ray angles, sorted, in [0, 2pi)
    t: np.ndarray                # (S+1,) path parameters, 0 = t0 < ... < tS = 1
    boundary_weights: np.ndarray  # (P,) closed-curve trapezoid arc weights
    quadrature: tuple            # (lo, (C, b, width) window-to-prefix-sum maps) of the ray rule

    @property
    def ray_count(self):
        return len(self.theta)

    @property
    def step_count(self):
        return len(self.t) - 1

    @property
    def span(self) -> np.ndarray:
        """(P,) complex rim nodes e^{i theta}, computed on each access."""
        return np.exp(1j * self.theta)

    @property
    def nodes(self) -> np.ndarray:
        """(P, S+1) complex nodes t[s] span[r], computed on each access."""
        # 0j + turns the -0.0 that t = 0 gives on rays with a negative cos or sin
        # into +0, which the CSV artifacts would print as -0
        return 0j + self.t[None, :] * self.span[:, None]

    def xy(self):
        nodes = self.nodes
        return nodes.real, nodes.imag

    @functools.cached_property
    def gradient(self):
        """The mesh's ``_gradient_operator``, built on first use and kept in the instance."""
        return _gradient_operator(self)


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


def _chunk_operator(idx: np.ndarray, w: np.ndarray):
    """The cumulative ray quadrature of a stencil as per-chunk linear maps (lo, op).

    Interval j integrates to sum_k w[j, k] f[idx[j, k]]. The S intervals form chunks of
    b = CHUNK (b = S - 2 when S < CHUNK + 2), and op has shape (C, b, width): chunk c
    reads the ``width`` integrand values at steps c b + lo onwards, those outside 0..S
    read as zero, and ``op[c]`` maps them to the chunk's b prefix sums; the running
    integral adds the totals of the chunks before it.
    """
    S = len(idx)
    b = CHUNK if S >= CHUNK + 2 else S - 2
    C = -(-S // b)
    j = np.arange(S)
    offset = idx - (j - j % b)[:, None]              # stencil steps from their chunk's start
    lo = offset.min()
    inc = np.zeros((C, b, offset.max() - lo + 1))
    inc[(j // b)[:, None], (j % b)[:, None], offset - lo] = w
    return lo, np.cumsum(inc, axis=1)


def radial_mesh(P: int, S: int, *, rim_grading: float = 1.0,
                corner_angles: Sequence[float] = ()) -> RadialMesh:
    """Build the radial integration mesh of the unit disk about the origin.

    Every ray takes S uniform steps, t = 0, 1/S, ..., 1, and integrates by the
    local-cubic cumulative rule (``_cumulative_cubic_weights``).

    Parameters
    ----------
    P, S:
        Ray count and radial step count.
    rim_grading:
        Must be 1.0, the uniform steps. It stays only because
        ``perfbench/gate.py`` passes it; ROADMAP item 8 removes it.
    corner_angles:
        Boundary angles that must coincide with some ray (one nearest ray is
        snapped to each); used to force rays across polygon corners. Two
        distinct angles that pick the same ray are rejected.
    """
    if P < 3 or S < 3:
        raise ValidationError(f"mesh needs P >= 3 rays and S >= 3 steps, got P={P}, S={S}")
    if rim_grading != 1.0:
        raise ValidationError(f"rim_grading must be 1.0 (uniform radial steps), "
                              f"got {rim_grading!r}")

    theta = 2.0 * math.pi * np.arange(P) / P
    snapped = {}  # ray -> the corner angle it was moved to
    for ang in corner_angles:
        ang = float(ang) % (2.0 * math.pi)
        k = int(np.argmin(np.minimum(np.abs(theta - ang), 2 * math.pi - np.abs(theta - ang))))
        if snapped.setdefault(k, ang) != ang:
            raise ValidationError(f"corner angles {snapped[k]!r} and {ang!r} both snap to ray "
                                  f"{k}; increase P")
        theta[k] = ang
    theta = np.sort(theta)
    if not np.all(np.diff(theta)):
        raise ValidationError("corner snapping collapsed two rays; increase P or adjust angles")

    t = np.linspace(0.0, 1.0, S + 1)
    gaps = np.diff(np.concatenate([theta, [theta[0] + 2 * math.pi]]))
    bw = 0.5 * (gaps + np.roll(gaps, 1))
    return RadialMesh(theta=theta, t=t, boundary_weights=bw,
                      quadrature=_chunk_operator(*_cumulative_cubic_weights(t)))


# --------------------------------------------------------------------------
# generating pairs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratingPair:
    """The pair (F, G) = (p, i/p), held as its field p sampled on the mesh.

    p must be finite and positive at every node, and then the pair condition
    Im(conj(F) G) = 1 holds identically.
    """

    p: np.ndarray

    def __post_init__(self):
        if not (np.all(np.isfinite(self.p)) and np.all(self.p > 0)):
            raise ValidationError("p must be positive and finite at every node")

    @property
    def F(self) -> np.ndarray:
        """F = p as a complex field."""
        return self.p + 0j


def _fd_xy(fn: Callable, x: np.ndarray, y: np.ndarray, h: float):
    """d/dx and d/dy of fn (a field or a stack of them) by centered Cartesian differences.

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
            d[..., both] = tang * (ft - fb) / (2.0 * h * rb)
        out.append(d)
    return out


def _coefficients(p: np.ndarray, grad):
    """B and b of the pairs (p, i/p) from grad, the (d/dx, d/dy) of the stack (p, q = 1/p).

    A = a = 0 for these pairs, and B = (dz(p)/p - p dz(1/p)) / 2, b the same
    with dzbar. Both halves equal dz(p)/p in exact arithmetic; the symmetric
    form keeps the finite-difference truncation of the two pairs of a
    separable sequence cancelling in the successor condition.
    """
    (px, qx), (py, qy) = grad
    ux = 0.5 * (px / p - p * qx)
    uy = 0.5 * (py / p - p * qy)
    return ux - 1j * uy, ux + 1j * uy


def characteristic_coefficients(field: ConductivityField, mesh: RadialMesh, h: float = 1e-4):
    """The coefficient fields (B, b) of the pairs (p, i/p) of a field's sequence; A and a vanish.

    B and b are each stacked over the pairs of one period, (period, P, S+1).
    Derivatives of p and 1/p are taken by centered finite differences with
    spacing ``h`` (one-sided at the rim), in one pass over every pair that
    calls ``pair_fields`` once per stencil point.
    """
    x, y = mesh.xy()
    p = np.stack(_one_period(pair_fields(field, x, y)))
    return _coefficients(p, _fd_xy(
        lambda a, b: np.stack([q := np.stack(pair_fields(field, a, b)[:len(p)]), 1.0 / q]), x, y, h))


# --------------------------------------------------------------------------
# pair integral and mesh derivatives
# --------------------------------------------------------------------------

def _check_finite(state: np.ndarray, degree: int, first_ray: int):
    """Raise on the first non-finite entry of a (steps, 2, seeds, rays) state, by ray then step."""
    bad = ~np.isfinite(state)
    if bad.any():
        r, s = np.argwhere(bad.any(axis=(1, 2)).T)[0]
        raise NumericalError(f"non-finite formal power value at degree {degree}, "
                             f"ray {first_ray + r}, step {s}")


class _Chains:
    """The formal-power chains of several seeds, run together on one mesh.

    The state holds the real running integrals (A, B) of every chain, steps
    first, as a (L, 2, seeds, P) array: W = p A + i B / p for the pair p
    of the current degree (L - 1 >= S steps pad the last quadrature chunk).
    Each degree forms both integrands of every chain from the state and
    integrates them in one product, which writes straight into the state.
    ``ps`` holds the p field (P, S+1) of each pair of the sequence's period;
    ``first_ray`` is the index of the mesh's first ray in a larger mesh it
    was sliced from, by which error messages report rays.
    """

    def __init__(self, ps: list, mesh: RadialMesh, seeds, first_ray: int = 0):
        lo, self.op = mesh.quadrature   # chunk c: window rows -> b prefix sums
        C, b, width = self.op.shape
        self.ps, self.mesh, self.seeds, self.first_ray = ps, mesh, seeds, first_ray
        S = mesh.step_count
        self.state = np.empty((1 + C * b, 2, len(seeds), mesh.ray_count))
        # chunk c reads the integrand buffer from step c b + lo on, at the fixed
        # stride b, so the windows are views of the buffer rather than a
        # gathered copy; zero rows pad steps 0..S at both ends
        buffer = np.zeros(((C - 1) * b + width, self.state[0].size))
        self.integrands = buffer[-lo:S + 1 - lo].reshape((S + 1,) + self.state.shape[1:])
        self.windows = sliding_window_view(buffer, width, axis=0)[::b].transpose(0, 2, 1)
        # integrand coefficients of the step that leaves pair k for pair j = k - 1 (mod
        # the period): with W = pk A + i B / pk and span = sr + i si, the two real
        # integrands of the pair-j integral are A pk sr/pj - B si/(pk pj) and
        # A pk pj si + B pj sr/pk, written in place: temporaries would fault in fresh
        # pages in every block
        store = np.empty((len(ps), 2, 2, S + 1, mesh.ray_count))
        sr, si = mesh.span.real, mesh.span.imag
        for k, c in enumerate(store):
            pk, pj = ps[k].T, ps[k - 1].T
            np.divide(np.multiply(pk, sr, out=c[0, 0]), pj, out=c[0, 0])
            np.divide(-si, np.multiply(pk, pj, out=c[1, 0]), out=c[0, 1])
            np.multiply(c[1, 0], si, out=c[1, 0])
            np.divide(np.multiply(pj, sr, out=c[1, 1]), pk, out=c[1, 1])
        self.coefficients = np.moveaxis(store, 3, 1)  # (period, S+1, 2, 2, P)

    def powers(self, N: int):
        """Yield (d, A, B) at each pair-0 degree d <= N, A and B (S+1, seeds, P).

        Z^(d)(seed) = p A + i B / p with the pair-0 p, steps first; A and B
        are views of the state, which the next step overwrites.
        """
        k, S = len(self.ps), self.mesh.step_count
        for start in range(min(k, N + 1)):
            # the chain seeded at pair index `start` delivers the pair-0 powers of
            # degrees d with (start - d) % k == 0, the last of them N - (N - start) % k
            self.state[:] = 0.0
            self.add_degree_zero(start % k, self.seeds)
            if start % k == 0:
                yield 0, self.state[:S + 1, 0], self.state[:S + 1, 1]
            for d in range(1, N - (N - start) % k + 1):
                self.step((start - d + 1) % k, d)
                if (start - d) % k == 0:
                    yield d, self.state[:S + 1, 0], self.state[:S + 1, 1]

    def add_degree_zero(self, j: int, seeds):
        """Add to each chain the degree-0 power lambda p + i mu / p of its seed a with
        the pair p of index j: lambda = Re a / p0, mu = p0 Im a, p0 = p at the origin."""
        p0 = self.ps[j][0, 0]
        self.state += np.array([[complex(a).real / p0 for a in seeds],
                                [complex(a).imag * p0 for a in seeds]])[:, :, None]

    def step(self, k: int, d: int):
        """Advance every chain to degree d: d times the integral, with the pair of index
        k - 1 (mod the period), of the state, whose power carries pair index k; then
        raise on a non-finite value, naming degree d, its ray and its step."""
        np.einsum("scir,sinr->scnr", self.coefficients[k],
                  self.state[:len(self.integrands)], out=self.integrands)
        Y = self.state[1:].reshape(self.op.shape[:2] + (-1,))    # (C, b, columns)
        np.matmul(d * self.op, self.windows, out=Y)
        Y[1:] += np.cumsum(Y[:-1, -1:], axis=0)                   # carry the chunk totals
        self.state[0] = 0.0
        _check_finite(self.state[:self.mesh.step_count + 1], d, self.first_ray)


def fg_integral(W: np.ndarray, pair: GeneratingPair, mesh: RadialMesh) -> np.ndarray:
    """Pair integral of W from the center along every ray, for the pair (p, i/p).

    Returns p Re(int G* W dz) + (i/p) Re(int F* W dz) cumulatively at every
    node; the value at s = 0 is 0. With p = 1 this is the ordinary complex
    contour integral. It is one step of a one-seed chain from the pair to
    itself: W = p A + i B / p is loaded as A = Re W / p, B = p Im W.
    """
    p = pair.p
    S = mesh.step_count
    chains = _Chains([p], mesh, (1.0,))
    chains.state[:S + 1, 0, 0] = (np.real(W) / p).T
    chains.state[:S + 1, 1, 0] = (p * np.imag(W)).T
    chains.step(0, 1)
    return p * chains.state[:S + 1, 0, 0].T + 1j * (chains.state[:S + 1, 1, 0].T / p)


def _gradient_operator(mesh: RadialMesh):
    """(..., P, S+1) fields W -> (d/dx W, d/dy W) on ``mesh`` by curvilinear central differences.

    Parameter derivatives along t (radial) and theta (angular, periodic) are
    inverted through the numerically evaluated mesh Jacobian. The stencil
    weights and the Jacobian depend only on the mesh, so they are computed
    here once, as real arrays, and each call takes one difference pass over W
    per parameter; for a complex W numpy casts them in its buffered loops,
    block by block, and holds no complex copy. The center column (s = 0) is
    singular and returned as NaN; the rim column uses one-sided differences in t.
    """
    t, th = mesh.t, mesh.theta
    # weights of f at the next node, the previous one and the node, and the denominator
    hp, hm = t[2:] - t[1:-1], t[1:-1] - t[:-2]
    t_next, t_prev, t_mid, t_den = hm ** 2, hp ** 2, hp ** 2 - hm ** 2, hp * hm * (hp + hm)
    h1, h2 = t[-1] - t[-2], t[-1] - t[-3]
    hp = (np.roll(th, -1) - th) % (2 * math.pi)
    hp[hp == 0] = 2 * math.pi
    hp, hm = hp[:, None], np.roll(hp, 1)[:, None]  # the gaps after and before each ray
    q_next, q_prev, q_mid, q_den = hm ** 2, hp ** 2, hp ** 2 - hm ** 2, hp * hm * (hp + hm)

    def d_dt(f):
        out = np.empty(f.shape, dtype=f.dtype)
        out[..., 1:-1] = (t_next * f[..., 2:] - t_prev * f[..., :-2] + t_mid * f[..., 1:-1]) / t_den
        out[..., 0] = (f[..., 1] - f[..., 0]) / (t[1] - t[0])
        # second-order one-sided at the rim
        out[..., -1] = (f[..., -1] * (h1 + h2) / (h1 * h2)
                        - f[..., -2] * h2 / (h1 * (h2 - h1))
                        + f[..., -3] * h1 / (h2 * (h2 - h1)))
        return out

    def d_dtheta(f):  # the first and last rays wrap around
        return (q_next * np.roll(f, -1, axis=-2) - q_prev * np.roll(f, 1, axis=-2)
                + q_mid * f) / q_den

    x, y = mesh.xy()
    xt, yt, xq, yq = d_dt(x), d_dt(y), d_dtheta(x), d_dtheta(y)
    det = xt * yq - xq * yt

    def gradient(W):
        Wt, Wq = d_dt(W), d_dtheta(W)
        with np.errstate(divide="ignore", invalid="ignore"):
            Wx = (Wt * yq - Wq * yt) / det
            Wy = (Wq * xt - Wt * xq) / det
        Wx[..., 0] = np.nan
        Wy[..., 0] = np.nan
        return Wx, Wy

    return gradient


def _vekua_operator(p: np.ndarray, mesh: RadialMesh):
    """W -> |dzbar(W) - b conj(W)| per node; b = dzbar(p)/p, on the mesh's own gradient."""
    def dzbar(W):
        Wx, Wy = mesh.gradient(np.asarray(W, dtype=complex))
        return Wx + 1j * Wy

    p = np.asarray(p, dtype=float)
    b = dzbar(p) / p
    return lambda W: np.abs(dzbar(W) - b * np.conj(W))


# --------------------------------------------------------------------------
# generating sequences
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratingSequence:
    """Periodic chain of generating pairs; pair_for(m) = pairs[m % period]."""

    pairs: tuple

    @property
    def period(self) -> int:
        return len(self.pairs)

    def pair_for(self, m: int) -> GeneratingPair:
        return self.pairs[m % self.period]


def limit_construction(field: ConductivityField) -> bool:
    """True when sigma is not separable, so its sequence is the period-1 limit case."""
    return not isinstance(field, SeparableField)


def pair_fields(field: ConductivityField, x, y) -> tuple:
    """The field p of each pair of the impedance-to-Vekua reduction, at points (x, y).

    Separable fields give (p2/p1, p1 p2) with p1 = sqrt(sigma1), p2 = sqrt(sigma2)
    (per slab where applicable); the limit construction gives (sqrt(sigma),).
    """
    if limit_construction(field):
        return (np.sqrt(field.evaluate(x, y)),)
    s1, s2 = field.separable_parts(x, y)
    p1, p2 = np.sqrt(s1), np.sqrt(s2)
    return p2 / p1, p1 * p2


def _one_period(ps: tuple) -> tuple:
    """One period of pair fields: two that coincide (sigma1 constant) are period 1."""
    return ps[:1] if len(ps) == 2 and np.array_equal(*ps) else ps


def build_sequence(field: ConductivityField, mesh: RadialMesh) -> GeneratingSequence:
    """Generating sequence of the impedance-to-Vekua reduction for a conductivity field.

    Pair j is (p, i/p) with p = ``pair_fields(field, x, y)[j]`` sampled at the
    mesh nodes, over ``_one_period``.
    """
    return GeneratingSequence(tuple(GeneratingPair(p) for p in
                                    _one_period(pair_fields(field, *mesh.xy()))))


def _successor_gaps(B: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|B_(m+1) + b_m| per node for each m in one period, from (B, b) stacked over the pairs."""
    return np.abs(np.roll(B, -1, axis=0) + b)


def successor_residual(field: ConductivityField, mesh: RadialMesh, h: float = 1e-4):
    """max|B_(m+1) + b_m| over nodes per m in one period of the field's sequence (Cartesian stencil).

    For separable conductivities the finite-difference truncation cancels
    exactly between the two pairs (the separable factors drop out of the
    shared difference quotients), so the residual sits at the rounding floor.
    For a period-1 sequence built from an x-dependent conductivity the
    residual instead measures |2 dx(p)/p|, the gap of the limit-case
    construction, and is not expected to be small.
    """
    return [float(np.max(g)) for g in _successor_gaps(*characteristic_coefficients(field, mesh, h))]


def successor_residual_mesh(seq: GeneratingSequence, mesh: RadialMesh):
    """Successor residual with derivatives taken on the mesh itself.

    The polar stencils mix x and y, so no structural cancellation occurs and
    the residual reflects genuine discretization error: it shrinks at second
    order as the mesh is refined. Interior nodes only (the center column is
    singular and the rim column one-sided). p and 1/p of all pairs take one gradient pass.
    """
    p = np.stack([pair.p for pair in seq.pairs])
    B, b = _coefficients(p, mesh.gradient(np.stack([p, 1.0 / p])))
    return [float(np.nanmax(g[:, 1:-1])) for g in _successor_gaps(B, b)]
