"""Exact solutions and independent finite-difference oracles.

The two closed-form conductivity/potential pairs used throughout the tests
share one structure: sigma = sigma1(x) * sigma2(y) and the potential is
u(x, y) = A(x) + B(y) with A' = c / sigma1 and B' = c / sigma2, which makes
div(sigma grad u) vanish identically. The divergence oracle below checks that
property by second-order central differences and is the ground truth every
solver run is measured against.

All closures here preserve the floating dtype of their inputs, so the oracle
can run in extended precision (``dtype=np.longdouble``) where float64
second-difference rounding would mask the h^2 truncation order.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .conductivity import AnalyticSeparable, ConductivityField, constant_field
from .errors import ValidationError

log = logging.getLogger(__name__)

SQRT3 = math.sqrt(3.0)


def _f(v):
    # float-coerce without forcing float64 (keeps longdouble inputs intact)
    return np.asarray(v) + 0.0


@dataclass(frozen=True)
class ExactCase:
    """A conductivity field paired with an exact potential solving div(sigma grad u) = 0."""

    name: str
    field: ConductivityField
    u: Callable             # u(x, y), vectorized, dtype-preserving
    sigma: Callable         # sigma(x, y), vectorized, dtype-preserving (no domain checks)

    def boundary_data(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self.u(np.cos(theta), np.sin(theta))


def sinusoidal_case(omega: float) -> ExactCase:
    """sigma = (2 + cos(w x)) (2 + sin(w y)) with its closed-form potential.

    The potential is

        u = (2/sqrt3) [ arctan(tan(w x / 2) / sqrt3)
                        + arctan((1 + 2 tan(w y / 2)) / sqrt3) ],

    evaluated through atan2 so that the w = pi endpoint (where the inner
    tangents blow up at |x| = 1, |y| = 1) takes its continuous one-sided
    limits on the closed disk:

        arctan(tan(a) / sqrt3)         == atan2(sin a, sqrt3 cos a)
        arctan((1 + 2 tan(b)) / sqrt3) == atan2(cos b + 2 sin b, sqrt3 cos b)

    for |a|, |b| <= pi/2. Valid for omega in (0, pi].
    """
    omega = float(omega)
    if not (0.0 < omega <= math.pi):
        raise ValidationError(f"omega must lie in (0, pi], got {omega!r}")

    def sigma1(x):
        return 2.0 + np.cos(omega * _f(x))

    def sigma2(y):
        return 2.0 + np.sin(omega * _f(y))

    def u(x, y):
        a = 0.5 * omega * _f(x)
        b = 0.5 * omega * _f(y)
        term_x = np.arctan2(np.sin(a), SQRT3 * np.cos(a))
        term_y = np.arctan2(np.cos(b) + 2.0 * np.sin(b), SQRT3 * np.cos(b))
        return (2.0 / SQRT3) * (term_x + term_y)

    return ExactCase(name="sinusoidal",
                     field=AnalyticSeparable(sigma1, sigma2, bounds=(1.0, 9.0)),
                     u=u, sigma=lambda x, y: sigma1(x) * sigma2(y))


def lorentzian_case(beta: float) -> ExactCase:
    """sigma = ((x-b)^2 + 0.1)^-1 (y^2 + 0.1)^-1 with cubic potential.

    u = ((x-b)^3 + y^3)/3 + 0.1 (x - b + y). Note u_x = 1/sigma1 and
    u_y = 1/sigma2, the same structure as the sinusoidal case.
    """
    beta = float(beta)

    def sigma1(x):
        return 1.0 / ((_f(x) - beta) ** 2 + 0.1)

    def sigma2(y):
        return 1.0 / (_f(y) ** 2 + 0.1)

    def u(x, y):
        xs = _f(x) - beta
        ys = _f(y)
        return (xs ** 3 + ys ** 3) / 3.0 + 0.1 * (xs + ys)

    try:
        lo = 1.0 / (((1.0 + abs(beta)) ** 2 + 0.1) * 1.1)
    except OverflowError as exc:
        raise ValidationError(f"lorentzian beta {beta!r} overflows (1 + |beta|)**2") from exc
    return ExactCase(name=f"lorentzian(beta={beta:g})",
                     field=AnalyticSeparable(sigma1, sigma2, bounds=(lo, 100.0)),
                     u=u, sigma=lambda x, y: sigma1(x) * sigma2(y))


def constant_case() -> ExactCase:
    """sigma == 1 with the harmonic potential u = x^2 - y^2 (degenerate baseline)."""
    return ExactCase(name="constant",
                     field=constant_field(1.0),
                     u=lambda x, y: _f(x) ** 2 - _f(y) ** 2,
                     sigma=lambda x, y: np.ones_like(_f(x)))


def shifted_cubic(beta: float = 0.0) -> Callable:
    """The Lorentzian-family cubic trace used as imposed data for geometric scenes."""
    return lorentzian_case(beta).u


def divergence_residual(sigma_fn: Callable, u_fn: Callable, pts, h: float = 1e-4,
                        dtype=float) -> float:
    """Max of |sigma * lap(u) + grad(sigma) . grad(u)| over interior sample points.

    Second-order central differences with spacing ``h``; points closer than
    2h to the unit circle are skipped with a warning, and a ValidationError
    names h when no point remains. Returns the maximum absolute residual. Pass
    ``dtype=np.longdouble`` to push the rounding floor below the h^2
    truncation at small h.
    """
    pts = np.asarray(pts, dtype=dtype)
    if pts.ndim == 1:
        pts = pts[None, :]
    x, y = pts[:, 0], pts[:, 1]
    keep = np.hypot(x, y) <= 1.0 - 2.0 * h
    if not np.all(keep):
        log.warning("divergence_residual: skipping %d point(s) within 2h of the boundary",
                    int(np.sum(~keep)))
    x, y = x[keep], y[keep]
    if x.size == 0:
        raise ValidationError(f"divergence_residual: every sample point lies within 2h of "
                              f"the unit circle at h = {h!r}; use a smaller h")
    h = dtype(h)

    u0 = u_fn(x, y)
    ux = (u_fn(x + h, y) - u_fn(x - h, y)) / (2 * h)
    uy = (u_fn(x, y + h) - u_fn(x, y - h)) / (2 * h)
    uxx = (u_fn(x + h, y) - 2 * u0 + u_fn(x - h, y)) / (h * h)
    uyy = (u_fn(x, y + h) - 2 * u0 + u_fn(x, y - h)) / (h * h)
    sx = (sigma_fn(x + h, y) - sigma_fn(x - h, y)) / (2 * h)
    sy = (sigma_fn(x, y + h) - sigma_fn(x, y - h)) / (2 * h)
    res = sigma_fn(x, y) * (uxx + uyy) + sx * ux + sy * uy
    return float(np.max(np.abs(res)))


def interior_points(n: int, rmax: float = 0.95, seed: int = 0) -> np.ndarray:
    """n random points, uniform by area, in the disk of radius rmax, as an (n, 2) array.

    With u and v uniform on [0, 1), r = rmax * sqrt(u) and theta = 2 pi v; the n
    values of u come first, then the n values of v, all from
    ``random.Random(seed).random()``. The standard-library generator keeps
    ``numpy.random`` (about 7 MB resident, with the hashing modules it
    imports) out of every run; the same seed gives the same points.
    """
    rng = random.Random(seed)
    u, v = np.array([rng.random() for _ in range(2 * n)]).reshape(2, n)
    r = rmax * np.sqrt(u)
    th = 2 * math.pi * v
    return np.column_stack([r * np.cos(th), r * np.sin(th)])
