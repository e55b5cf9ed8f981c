"""Conductivity fields on the closed unit disk.

Four model variants are supported:

* ``AnalyticSeparable`` -- sigma(x, y) = sigma1(x) * sigma2(y) with both
  factors given in closed form.
* ``PiecewiseSeparable`` -- the slab construction: the disk is cut into
  vertical slabs and sigma restricted to slab j has the separable form
  ((x + K) / (chi_j + K)) * f_j(y), with f_j interpolating conductivity
  samples collected along the line x = chi_j.
* ``LimitCase`` -- an arbitrary positive sampler sigma(x, y) treated as the
  M, q -> infinity limit of the slab construction (the x-factor degenerates
  to 1, which downstream yields a period-1 generating sequence).
* ``GeometricScene`` -- constant background plus constant-valued shapes
  (disks, annuli, polygons); the last listed shape containing a point wins.

All fields are immutable after construction and evaluation is pure, so they
are safe to share across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import CubicSpline, RegularGridInterpolator

from .errors import DomainError, ValidationError

DISK_TOL = 1e-12


def _as_float_arrays(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValidationError(f"x and y shapes differ: {x.shape} vs {y.shape}")
    return x, y


class ConductivityField:
    """Base class: a strictly positive scalar field on the closed unit disk.

    ``bounds``, when provided, is a known (sigma_min, sigma_max) envelope that
    every evaluated value is checked against.
    """

    variant = "abstract"

    def __init__(self, bounds: tuple[float, float] | None = None):
        if bounds is not None:
            lo, hi = float(bounds[0]), float(bounds[1])
            if not (0.0 < lo <= hi) or not math.isfinite(hi):
                raise ValidationError(f"invalid conductivity bounds {bounds}")
            bounds = (lo, hi)
        self.bounds = bounds

    def _eval(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, x, y):
        """Evaluate sigma at point(s) inside the closed unit disk.

        Raises ``DomainError`` for points with x^2 + y^2 > 1 + 1e-12 and
        ``ValidationError`` if the underlying sampler produces a non-positive
        or non-finite value.
        """
        x, y = _as_float_arrays(x, y)
        r2 = x * x + y * y
        if np.any(r2 > 1.0 + DISK_TOL):
            worst = float(np.max(r2))
            raise DomainError(f"point outside the closed unit disk (max x^2+y^2 = {worst!r})")
        scalar = x.ndim == 0
        xf, yf = np.atleast_1d(x).ravel(), np.atleast_1d(y).ravel()
        out = np.asarray(self._eval(xf, yf), dtype=float)
        if not np.all(np.isfinite(out)) or np.any(out <= 0.0):
            raise ValidationError(f"{self.variant} sampler produced a non-positive or non-finite value")
        if self.bounds is not None:
            lo, hi = self.bounds
            if np.any(out < lo * (1 - 1e-12)) or np.any(out > hi * (1 + 1e-12)):
                raise ValidationError(f"{self.variant} value escapes declared bounds {self.bounds}")
        return float(out[0]) if scalar else out.reshape(x.shape)


def evaluate(field: ConductivityField, x, y):
    """Functional alias for ``field.evaluate(x, y)``."""
    return field.evaluate(x, y)


class AnalyticSeparable(ConductivityField):
    """sigma(x, y) = sigma1(x) * sigma2(y), both factors positive on [-1, 1]."""

    variant = "analytic-separable"

    def __init__(self, sigma1: Callable, sigma2: Callable, bounds=None):
        super().__init__(bounds)
        self.sigma1 = sigma1
        self.sigma2 = sigma2

    def separable_parts(self, x, y):
        x, y = _as_float_arrays(x, y)
        s1 = np.asarray(self.sigma1(x), dtype=float)
        s2 = np.asarray(self.sigma2(y), dtype=float)
        if np.any(~np.isfinite(s1)) or np.any(s1 <= 0) or np.any(~np.isfinite(s2)) or np.any(s2 <= 0):
            raise ValidationError("separable factors must be positive and finite on [-1, 1]")
        return s1, s2

    def _eval(self, x, y):
        s1, s2 = self.separable_parts(x, y)
        return s1 * s2


def constant_field(value: float = 1.0) -> AnalyticSeparable:
    """sigma == value, as a (trivially) separable field."""
    v = float(value)
    if not (v > 0 and math.isfinite(v)):
        raise ValidationError(f"constant conductivity must be positive, got {value!r}")
    return AnalyticSeparable(lambda x: np.full_like(np.asarray(x, float), v),
                             lambda y: np.ones_like(np.asarray(y, float)),
                             bounds=(v, v))


@dataclass(frozen=True)
class Slab:
    """One vertical slab [x_lo, x_hi) with sampling line x = chi."""

    x_lo: float
    x_hi: float
    chi: float
    K: float
    f: Callable  # 1-D interpolant of y, clamped outside the sampled range

    def x_factor(self, x):
        return (np.asarray(x, float) + self.K) / (self.chi + self.K)


class PiecewiseSeparable(ConductivityField):
    """Slab-wise separable field, sigma = ((x+K)/(chi_j+K)) * f_j(y) on slab j.

    Slabs partition [-1, 1]; each slab is half-open [x_lo, x_hi) except the
    last, which is closed.
    """

    variant = "piecewise-separable"

    def __init__(self, slabs: Sequence[Slab], bounds=None):
        super().__init__(bounds)
        slabs = tuple(slabs)
        if not slabs:
            raise ValidationError("at least one slab required")
        if abs(slabs[0].x_lo + 1.0) > 1e-12 or abs(slabs[-1].x_hi - 1.0) > 1e-12:
            raise ValidationError("slabs must cover [-1, 1]")
        for a, b in zip(slabs, slabs[1:]):
            if abs(a.x_hi - b.x_lo) > 1e-12:
                raise ValidationError("consecutive slabs must share endpoints")
        for s in slabs:
            if not (s.x_lo <= s.chi <= s.x_hi):
                raise ValidationError(f"sampling line chi={s.chi} outside slab [{s.x_lo}, {s.x_hi}]")
            if s.K < 2.0 - 1e-12:
                # x + K must stay away from zero on [-1, 1]; K >= 2 gives x + K >= 1.
                raise ValidationError(f"slab constant K={s.K} must be >= 2")
        self.slabs = slabs
        self._inner_edges = np.array([s.x_hi for s in slabs[:-1]])

    def slab_index(self, x):
        x = np.asarray(x, float)
        return np.searchsorted(self._inner_edges, x, side="right")

    def separable_parts(self, x, y):
        x, y = _as_float_arrays(x, y)
        j = self.slab_index(x)
        s1 = np.empty(x.shape, dtype=float)
        s2 = np.empty(x.shape, dtype=float)
        for k, slab in enumerate(self.slabs):
            m = j == k
            if not np.any(m):
                continue
            s1[m] = slab.x_factor(x[m])
            s2[m] = slab.f(y[m])
        return s1, s2

    def _eval(self, x, y):
        s1, s2 = self.separable_parts(x, y)
        return s1 * s2


def build_piecewise(samples, slab_edges, K: float = 2.0, interpolant: str = "linear") -> PiecewiseSeparable:
    """Assemble a PiecewiseSeparable field from per-slab conductivity samples.

    Parameters
    ----------
    samples:
        One entry per slab: ``(chi_j, [(y, sigma), ...])`` with the sample
        ordinates strictly increasing in y and all sigma values positive.
    slab_edges:
        Slab boundaries, [-1, ..., 1], strictly increasing.
    K:
        Positive constant keeping x + K away from zero (default 2, so
        x + K >= 1 on the disk).
    interpolant:
        ``"linear"`` (default; positivity-preserving piecewise-linear through
        the samples, clamped to endpoint values outside the sampled range) or
        ``"cubic"`` (natural cubic spline, also clamped).
    """
    edges = np.asarray(slab_edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValidationError("slab_edges must be strictly increasing with at least two entries")
    if len(samples) != len(edges) - 1:
        raise ValidationError(f"{len(samples)} sample lines for {len(edges) - 1} slabs")
    if interpolant not in ("linear", "cubic"):
        raise ValidationError(f"unknown interpolant {interpolant!r}")

    slabs = []
    for j, (chi, pts) in enumerate(samples):
        pts = list(pts)
        if len(pts) < 2:
            raise ValidationError(f"slab {j}: need at least 2 samples, got {len(pts)}")
        ys = np.array([p[0] for p in pts], dtype=float)
        vals = np.array([p[1] for p in pts], dtype=float)
        if np.any(np.diff(ys) <= 0):
            raise ValidationError(f"slab {j}: sample ordinates must be strictly increasing in y")
        if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
            raise ValidationError(f"slab {j}: conductivity samples must be positive and finite")
        if interpolant == "linear":
            f = _clamped_linear(ys, vals)
        else:
            f = _clamped_spline(ys, vals)
        slabs.append(Slab(x_lo=float(edges[j]), x_hi=float(edges[j + 1]),
                          chi=float(chi), K=float(K), f=f))
    return PiecewiseSeparable(slabs)


def _clamped_linear(ys, vals):
    def f(y):
        return np.interp(np.asarray(y, float), ys, vals)  # np.interp clamps outside
    return f


def _clamped_spline(ys, vals):
    spl = CubicSpline(ys, vals)

    def f(y):
        return spl(np.clip(np.asarray(y, float), ys[0], ys[-1]))
    return f


def sample_piecewise(sigma_fn: Callable, M: int, q: int, K: float = 2.0,
                     interpolant: str = "linear") -> PiecewiseSeparable:
    """Sample an arbitrary evaluator sigma(x, y) into the M-slab construction.

    Slabs are uniform on [-1, 1]; the sampling line of each slab is its
    midline, and q values are collected along the chord of the disk at that
    abscissa.
    """
    if M < 1 or q < 2:
        raise ValidationError(f"need M >= 1 slabs and q >= 2 samples, got M={M}, q={q}")
    edges = np.linspace(-1.0, 1.0, M + 1)
    samples = []
    for j in range(M):
        chi = 0.5 * (edges[j] + edges[j + 1])
        ylim = math.sqrt(max(1.0 - chi * chi, 0.0))
        ys = np.linspace(-ylim, ylim, q)
        vals = np.asarray(sigma_fn(np.full(q, chi), ys), dtype=float)
        samples.append((chi, list(zip(ys.tolist(), vals.tolist()))))
    return build_piecewise(samples, edges, K=K, interpolant=interpolant)


class LimitCase(ConductivityField):
    """Arbitrary positive evaluator treated as the limit of the slab construction.

    The sampler must be total on the closed unit disk; downstream this variant
    yields a period-1 generating sequence with p = sqrt(sigma).
    """

    variant = "limit-case"

    def __init__(self, sampler: Callable, bounds=None):
        super().__init__(bounds)
        self.sampler = sampler

    def _eval(self, x, y):
        return np.asarray(self.sampler(x, y), dtype=float)


# --- geometric scenes -------------------------------------------------------

@dataclass(frozen=True)
class DiskShape:
    cx: float
    cy: float
    r2: float  # squared-radius bound, membership (x-cx)^2 + (y-cy)^2 <= r2
    value: float

    def contains(self, x, y):
        return (x - self.cx) ** 2 + (y - self.cy) ** 2 <= self.r2


@dataclass(frozen=True)
class AnnulusShape:
    cx: float
    cy: float
    r2_inner: float
    r2_outer: float
    value: float

    def contains(self, x, y):
        d2 = (x - self.cx) ** 2 + (y - self.cy) ** 2
        return (d2 >= self.r2_inner) & (d2 <= self.r2_outer)


@dataclass(frozen=True)
class PolygonShape:
    vertices: tuple  # ((x, y), ...) in order, no repetition of the first vertex
    value: float

    def contains(self, x, y):
        return _polygon_contains(self.vertices, x, y)

    def corner_angles(self):
        """Polar angles of the vertices, for corner-crossing ray placement."""
        return tuple(math.atan2(vy, vx) % (2 * math.pi) for vx, vy in self.vertices)


def _polygon_contains(vertices, x, y):
    # Even-odd crossing test plus explicit edge membership: shapes are closed,
    # so a point on an edge or vertex belongs to the polygon.
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    inside = np.zeros(x.shape, dtype=bool)
    on_edge = np.zeros(x.shape, dtype=bool)
    n = len(vertices)
    scale = max(max(abs(vx), abs(vy)) for vx, vy in vertices) or 1.0
    tol = 1e-12 * scale
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        seg = max(abs(x2 - x1), abs(y2 - y1)) or 1.0
        within = ((np.minimum(x1, x2) - tol <= x) & (x <= np.maximum(x1, x2) + tol)
                  & (np.minimum(y1, y2) - tol <= y) & (y <= np.maximum(y1, y2) + tol))
        on_edge |= within & (np.abs(cross) <= tol * seg)
        cond = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= cond & (x < xint)
    return inside | on_edge


class GeometricScene(ConductivityField):
    """Constant background plus constant-valued shapes; last listed shape wins."""

    variant = "scene"

    def __init__(self, background: float, shapes: Sequence, bounds=None):
        if not (background > 0 and math.isfinite(background)):
            raise ValidationError(f"background conductivity must be positive, got {background!r}")
        for sh in shapes:
            if not (sh.value > 0 and math.isfinite(sh.value)):
                raise ValidationError(f"shape value must be positive, got {sh.value!r}")
        if bounds is None:
            vals = [background] + [sh.value for sh in shapes]
            bounds = (min(vals), max(vals))
        super().__init__(bounds)
        self.background = float(background)
        self.shapes = tuple(shapes)

    def _eval(self, x, y):
        out = np.full(x.shape, self.background, dtype=float)
        for sh in self.shapes:
            m = sh.contains(x, y)
            out[m] = sh.value
        return out

    def corner_angles(self):
        angles = []
        for sh in self.shapes:
            if isinstance(sh, PolygonShape):
                angles.extend(sh.corner_angles())
        return tuple(angles)


def scene_from_dict(d: dict) -> GeometricScene:
    """Parse the scene JSON fragment.

    Expected form::

        {"background": 10.0,
         "shapes": [{"kind": "disk", "cx": 0.6, "cy": 0.0, "r2": 0.2, "value": 100.0}]}

    where ``r2`` bounds the squared radius. Annuli carry ``r2_inner`` /
    ``r2_outer``; polygons carry ``vertices`` as a list of [x, y] pairs.
    """
    try:
        background = float(d["background"])
        shapes = []
        for s in d.get("shapes", []):
            kind = s["kind"]
            if kind == "disk":
                shapes.append(DiskShape(float(s["cx"]), float(s["cy"]),
                                        float(s["r2"]), float(s["value"])))
            elif kind == "annulus":
                shapes.append(AnnulusShape(float(s["cx"]), float(s["cy"]),
                                           float(s["r2_inner"]), float(s["r2_outer"]),
                                           float(s["value"])))
            elif kind == "polygon":
                verts = tuple((float(vx), float(vy)) for vx, vy in s["vertices"])
                if len(verts) < 3:
                    raise ValidationError("polygon needs at least 3 vertices")
                shapes.append(PolygonShape(verts, float(s["value"])))
            else:
                raise ValidationError(f"unknown shape kind {kind!r}")
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed scene fragment: {exc!r}") from exc
    return GeometricScene(background, shapes)


# --- radial rings (the five-ring piecewise-constant profile) ----------------

RING_EDGES = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
RING_VALUES = (100.0, 30.0, 20.0, 15.0, 30.0)


def eval_radial_piecewise(r):
    """Five-ring radial profile: 100, 30, 20, 15, 30 on half-open rings.

    Rings are [0, 0.2), [0.2, 0.4), [0.4, 0.6), [0.6, 0.8), [0.8, 1]; the
    value at r = 1 is 30.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0) or np.any(r > 1.0 + DISK_TOL):
        raise DomainError("radius outside [0, 1]")
    idx = np.clip(np.searchsorted(RING_EDGES, r, side="right") - 1, 0, len(RING_VALUES) - 1)
    out = np.asarray(RING_VALUES, dtype=float)[idx]
    return out if out.ndim else float(out)


def radial_rings_field() -> LimitCase:
    """The five-ring radial profile as a limit-case field."""
    return LimitCase(lambda x, y: eval_radial_piecewise(np.hypot(x, y)),
                     bounds=(min(RING_VALUES), max(RING_VALUES)))


# --- gridded CSV ingestion ---------------------------------------------------

def load_conductivity_csv(path) -> LimitCase:
    """Load a rectilinear (x, y, sigma) grid from CSV and wrap it as a LimitCase.

    Format: header ``x,y,sigma``, one row per grid node, row-major over a
    rectilinear grid. Evaluation is bilinear inside the grid hull and clamps
    to the nearest hull point outside it (but inside the disk).
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [(float(a), float(b), float(c)) for a, b, c in reader]
    except (OSError, StopIteration, ValueError) as exc:
        raise ValidationError(f"cannot read conductivity CSV {path!r}: {exc}") from exc
    if [h.strip().lower() for h in header] != ["x", "y", "sigma"]:
        raise ValidationError(f"conductivity CSV must have header x,y,sigma, got {header!r}")
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        raise ValidationError("conductivity CSV is empty")
    if not np.all(np.isfinite(data[:, :2])):
        raise ValidationError("conductivity CSV contains non-finite x or y coordinates")
    xs = np.unique(data[:, 0])
    ys = np.unique(data[:, 1])
    if len(xs) * len(ys) != len(data):
        raise ValidationError("conductivity CSV is not a complete rectilinear grid")
    order = np.lexsort((data[:, 1], data[:, 0]))
    grid = data[order, 2].reshape(len(xs), len(ys))
    if np.any(grid <= 0) or not np.all(np.isfinite(grid)):
        raise ValidationError("conductivity CSV contains non-positive or non-finite values")
    interp = RegularGridInterpolator((xs, ys), grid, method="linear",
                                     bounds_error=False, fill_value=None)

    def sampler(x, y):
        xc = np.clip(np.asarray(x, float), xs[0], xs[-1])
        yc = np.clip(np.asarray(y, float), ys[0], ys[-1])
        return interp(np.stack([xc, yc], axis=-1))

    return LimitCase(sampler, bounds=(float(grid.min()), float(grid.max())))
