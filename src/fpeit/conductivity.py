"""Conductivity fields on the closed unit disk.

Four model variants are supported:

* ``AnalyticSeparable`` -- sigma(x, y) = sigma1(x) * sigma2(y) with both
  factors given in closed form.
* ``PiecewiseSeparable`` -- the slab construction: the disk is cut into
  vertical slabs and sigma restricted to slab j has the separable form
  ((x + K) / (chi_j + K)) * f_j(y), with f_j interpolating conductivity
  samples collected along the line x = chi_j. The field holds the slab
  edges as one array ``edges``, the sampling lines as ``chi``, the
  interpolants as ``factors`` and the scalar ``K``.
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
import numbers
import os
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ValidationError

DISK_TOL = 1e-12


def _as_float_arrays(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValidationError(f"x and y shapes differ: {x.shape} vs {y.shape}")
    return x, y


def finite(value, kind=numbers.Real) -> bool:
    """True for a finite ``kind`` that is not a bool (JSON true and false load as ints)."""
    return not isinstance(value, bool) and isinstance(value, kind) and math.isfinite(value)


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

    def corner_angles(self):
        """Polar angles of the corners that mesh rays must cross; none by default."""
        return ()


class SeparableField(ConductivityField):
    """sigma = s1 * s2 with (s1, s2) = ``separable_parts(x, y)``, which each subclass defines."""

    def _eval(self, x, y):
        s1, s2 = self.separable_parts(x, y)
        return s1 * s2


class AnalyticSeparable(SeparableField):
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


def constant_field(value: float = 1.0) -> AnalyticSeparable:
    """sigma == value, as a (trivially) separable field."""
    v = float(value)
    if not (v > 0 and math.isfinite(v)):
        raise ValidationError(f"constant conductivity must be positive, got {value!r}")
    return AnalyticSeparable(lambda x: np.full_like(np.asarray(x, float), v),
                             lambda y: np.ones_like(np.asarray(y, float)),
                             bounds=(v, v))


class PiecewiseSeparable(SeparableField):
    """Slab-wise separable field, sigma = ((x+K)/(chi[j]+K)) * factors[j](y) on slab j.

    Slab j is [edges[j], edges[j+1]), half-open except the last, which is
    closed; the edges partition [-1, 1], chi[j] is the slab's sampling line and
    factors[j] its y-interpolant.
    """

    variant = "piecewise-separable"

    def __init__(self, edges, chi, factors: Sequence[Callable], K: float = 2.0):
        super().__init__()
        edges, chi, factors = np.array(edges, dtype=float), np.array(chi, dtype=float), tuple(factors)
        if edges.ndim != 1 or len(edges) < 2 or not np.all(np.diff(edges) > 0):
            raise ValidationError("slab edges must be strictly increasing with at least two entries")
        if abs(edges[0] + 1.0) > 1e-12 or abs(edges[-1] - 1.0) > 1e-12:
            raise ValidationError("slabs must cover [-1, 1]")
        if chi.shape != (len(edges) - 1,) or len(factors) != len(edges) - 1:
            raise ValidationError(f"{chi.size} sampling lines and {len(factors)} factors "
                                  f"for {len(edges) - 1} slabs")
        outside = np.flatnonzero(~((edges[:-1] <= chi) & (chi <= edges[1:])))
        if len(outside):
            j = outside[0]
            raise ValidationError(f"sampling line chi={chi[j]} outside slab [{edges[j]}, {edges[j + 1]}]")
        if not K >= 2.0 - 1e-12:
            # x + K must stay away from zero on [-1, 1]; K >= 2 gives x + K >= 1.
            raise ValidationError(f"slab constant K={K} must be >= 2")
        self.edges, self.chi, self.factors, self.K = edges, chi, factors, float(K)

    def slab_index(self, x):
        return np.searchsorted(self.edges[1:-1], np.asarray(x, float), side="right")

    def separable_parts(self, x, y):
        x, y = _as_float_arrays(x, y)
        j = self.slab_index(x)
        s2 = np.empty(x.shape, dtype=float)
        for k, f in enumerate(self.factors):
            m = j == k
            if np.any(m):
                s2[m] = f(y[m])
        bad = np.flatnonzero(~(np.isfinite(s2) & (s2 > 0)))
        if len(bad):  # checked before pair_fields takes its square root
            k = bad[0]
            raise ValidationError(f"slab {j.flat[k]} y-factor is {float(s2.flat[k])!r} at y="
                                  f"{float(y.flat[k])!r}, not positive and finite: a cubic "
                                  f"interpolant can undershoot positive samples, a linear one cannot")
        return (x + self.K) / (self.chi[j] + self.K), s2


def build_piecewise(samples, slab_edges, K: float = 2.0, interpolant: str = "linear") -> PiecewiseSeparable:
    """Assemble a PiecewiseSeparable field from per-slab conductivity samples.

    Parameters
    ----------
    samples:
        One entry per slab: ``(chi_j, ys, sigmas)`` with the sample ordinates
        ``ys`` strictly increasing and as many positive ``sigmas`` as ``ys``.
    slab_edges:
        Slab boundaries, [-1, ..., 1], strictly increasing.
    K:
        Positive constant keeping x + K away from zero (default 2, so
        x + K >= 1 on the disk).
    interpolant:
        ``"linear"`` (default; positivity-preserving piecewise-linear through
        the samples, clamped to endpoint values outside the sampled range) or
        ``"cubic"`` (not-a-knot cubic spline, also clamped; between samples it
        can undershoot them, even below zero).
    """
    if interpolant not in ("linear", "cubic"):
        raise ValidationError(f"unknown interpolant {interpolant!r}")
    factors = []
    for j, (_, ys, sigmas) in enumerate(samples):
        ys, vals = np.array(ys, dtype=float), np.array(sigmas, dtype=float)
        if ys.ndim != 1 or ys.shape != vals.shape or len(ys) < 2:
            raise ValidationError(f"slab {j}: need at least 2 samples, as many ys as sigmas")
        if np.any(np.diff(ys) <= 0):
            raise ValidationError(f"slab {j}: sample ordinates must be strictly increasing in y")
        if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
            raise ValidationError(f"slab {j}: conductivity samples must be positive and finite")
        factors.append((_clamped_linear if interpolant == "linear" else _clamped_spline)(ys, vals))
    return PiecewiseSeparable(slab_edges, [s[0] for s in samples], factors, K)


def _clamped_linear(ys, vals):
    def f(y):
        return np.interp(np.asarray(y, float), ys, vals)  # np.interp clamps outside
    return f


def _clamped_spline(ys, vals):
    from scipy.interpolate import CubicSpline  # scipy loads only for cubic interpolants

    spl = CubicSpline(ys, vals)

    def f(y):
        return spl(np.clip(np.asarray(y, float), ys[0], ys[-1]))
    return f


def sample_piecewise(sigma_fn: Callable, M: int, q: int, K: float = 2.0,
                     interpolant: str = "linear") -> PiecewiseSeparable:
    """Sample an arbitrary evaluator sigma(x, y) into the M-slab construction.

    Slabs are uniform on [-1, 1]; the sampling line of each slab is its
    midline, and q values are collected along the chord of the disk at that
    abscissa. One call of ``sigma_fn`` takes the (M, q) grid of all samples.
    """
    if M < 1 or q < 2:
        raise ValidationError(f"need M >= 1 slabs and q >= 2 samples, got M={M}, q={q}")
    edges = np.linspace(-1.0, 1.0, M + 1)
    chi = 0.5 * (edges[:-1] + edges[1:])
    ylim = np.sqrt(1.0 - chi * chi)
    ys = np.linspace(-ylim, ylim, q, axis=1)  # (M, q): slab j samples row j
    sigmas = np.asarray(sigma_fn(np.repeat(chi[:, None], q, axis=1), ys), dtype=float)
    return build_piecewise(list(zip(chi, ys, sigmas)), edges, K=K, interpolant=interpolant)


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

    def empty(self):
        return self.r2 <= 0


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

    def empty(self):
        return self.r2_outer <= max(self.r2_inner, 0.0)


@dataclass(frozen=True)
class PolygonShape:
    vertices: tuple  # ((x, y), ...) in order, no repetition of the first vertex
    value: float

    def contains(self, x, y):
        return _polygon_contains(self.vertices, x, y)

    def corner_angles(self):
        """Polar angles of the vertices, for corner-crossing ray placement."""
        return tuple(math.atan2(vy, vx) % (2 * math.pi) for vx, vy in self.vertices)

    def empty(self):
        # fewer than 3 vertices, or all on one line, enclose nothing (a bow-tie does)
        v = np.array(self.vertices)
        return len(v) < 3 or (np.linalg.svd(v - v.mean(axis=0), compute_uv=False)[-1]
                              <= 1e-12 * np.abs(v).max())


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

    def __init__(self, background: float, shapes: Sequence):
        if not (finite(background) and background > 0):
            raise ValidationError(f"background must be a finite number > 0, got {background!r}")
        for sh in shapes:
            if not (sh.value > 0 and math.isfinite(sh.value)):
                raise ValidationError(f"shape value must be positive, got {sh.value!r}")
        vals = [background] + [sh.value for sh in shapes]
        super().__init__((min(vals), max(vals)))
        self.background = float(background)
        self.shapes = tuple(shapes)

    def _eval(self, x, y):
        out = np.full(x.shape, self.background, dtype=float)
        for sh in self.shapes:
            out[sh.contains(x, y)] = sh.value
        return out

    def corner_angles(self):
        return tuple(angle for sh in self.shapes if isinstance(sh, PolygonShape)
                     for angle in sh.corner_angles())


def check_keys(spec: dict, allowed, where: str):
    """Raise on a key of the ``where`` spec outside ``allowed``."""
    unknown = set(spec) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown {where} keys {sorted(unknown)}; "
                              f"known: {', '.join(allowed)}")


def check_list(value, ok, where: str, noun: str):
    """``value``; raises unless it is a list (or tuple) whose every entry passes ``ok``."""
    if not (isinstance(value, (list, tuple)) and all(map(ok, value))):
        raise ValidationError(f"{where} must be a list of {noun}, got {value!r}")
    return value


# a scene shape spec holds "kind" and the fields of its kind's dataclass
SHAPE_KINDS = {"disk": DiskShape, "annulus": AnnulusShape, "polygon": PolygonShape}


def _shape_from_dict(s: dict):
    """One scene shape: finite numbers in the fields of its kind, enclosing some area."""
    kind = s["kind"]
    if not (isinstance(kind, str) and kind in SHAPE_KINDS):
        raise ValidationError(f"unknown shape kind {kind!r}; known: {', '.join(SHAPE_KINDS)}")
    where, names = f"scene conductivity {kind}", [f.name for f in fields(SHAPE_KINDS[kind])]
    check_keys(s, ("kind", *names), where)

    def number(name, value):
        if not finite(value):
            raise ValidationError(f"{where} {name} must be a finite number, got {value!r}")
        return float(value)

    def pair(v):
        return isinstance(v, (list, tuple)) and len(v) == 2

    shape = SHAPE_KINDS[kind](**{
        name: tuple((number(name, vx), number(name, vy))
                    for vx, vy in check_list(s[name], pair, f"{where} {name}", "[x, y] pairs"))
        if name == "vertices" else number(name, s[name]) for name in names})
    if shape.empty():
        raise ValidationError(f"{where} encloses no area: {s!r}")
    return shape


def scene_from_dict(d: dict) -> GeometricScene:
    """Parse the scene JSON fragment.

    Expected form::

        {"background": 10.0,
         "shapes": [{"kind": "disk", "cx": 0.6, "cy": 0.0, "r2": 0.2, "value": 100.0}]}

    where ``r2`` bounds the squared radius. Annuli carry ``r2_inner`` /
    ``r2_outer``; polygons carry ``vertices`` as a list of [x, y] pairs.
    """
    try:
        background = d["background"]
        specs = check_list(d.get("shapes", []), lambda s: isinstance(s, dict),
                           "scene conductivity shapes", "objects")
        shapes = [_shape_from_dict(s) for s in specs]
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed scene conductivity: {exc!r}") from exc
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

def read_float_csv(path, header: Sequence[str], what: str) -> np.ndarray:
    """Float rows of the CSV file ``path`` under ``header``, as an (n, len(header)) array.

    The header is matched ignoring case and surrounding spaces, a leading
    byte-order mark and lines that are empty or all spaces are skipped, and
    ``what`` names the file in error messages, all of them ValidationErrors.
    ``path`` must be a str or os.PathLike: ``open`` also takes an integer as
    a file descriptor, and 0 would read stdin.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise ValidationError(f"{what} CSV path must be a file name, got {path!r}")
    try:
        # utf-8-sig drops the byte-order mark of spreadsheet "CSV UTF-8" exports
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            names = next(reader)
            # skip blank lines ([]) and lines of spaces (one blank cell); read every other row
            rows = [[float(v) for v in row] for row in reader
                    if len(row) > 1 or row and row[0].strip()]
    except (OSError, StopIteration, ValueError) as exc:
        raise ValidationError(f"cannot read {what} CSV {path!r}: {exc}") from exc
    if [h.strip().lower() for h in names] != list(header):
        raise ValidationError(f"{what} CSV must have header {','.join(header)}, got {names!r}")
    if any(len(row) != len(header) for row in rows):
        raise ValidationError(f"{what} CSV {path!r} has a row without {len(header)} cells")
    return np.asarray(rows, dtype=float).reshape(-1, len(header))


def load_conductivity_csv(path) -> LimitCase:
    """Load a rectilinear (x, y, sigma) grid from CSV and wrap it as a LimitCase.

    Format: header ``x,y,sigma``, one row per grid node, row-major over a
    rectilinear grid. Evaluation is bilinear inside the grid hull and clamps
    to the nearest hull point outside it (but inside the disk).
    """
    data = read_float_csv(path, ("x", "y", "sigma"), "conductivity")
    if data.size == 0:
        raise ValidationError("conductivity CSV is empty")
    if not np.all(np.isfinite(data[:, :2])):
        raise ValidationError("conductivity CSV contains non-finite x or y coordinates")
    xs = np.unique(data[:, 0])
    ys = np.unique(data[:, 1])
    order = np.lexsort((data[:, 1], data[:, 0]))
    nodes = data[order, :2]
    repeats = np.flatnonzero((nodes[1:] == nodes[:-1]).all(axis=1))
    if len(repeats):  # with the count below, a repeat would permute the grid silently
        x, y = nodes[repeats[0]].tolist()
        raise ValidationError(f"conductivity CSV repeats the node x={x!r}, y={y!r}")
    if len(xs) * len(ys) != len(data):
        raise ValidationError("conductivity CSV is not a complete rectilinear grid")
    grid = data[order, 2].reshape(len(xs), len(ys))
    if np.any(grid <= 0) or not np.all(np.isfinite(grid)):
        raise ValidationError("conductivity CSV contains non-positive or non-finite values")
    g = np.pad(grid, ((0, 1), (0, 1)), mode="edge")  # row and column i + 1 of a one-node axis

    def cell(nodes, v):
        """Grid interval i of each v, clamped to the hull, and the weight of node i + 1."""
        v = np.clip(np.asarray(v, float), nodes[0], nodes[-1])
        i = np.clip(np.searchsorted(nodes, v, side="right") - 1, 0, max(len(nodes) - 2, 0))
        upper = np.append(nodes, nodes[-1] + 1.0)[i + 1]  # a one-node axis gets weight 0
        return i, (v - nodes[i]) / (upper - nodes[i])

    def sampler(x, y):
        (i, wx), (j, wy) = cell(xs, x), cell(ys, y)
        return ((1 - wx) * ((1 - wy) * g[i, j] + wy * g[i, j + 1])
                + wx * ((1 - wy) * g[i + 1, j] + wy * g[i + 1, j + 1]))

    return LimitCase(sampler, bounds=(float(grid.min()), float(grid.max())))
