"""Named experiment presets and run-configuration handling.

A run is described by a JSON document (or an equivalent dict) with the keys
of ``RunConfig``. ``preset`` pulls in one of the named experiments; any other
key given alongside overrides the preset's value.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .conductivity import (
    ConductivityField,
    GeometricScene,
    LimitCase,
    build_piecewise,
    sample_piecewise,
    constant_field,
    load_conductivity_csv,
    radial_rings_field,
    scene_from_dict,
)
from .errors import ValidationError
from .verification import ExactCase, constant_case, lorentzian_case, shifted_cubic, sinusoidal_case

TRIANGLE_VERTICES = tuple(
    (r * math.cos(a), r * math.sin(a))
    for r, a in ((0.6, math.pi / 4), (0.35, 3 * math.pi / 4), (0.6, 5 * math.pi / 4))
)


@dataclass
class RunConfig:
    """Everything a solve or verify run needs, JSON-serializable."""

    preset: str | None = None
    conductivity: dict = dc_field(default_factory=dict)
    boundary_data: dict = dc_field(default_factory=dict)
    N: int = 17
    P: int = 35
    S: int = 400
    Q: int = 1000
    dense_error: bool = True
    fit_quadrature: str = "nodes"
    corner_snap: bool = True
    dump_powers: bool = False
    interior: bool = False
    rule: str = "cubic"
    rim_grading: float = 1.0
    drop_tol: float = 1e-10
    fd_h: float = 1e-4
    thresholds: dict = dc_field(default_factory=dict)

    def validate(self):
        if self.N < 1:
            raise ValidationError(f"N must be >= 1, got {self.N}")
        if self.S < 50:
            raise ValidationError(f"S must be >= 50, got {self.S}")
        if self.Q < self.P:
            raise ValidationError(f"Q={self.Q} must be at least P={self.P}")
        if not self.conductivity:
            raise ValidationError("config is missing the conductivity spec")
        if not self.boundary_data:
            raise ValidationError("config is missing the boundary data spec")
        return self

    def to_dict(self) -> dict:
        return asdict(self)


_PRESETS: dict[str, dict] = {
    "sinusoidal": {
        "conductivity": {"variant": "sinusoidal", "omega": math.pi},
        "boundary_data": {"case": "sinusoidal", "omega": math.pi},
    },
    "lorentzian-0": {
        "conductivity": {"variant": "lorentzian", "beta": 0.0},
        "boundary_data": {"case": "lorentzian", "beta": 0.0},
    },
    "lorentzian-0.5": {
        "conductivity": {"variant": "lorentzian", "beta": 0.5},
        "boundary_data": {"case": "lorentzian", "beta": 0.5},
    },
    "lorentzian-1": {
        "conductivity": {"variant": "lorentzian", "beta": 1.0},
        "boundary_data": {"case": "lorentzian", "beta": 1.0},
    },
    # S=401 keeps mesh nodes off the conductivity jump radii {0.2,0.4,0.6,0.8}
    "radial-rings": {
        "conductivity": {"variant": "radial-rings"},
        "boundary_data": {"expression": "shifted-cubic", "beta": 0.0},
        "S": 401,
    },
    "disk-center": {
        "conductivity": {"variant": "scene", "background": 10.0,
                         "shapes": [{"kind": "disk", "cx": 0.0, "cy": 0.0, "r2": 0.2, "value": 100.0}]},
        "boundary_data": {"expression": "shifted-cubic", "beta": 0.0},
    },
    "disk-0.6": {
        "conductivity": {"variant": "scene", "background": 10.0,
                         "shapes": [{"kind": "disk", "cx": 0.6, "cy": 0.0, "r2": 0.2, "value": 100.0}]},
        "boundary_data": {"expression": "shifted-cubic", "beta": 0.6},
    },
    "disk-0.79": {
        "conductivity": {"variant": "scene", "background": 10.0,
                         "shapes": [{"kind": "disk", "cx": 0.79, "cy": 0.0, "r2": 0.2, "value": 100.0}]},
        "boundary_data": {"expression": "shifted-cubic", "beta": 0.79},
    },
    "triangle": {
        "conductivity": {"variant": "scene", "background": 10.0,
                         "shapes": [{"kind": "polygon",
                                     "vertices": [list(v) for v in TRIANGLE_VERTICES],
                                     "value": 100.0}]},
        "boundary_data": {"expression": "shifted-cubic", "beta": 0.6},
        "N": 32,
        "P": 61,
        "S": 300,
        "fit_quadrature": "dense",
    },
    "constant": {
        "conductivity": {"variant": "constant", "value": 1.0},
        "boundary_data": {"case": "constant"},
    },
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def config_from_dict(doc: dict) -> RunConfig:
    doc = dict(doc)
    preset = doc.get("preset")
    if preset is not None:
        if preset not in _PRESETS:
            raise ValidationError(f"unknown preset {preset!r}; known: {', '.join(PRESET_NAMES)}")
        merged = dict(_PRESETS[preset])
        merged.update({k: v for k, v in doc.items() if k != "preset"})
        merged["preset"] = preset
        doc = merged
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**doc).validate()


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("config JSON must be an object")
    return config_from_dict(doc)


def build_field(config: RunConfig) -> ConductivityField:
    """Instantiate the conductivity field described by the config."""
    spec = dict(config.conductivity)
    variant = spec.pop("variant", None)
    if variant == "constant":
        return constant_field(spec.get("value", 1.0))
    if variant == "sinusoidal":
        return sinusoidal_case(spec.get("omega", math.pi)).field
    if variant == "lorentzian":
        return lorentzian_case(spec.get("beta", 0.0)).field
    if variant == "radial-rings":
        return radial_rings_field()
    if variant == "scene":
        return scene_from_dict(spec)
    if variant == "csv":
        if "path" not in spec:
            raise ValidationError("conductivity variant 'csv' needs a 'path'")
        return load_conductivity_csv(spec["path"])
    if variant == "piecewise":
        try:
            samples = [(s["chi"], list(zip(s["ys"], s["sigmas"]))) for s in spec["samples"]]
            return build_piecewise(samples, spec["edges"], K=spec.get("K", 2.0),
                                   interpolant=spec.get("interpolant", "linear"))
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed piecewise conductivity spec: {exc!r}") from exc
    if variant == "piecewise-of":
        base = config_from_dict({"conductivity": spec.get("source", {}),
                                 "boundary_data": {"case": "constant"}})
        src = build_field(base)
        return sample_piecewise(src.evaluate, M=int(spec.get("M", 16)), q=int(spec.get("q", 16)),
                                K=spec.get("K", 2.0), interpolant=spec.get("interpolant", "linear"))
    if variant == "limit-of":
        base = config_from_dict({"conductivity": spec.get("source", {}),
                                 "boundary_data": {"case": "constant"}})
        src = build_field(base)
        return LimitCase(src.evaluate, bounds=src.bounds)
    raise ValidationError(f"unknown conductivity variant {variant!r}")


def exact_case_for(config: RunConfig) -> ExactCase | None:
    """The exact case named by the boundary-data spec, when there is one."""
    spec = config.boundary_data
    case = spec.get("case")
    if case == "sinusoidal":
        return sinusoidal_case(spec.get("omega", math.pi))
    if case == "lorentzian":
        return lorentzian_case(spec.get("beta", 0.0))
    if case == "constant":
        return constant_case()
    return None


def build_boundary_data(config: RunConfig):
    """Boundary data as a function of theta (radians on the unit circle)."""
    spec = dict(config.boundary_data)
    case = exact_case_for(config)
    if case is not None:
        return case.boundary_data
    if "expression" in spec:
        name = spec["expression"]
        if name == "shifted-cubic":
            u = shifted_cubic(spec.get("beta", 0.0))
            return lambda th: u(np.cos(th), np.sin(th))
        if name == "harmonic-quadratic":
            return lambda th: np.cos(2 * np.asarray(th, float))
        raise ValidationError(f"unknown boundary expression {name!r}")
    if "csv" in spec:
        return _boundary_from_csv(spec["csv"])
    raise ValidationError(f"cannot interpret boundary data spec {spec!r}")


def _boundary_from_csv(path):
    import csv as _csv

    try:
        with open(path, newline="") as fh:
            reader = _csv.reader(fh)
            header = next(reader)
            rows = [(float(a), float(b)) for a, b in reader]
    except (OSError, StopIteration, ValueError) as exc:
        raise ValidationError(f"cannot read boundary data CSV {path!r}: {exc}") from exc
    if [h.strip().lower() for h in header] != ["theta", "u"]:
        raise ValidationError(f"boundary CSV must have header theta,u, got {header!r}")
    if len(rows) < 2:
        raise ValidationError("boundary CSV needs at least two samples")
    th = np.array([r[0] for r in rows])
    vals = np.array([r[1] for r in rows])
    if not (np.isfinite(th).all() and np.isfinite(vals).all()):
        raise ValidationError(f"boundary CSV {path!r} holds a non-finite theta or u")
    if np.any(np.diff(np.sort(np.mod(th, 2 * math.pi))) == 0):
        raise ValidationError(f"boundary CSV {path!r} repeats an angle modulo 2*pi")
    order = np.argsort(th)
    th, vals = th[order], vals[order]
    from .boundary_solver import upsample_periodic_linear

    return lambda q: upsample_periodic_linear(th, vals, q)


def corner_angles_for(config: RunConfig, field: ConductivityField):
    if config.corner_snap and isinstance(field, GeometricScene):
        return field.corner_angles()
    return ()
