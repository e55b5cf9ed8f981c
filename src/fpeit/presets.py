"""Named experiment presets and run-configuration handling.

A run is described by a JSON document (or an equivalent dict) with the keys
of ``RunConfig``. ``preset`` pulls in one of the named experiments; any other
key given alongside overrides the preset's value.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .conductivity import (
    ConductivityField,
    GeometricScene,
    LimitCase,
    build_piecewise,
    sample_piecewise,
    check_keys,
    constant_field,
    load_conductivity_csv,
    radial_rings_field,
    read_float_csv,
    scene_from_dict,
)
from .errors import ValidationError
from .verification import ExactCase, constant_case, lorentzian_case, shifted_cubic, sinusoidal_case

TRIANGLE_VERTICES = tuple(
    (r * math.cos(a), r * math.sin(a))
    for r, a in ((0.6, math.pi / 4), (0.35, 3 * math.pi / 4), (0.6, 5 * math.pi / 4))
)

# verify thresholds; a config's "thresholds" may override any of them
DEFAULT_THRESHOLDS = {
    "divergence": 1e-3,
    "vekua_ratio": 1.2,          # residual decrease factor under mesh doubling
    "successor_mesh_ratio": 1.2,
    "successor_cartesian": 1e-6,
    "residual_floor": 1e-10,     # below this a residual is rounding noise, no ratio asked
}

# the keys that each kind of conductivity and boundary_data spec reads beside its
# selector (variant, case or expression), by selector and name; {"csv": path} has none
SPEC_KEYS = {
    "conductivity": {"variant": {
        "constant": ("value",), "sinusoidal": ("omega",), "lorentzian": ("beta",),
        "radial-rings": (), "scene": ("background", "shapes"), "csv": ("path",),
        "piecewise": ("samples", "edges", "K", "interpolant"),
        "piecewise-of": ("source", "M", "q", "K", "interpolant"), "limit-of": ("source",)}},
    "boundary_data": {
        "case": {"sinusoidal": ("omega",), "lorentzian": ("beta",), "constant": ()},
        "expression": {"shifted-cubic": ("beta",), "harmonic-quadratic": ()},
        "csv": None},
}


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
        for key in ("N", "P", "S", "Q"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{key} must be an integer, got {value!r}")
        for key in ("rim_grading", "fd_h", "drop_tol"):
            value = getattr(self, key)
            if not _finite(value) or value <= 0:
                raise ValidationError(f"{key} must be a finite number > 0, got {value!r}")
        for key in ("dense_error", "interior", "dump_powers", "corner_snap"):
            if not isinstance(getattr(self, key), bool):
                raise ValidationError(f"{key} must be true or false, got {getattr(self, key)!r}")
        if not isinstance(self.thresholds, dict) or set(self.thresholds) - set(DEFAULT_THRESHOLDS):
            raise ValidationError(f"thresholds must map keys of {sorted(DEFAULT_THRESHOLDS)} "
                                  f"to numbers, got {self.thresholds!r}")
        for key, value in self.thresholds.items():
            if not _finite(value):
                raise ValidationError(f"thresholds {key} must be a finite number, got {value!r}")
        for key, allowed in (("rule", ("cubic", "trapezoid")),
                             ("fit_quadrature", ("nodes", "dense"))):
            if getattr(self, key) not in allowed:
                raise ValidationError(f"{key} must be one of {allowed}, got {getattr(self, key)!r}")
        if self.drop_tol >= 1:
            raise ValidationError(f"drop_tol must be below 1, got {self.drop_tol!r}")
        if self.N < 1:
            raise ValidationError(f"N must be >= 1, got {self.N}")
        if self.S < 50:
            raise ValidationError(f"S must be >= 50, got {self.S}")
        if self.Q < self.P:
            raise ValidationError(f"Q={self.Q} must be at least P={self.P}")
        for key in ("conductivity", "boundary_data"):
            spec = getattr(self, key)
            if not isinstance(spec, dict):
                raise ValidationError(f"{key} must be a JSON object, got {spec!r}")
            if not spec:
                raise ValidationError(f"config is missing the {key} spec")
            _check_spec_keys(key, spec)
            for name in ("omega", "beta", "value"):
                if name in spec:
                    _parameter(spec, name, None, where=key)
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


def _check_spec_keys(key: str, spec: dict):
    """Raise unless the ``key`` spec names a known kind and holds only keys it reads:
    a misspelled key would otherwise be ignored and its default used."""
    kinds = SPEC_KEYS[key]
    selector = next((s for s in kinds if s in spec), next(iter(kinds)))
    names, name = kinds[selector], spec.get(selector)
    if names is None:
        allowed, where = (), f"{key} {selector}"
    elif isinstance(name, str) and name in names:
        allowed, where = names[name], f"{key} {selector} {name!r}"
    else:
        raise ValidationError(f"unknown {key} {selector} {name!r}; known: {', '.join(names)}")
    check_keys(spec, (selector, *allowed), where)


def _finite(value, kind=numbers.Real) -> bool:
    """True for a finite ``kind`` that is not a bool (JSON true and false load as ints)."""
    return not isinstance(value, bool) and isinstance(value, kind) and math.isfinite(value)


def _parameter(spec: dict, key: str, default, kind=numbers.Real, where: str = "slab"):
    """Parameter ``key`` of a ``where`` spec, a finite ``kind`` that is not a bool."""
    value = spec.get(key, default)
    if not _finite(value, kind):
        noun = "integer" if kind is numbers.Integral else "number"
        raise ValidationError(f"{where} parameter {key} must be a finite {noun}, got {value!r}")
    return value


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
            samples = [_slab_sample(s) for s in spec["samples"]]
            return build_piecewise(samples, spec["edges"], K=_parameter(spec, "K", 2.0),
                                   interpolant=spec.get("interpolant", "linear"))
        except ValidationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed piecewise conductivity spec: {exc!r}") from exc
    if variant in ("piecewise-of", "limit-of"):
        src = build_field(config_from_dict({"conductivity": spec.get("source", {}),
                                            "boundary_data": {"case": "constant"}}))
        if variant == "limit-of":
            return LimitCase(src.evaluate, bounds=src.bounds)
        return sample_piecewise(src.evaluate, M=_parameter(spec, "M", 16, numbers.Integral),
                                q=_parameter(spec, "q", 16, numbers.Integral),
                                K=_parameter(spec, "K", 2.0),
                                interpolant=spec.get("interpolant", "linear"))
    raise ValidationError(f"unknown conductivity variant {variant!r}")


def _slab_sample(s: dict) -> tuple:
    """(chi, [(y, sigma), ...]) of a piecewise sample, which holds exactly chi, ys and
    sigmas: finite numbers, as many ys as sigmas."""
    if set(s) != {"chi", "ys", "sigmas"}:
        raise ValueError(f"a sample holds exactly chi, ys and sigmas, got {sorted(s)}")
    ys, sigmas = list(s["ys"]), list(s["sigmas"])
    if len(ys) != len(sigmas):
        raise ValueError(f"{len(ys)} ys for {len(sigmas)} sigmas")
    if not all(map(_finite, [s["chi"], *ys, *sigmas])):
        raise ValueError(f"a sample entry is not a finite number: {s!r}")
    return s["chi"], list(zip(ys, sigmas))


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
    th, vals = read_float_csv(path, ("theta", "u"), "boundary").T
    if len(th) < 2:
        raise ValidationError("boundary CSV needs at least two samples")
    if not (np.isfinite(th).all() and np.isfinite(vals).all()):
        raise ValidationError(f"boundary CSV {path!r} holds a non-finite theta or u")
    if np.any(np.diff(np.sort(np.mod(th, 2 * math.pi))) == 0):
        raise ValidationError(f"boundary CSV {path!r} repeats an angle modulo 2*pi")
    from .boundary_solver import upsample_periodic_linear

    return lambda q: upsample_periodic_linear(th, vals, q)


def corner_angles_for(config: RunConfig, field: ConductivityField):
    if config.corner_snap and isinstance(field, GeometricScene):
        return field.corner_angles()
    return ()
