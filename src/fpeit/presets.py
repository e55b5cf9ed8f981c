"""Named experiment presets and run-configuration handling.

A run is described by a JSON document (or an equivalent dict) with the keys
of ``RunConfig``. ``preset`` pulls in one of the named experiments; any other
key given alongside overrides the preset's value.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field as dc_field, fields

import numpy as np

from .boundary_solver import upsample_periodic_linear
from .conductivity import (
    ConductivityField,
    LimitCase,
    build_piecewise,
    check_keys,
    check_list,
    constant_field,
    finite,
    load_conductivity_csv,
    radial_rings_field,
    read_float_csv,
    sample_piecewise,
    scene_from_dict,
)
from .errors import ValidationError
from .verification import ExactCase, constant_case, lorentzian_case, sinusoidal_case

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
    dump_powers: bool = False
    interior: bool = False
    # fixed, not settable: perfbench/gate.py reads both until ROADMAP item 8 drops its reads
    rule: str = dc_field(default="cubic", init=False)
    rim_grading: float = dc_field(default=1.0, init=False)

    def validate(self):
        for key in ("N", "P", "S", "Q"):
            value = getattr(self, key)
            if not finite(value, numbers.Integral):
                raise ValidationError(f"{key} must be an integer, got {value!r}")
        for key in ("dense_error", "interior", "dump_powers"):
            if not isinstance(getattr(self, key), bool):
                raise ValidationError(f"{key} must be true or false, got {getattr(self, key)!r}")
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
            resolve_spec(key, spec)
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
        if not (isinstance(preset, str) and preset in _PRESETS):
            raise ValidationError(f"unknown preset {preset!r}; known: {', '.join(PRESET_NAMES)}")
        merged = dict(_PRESETS[preset])
        merged.update({k: v for k, v in doc.items() if k != "preset"})
        merged["preset"] = preset
        doc = merged
    known = {f.name for f in fields(RunConfig) if f.init}
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


def _piecewise(samples, edges, K, interpolant) -> ConductivityField:
    check_list(edges, finite, "piecewise conductivity edges", "finite numbers")
    check_list(samples, lambda s: isinstance(s, dict), "piecewise conductivity samples", "objects")
    try:
        return build_piecewise([_slab_sample(s) for s in samples], edges, K, interpolant)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed piecewise conductivity spec: {exc!r}") from exc


def _slab_sample(s: dict) -> tuple:
    """(chi, ys, sigmas) of a piecewise sample, which holds exactly these: finite
    numbers, as many ys as sigmas."""
    if set(s) != {"chi", "ys", "sigmas"}:
        raise ValueError(f"a sample holds exactly chi, ys and sigmas, got {sorted(s)}")
    ys, sigmas = list(s["ys"]), list(s["sigmas"])
    if len(ys) != len(sigmas):
        raise ValueError(f"{len(ys)} ys for {len(sigmas)} sigmas")
    if not all(map(finite, [s["chi"], *ys, *sigmas])):
        raise ValueError(f"a sample entry is not a finite number: {s!r}")
    return s["chi"], ys, sigmas


def _conductivity(spec: dict) -> ConductivityField:
    """The field of a conductivity spec: a config's, or the nested ``source`` of
    piecewise-of and limit-of."""
    _, builder, params = resolve_spec("conductivity", spec)
    return builder(**params)


def _limit_of(source) -> LimitCase:
    src = _conductivity(source)
    return LimitCase(src.evaluate, bounds=src.bounds)


def _boundary_from_csv(csv):
    th, vals = read_float_csv(csv, ("theta", "u"), "boundary").T
    if len(th) < 2:
        raise ValidationError("boundary CSV needs at least two samples")
    if not (np.isfinite(th).all() and np.isfinite(vals).all()):
        raise ValidationError(f"boundary CSV {csv!r} holds a non-finite theta or u")
    if np.any(np.diff(np.sort(np.mod(th, 2 * math.pi))) == 0):
        raise ValidationError(f"boundary CSV {csv!r} repeats an angle modulo 2*pi")
    return lambda q: upsample_periodic_linear(th, vals, q)


# parameters that a conductivity and its exact boundary data share, and the slab ones
_OMEGA, _BETA, _SLAB = {"omega": math.pi}, {"beta": 0.0}, {"K": 2.0, "interpolant": "linear"}

# spec -> selector -> name -> (builder, {parameter: default}); the builder takes the
# parameters as keywords. A float default makes its parameter a finite number, an int
# default an integer (never a bool), and None makes it required. The boundary "csv"
# selector holds the file name itself, so it has a single entry and no names.
SPECS = {
    "conductivity": {"variant": {
        "constant": (constant_field, {"value": 1.0}),
        "sinusoidal": (lambda omega: sinusoidal_case(omega).field, _OMEGA),
        "lorentzian": (lambda beta: lorentzian_case(beta).field, _BETA),
        "radial-rings": (radial_rings_field, {}),
        "scene": (lambda **scene: scene_from_dict(scene), {"background": None, "shapes": ()}),
        "csv": (load_conductivity_csv, {"path": None}),
        "piecewise": (_piecewise, {"samples": None, "edges": None, **_SLAB}),
        "piecewise-of": (lambda source, **slab:
                         sample_piecewise(_conductivity(source).evaluate, **slab),
                         {"source": None, "M": 16, "q": 16, **_SLAB}),
        "limit-of": (_limit_of, {"source": None})}},
    "boundary_data": {
        "case": {"sinusoidal": (sinusoidal_case, _OMEGA), "lorentzian": (lorentzian_case, _BETA),
                 "constant": (constant_case, {})},
        "expression": {  # ((x-b)^3+y^3)/3 + 0.1(x-b+y) and x^2 - y^2 on the circle
            "shifted-cubic": (lambda beta: lorentzian_case(beta).boundary_data, _BETA),
            "harmonic-quadratic": (lambda: lambda th: np.cos(2 * np.asarray(th, float)), {})},
        "csv": (_boundary_from_csv, {"csv": None})},
}


def resolve_spec(key: str, spec: dict):
    """(selector, builder, parameters) of the ``key`` spec, its defaults filled in from SPECS.

    Raises ValidationError on an unknown kind or key (a misspelled key would otherwise
    run with its default), on a parameter that is not the finite number or integer its
    default is, and on a missing required parameter. A ``source`` parameter must be a
    conductivity spec, which is resolved in turn. Builds nothing.
    """
    selectors = SPECS[key]
    selector = next((s for s in selectors if s in spec), next(iter(selectors)))
    entry, name, where = selectors[selector], spec.get(selector), f"{key} {selector}"
    if isinstance(entry, dict):
        if not (isinstance(name, str) and name in entry):
            raise ValidationError(f"unknown {where} {name!r}; known: {', '.join(entry)}")
        entry, where = entry[name], f"{where} {name!r}"
    builder, defaults = entry
    check_keys(spec, dict.fromkeys((selector, *defaults)), where)
    params = {k: spec.get(k, default) for k, default in defaults.items()}
    for k, default in defaults.items():
        if isinstance(default, (int, float)):
            kind, noun = ((numbers.Integral, "integer") if isinstance(default, int)
                          else (numbers.Real, "number"))
            if not finite(params[k], kind):
                raise ValidationError(f"{where} parameter {k} must be a finite {noun}, "
                                      f"got {params[k]!r}")
    missing = [k for k, value in params.items() if value is None]
    if missing:
        raise ValidationError(f"{where} needs a {missing[0]!r}")
    if "source" in params:  # the nested conductivity of piecewise-of and limit-of
        if not isinstance(params["source"], dict):
            raise ValidationError(f"{where} source must be a JSON object, "
                                  f"got {params['source']!r}")
        resolve_spec("conductivity", params["source"])
    return selector, builder, params


def build_field(config: RunConfig) -> ConductivityField:
    """Instantiate the conductivity field described by the config."""
    return _conductivity(config.conductivity)


def exact_case_for(config: RunConfig) -> ExactCase | None:
    """The exact case named by the boundary-data spec, when there is one."""
    selector, builder, params = resolve_spec("boundary_data", config.boundary_data)
    return builder(**params) if selector == "case" else None


def build_boundary_data(config: RunConfig):
    """Boundary data as a function of theta (radians on the unit circle)."""
    selector, builder, params = resolve_spec("boundary_data", config.boundary_data)
    data = builder(**params)
    return data.boundary_data if selector == "case" else data


def corner_angles_for(config: RunConfig, field: ConductivityField):
    """The corners that the mesh rays of ``field`` snap to: ``field.corner_angles()``.

    ``config`` is unused. The parameter stays for the callers that pass it.
    """
    return field.corner_angles()
