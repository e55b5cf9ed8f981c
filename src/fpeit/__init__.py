"""Forward Dirichlet solver for the 2-D electrical impedance equation on the
unit disk, built on formal powers of pseudoanalytic function theory.

The names below import their module on first use. Importing the package
(as the ``fpeit`` console script and ``python -m fpeit`` do) therefore
loads no numpy, so ``--threads`` can still set the BLAS thread caps.
"""

import importlib

_EXPORTS = {
    "conductivity": (
        "AnalyticSeparable", "ConductivityField", "GeometricScene", "DiskShape",
        "AnnulusShape", "PolygonShape", "LimitCase", "PiecewiseSeparable",
        "build_piecewise", "constant_field", "eval_radial_piecewise", "evaluate",
        "load_conductivity_csv", "radial_rings_field", "sample_piecewise",
        "scene_from_dict",
    ),
    "errors": (
        "DomainError", "FpeitError", "NumericalError", "ValidationError",
    ),
    "pseudoanalytic": (
        "GeneratingPair", "GeneratingSequence", "RadialMesh", "build_sequence",
        "characteristic_coefficients", "fg_integral", "radial_mesh",
        "successor_residual", "successor_residual_mesh", "vekua_residual",
    ),
    "formal_powers": (
        "FormalPowerTable", "build_table", "formal_power_fields",
        "pseudoanalyticity_check", "write_powers_csv",
    ),
    "boundary_solver": (
        "BoundarySystem", "FitResult", "OrthonormalBasis", "SolveResult",
        "boundary_system", "error_norm", "fit_coefficients", "inner_product",
        "orthonormalize", "reconstruct_interior", "solve_dirichlet",
        "upsample_periodic_linear",
    ),
    "verification": (
        "ExactCase", "constant_case", "divergence_residual", "interior_points",
        "lorentzian_case", "shifted_cubic", "sinusoidal_case",
    ),
    "presets": (
        "PRESET_NAMES", "RunConfig", "config_from_dict", "load_config",
    ),
}
_MODULES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULES)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _MODULES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
