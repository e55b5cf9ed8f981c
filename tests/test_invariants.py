"""Property tests of a solve over random one-disk scenes and lorentzian fields.

Scenes are drawn as the benchmark's generated scenes are: a background-10 scene
with one disk inclusion and shifted-cubic data. Every config has N <= 6, S = 60
and Q = 4P, with P on both sides of 2N+1, so both the node fit and the dense fit
run. The examples are derandomized, so that every run tests the same ones.
"""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fpeit.boundary_solver import error_norm, reconstruct_interior, solve_dirichlet  # noqa: E402
from fpeit.presets import build_boundary_data, build_field, config_from_dict  # noqa: E402

INVARIANTS = settings(max_examples=12, deadline=None, derandomize=True, database=None)
unit = st.floats(0.0, 1.0)


@st.composite
def sizes(draw):
    N = draw(st.integers(1, 6))
    if N >= 2 and draw(st.booleans()):
        P = draw(st.integers(3, 2 * N))             # the dense fit
    else:
        P = draw(st.integers(2 * N + 1, 2 * N + 8))  # the node fit
    return {"N": N, "P": P, "S": 60, "Q": 4 * P}


@st.composite
def disk_scenes(draw):
    rho, phi = 0.6 * math.sqrt(draw(unit)), 2.0 * math.pi * draw(unit)
    disk = {"kind": "disk", "cx": rho * math.cos(phi), "cy": rho * math.sin(phi),
            "r2": draw(st.floats(0.04, 0.2)), "value": 10.0 * draw(st.floats(2.0, 10.0))}
    return {"conductivity": {"variant": "scene", "background": 10.0, "shapes": [disk]},
            "boundary_data": {"expression": "shifted-cubic", "beta": draw(st.floats(0.0, 0.8))},
            **draw(sizes())}


@st.composite
def lorentzians(draw):
    beta = draw(st.floats(-1.0, 1.0))
    return {"conductivity": {"variant": "lorentzian", "beta": beta},
            "boundary_data": {"case": "lorentzian", "beta": beta}, **draw(sizes())}


def solve(config, data_fn):
    return solve_dirichlet(build_field(config), data_fn, N=config.N, P=config.P, S=config.S,
                           Q=config.Q)


def check_invariants(doc, scale):
    config = config_from_dict(doc)
    data = build_boundary_data(config)
    res = solve(config, data)
    fit = res.fit
    outputs = (fit.coefficients, fit.seeds, fit.fitted, fit.error, fit.error_fit_nodes,
               res.fit_dense, res.basis.functions, reconstruct_interior(res))
    assert all(np.all(np.isfinite(out)) for out in outputs)

    U = res.basis.functions
    assert np.abs((U * res.basis.weights) @ U.T - np.eye(len(U))).max() <= 1e-10
    assert fit.error <= error_norm(res.data_dense, np.zeros_like(res.data_dense))

    again = solve(config, data)
    for a, b in ((fit.coefficients, again.fit.coefficients), (fit.seeds, again.fit.seeds),
                 (res.fit_dense, again.fit_dense)):
        assert np.array_equal(a, b)

    def other(theta):
        return np.cos(2 * theta) - 0.5 * np.sin(3 * theta)

    mixed = solve(config, lambda theta: data(theta) + scale * other(theta)).fit.coefficients
    expected = fit.coefficients + scale * solve(config, other).fit.coefficients
    assert np.abs(mixed - expected).max() <= 1e-9 * np.abs(expected).max()


@INVARIANTS
@given(disk_scenes(), st.floats(-2.0, 2.0).filter(lambda a: abs(a) >= 0.1))
def test_scene_solves_keep_their_invariants(doc, scale):
    check_invariants(doc, scale)


@INVARIANTS
@given(lorentzians(), st.floats(-2.0, 2.0).filter(lambda a: abs(a) >= 0.1))
def test_lorentzian_solves_keep_their_invariants(doc, scale):
    check_invariants(doc, scale)
