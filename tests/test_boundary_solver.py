import math

import numpy as np
import pytest

from fpeit.boundary_solver import (
    BoundarySystem,
    boundary_system,
    error_norm,
    fit_coefficients,
    inner_product,
    orthonormalize,
    reconstruct_interior,
    solve_dirichlet,
    upsample_periodic_linear,
)
from fpeit.conductivity import constant_field, radial_rings_field
from fpeit.errors import ValidationError
from fpeit.formal_powers import build_table
from fpeit.pseudoanalytic import build_sequence, radial_mesh
from fpeit.verification import shifted_cubic, sinusoidal_case


def uniform_system(P, funcs, labels=None):
    theta = 2 * math.pi * np.arange(P) / P
    w = np.full(P, 2 * math.pi / P)
    raw = np.asarray([f(theta) for f in funcs])
    if labels is None:
        labels = np.arange(len(funcs))
    return BoundarySystem(theta=theta, weights=w, raw=raw, labels=np.asarray(labels))


def test_inner_product_circumference():
    P = 360
    w = np.full(P, 2 * math.pi / P)
    one = np.ones(P)
    assert inner_product(one, one, w) == pytest.approx(2 * math.pi, abs=1e-12)


def test_inner_product_orthogonality_and_norm():
    P = 360
    theta = 2 * math.pi * np.arange(P) / P
    w = np.full(P, 2 * math.pi / P)
    assert abs(inner_product(np.cos(theta), np.sin(theta), w)) < 1e-12
    assert inner_product(np.cos(theta), np.cos(theta), w) == pytest.approx(math.pi, abs=1e-10)


def test_inner_product_shape_mismatch():
    with pytest.raises(ValidationError):
        inner_product(np.ones(4), np.ones(5), np.ones(4))


def test_orthonormalize_constant_and_cosine():
    sys_ = uniform_system(90, [lambda t: np.ones_like(t), np.cos])
    basis = orthonormalize(sys_)
    assert len(basis.labels) == 2
    np.testing.assert_allclose(basis.functions[0], 1 / math.sqrt(2 * math.pi), atol=1e-12)
    np.testing.assert_allclose(basis.functions[1], np.cos(basis.theta) / math.sqrt(math.pi),
                               atol=1e-12)


def test_orthonormalize_drops_duplicate():
    sys_ = uniform_system(64, [np.cos, np.sin, np.cos], labels=[0, 1, 2])
    basis = orthonormalize(sys_)
    assert list(basis.labels) == [0, 1]
    assert len(basis.dropped) == 1
    assert basis.dropped[0][0] == 2
    assert basis.dropped[0][1] < 1e-10


def test_orthonormalize_zero_function_dropped_not_fatal():
    sys_ = uniform_system(32, [np.cos, lambda t: np.zeros_like(t)], labels=[0, 7])
    basis = orthonormalize(sys_)
    assert list(basis.labels) == [0]
    assert basis.dropped[0][0] == 7


def sigma_one_basis(N=17, P=35, S=120):
    mesh = radial_mesh(P, S)
    table = build_table(build_sequence(constant_field(1.0), mesh), mesh, N)
    return table, boundary_system(table)


def test_sigma_one_all_functions_kept_and_rank_oracle():
    table, system = sigma_one_basis()
    basis = orthonormalize(system)
    assert len(basis.labels) == 35
    # independent oracle: the weighted Gram matrix has full numerical rank
    G = (system.raw * system.weights) @ system.raw.T
    eigs = np.linalg.eigvalsh(G)
    assert eigs.min() > 1e-12 * eigs.max()
    # orthonormality defect
    M = (basis.functions * basis.weights) @ basis.functions.T
    assert np.abs(M - np.eye(len(M))).max() <= 1e-10


def test_labels_reserve_excluded_slot():
    table, system = sigma_one_basis(N=3, P=16, S=60)
    assert list(system.labels) == [0, 1, 2, 3, 5, 6, 7]  # slot 4 = N+1 reserved


def test_fit_zero_data():
    _, system = sigma_one_basis(N=5, P=16, S=60)
    basis = orthonormalize(system)
    b, fitted = fit_coefficients(basis, np.zeros_like(basis.theta))
    assert np.abs(b).max() == 0.0
    assert error_norm(np.zeros_like(fitted), fitted, basis.weights) == 0.0


def test_fit_harmonic_quadratic():
    table, system = sigma_one_basis(N=5, P=64, S=120)
    basis = orthonormalize(system)
    data = np.cos(2 * basis.theta)  # Re z^2 on the rim
    b, fitted = fit_coefficients(basis, data)
    assert error_norm(data, fitted, basis.weights) <= 1e-8
    dominant = np.argsort(np.abs(b))[::-1]
    assert basis.labels[dominant[0]] == 2  # the degree-2 seed-1 direction
    assert np.abs(b)[dominant[1]] < 1e-8 * np.abs(b)[dominant[0]]


def test_fit_least_squares_optimality():
    # perturbing any single coefficient can only increase the discrete residual
    table, system = sigma_one_basis(N=5, P=32, S=80)
    basis = orthonormalize(system)
    rng = np.random.default_rng(5)
    data = rng.normal(size=basis.theta.shape)
    b, fitted = fit_coefficients(basis, data)
    E0 = error_norm(data, fitted, basis.weights)
    for k in range(len(b)):
        for delta in (1e-6, -1e-6):
            bp = b.copy()
            bp[k] += delta
            Ep = error_norm(data, bp @ basis.functions, basis.weights)
            assert Ep >= E0 - 1e-15


def test_error_norm_constant_offset():
    vals = np.zeros(500)
    fit = np.full(500, 0.25)
    assert error_norm(vals, fit) == pytest.approx(0.25 * math.sqrt(2 * math.pi), rel=1e-12)


def test_upsample_periodic_linear():
    th = 2 * math.pi * np.arange(8) / 8
    vals = np.cos(th)
    out = upsample_periodic_linear(th, vals, th)  # at the nodes: exact
    np.testing.assert_allclose(out, vals, atol=1e-15)
    mid = upsample_periodic_linear(th, vals, np.array([15 * math.pi / 8]))
    # midpoint of the wrap-around interval is the chord average
    assert mid[0] == pytest.approx(0.5 * (vals[-1] + vals[0]), abs=1e-12)


def test_reconstruct_interior_harmonic():
    table, system = sigma_one_basis(N=5, P=48, S=150)
    basis = orthonormalize(system)
    data = np.cos(2 * basis.theta)
    b, fitted = fit_coefficients(basis, data)
    u = reconstruct_interior(table, basis.transform, b)
    x, y = table.mesh.xy()
    np.testing.assert_allclose(u, x ** 2 - y ** 2, atol=1e-6)
    # boundary restriction reproduces the fitted trace exactly
    np.testing.assert_allclose(u[:, -1], fitted, atol=1e-12)
    zero = reconstruct_interior(table, basis.transform, np.zeros_like(b))
    assert np.abs(zero).max() == 0.0


def test_reconstruct_interior_qualitative_for_separable():
    # For separable conductivities the fitted combination of raw trace fields
    # tracks the exact potential only qualitatively in the interior (the
    # boundary fit itself stays tight); see the solution-family test below
    # for the quantitative interior route.
    case = sinusoidal_case(math.pi)
    res = solve_dirichlet(case.field, case.boundary_data, N=17, P=35, S=300, Q=1000)
    u = reconstruct_interior(res.table, res.basis.transform, res.fit.coefficients)
    x, y = res.mesh.xy()
    d = (x - 0.3) ** 2 + (y - 0.3) ** 2
    r, s = np.unravel_index(np.argmin(d), d.shape)
    assert abs(u[r, s] - case.u(x[r, s], y[r, s])) <= 0.1
    np.testing.assert_allclose(u[:, -1], res.fit.fitted, atol=1e-10)


def test_solution_family_reproduces_exact_interior():
    # Combinations u_n = Re Z~^(n) / sqrt(sigma) of the powers of the
    # index-shifted sequence (pair 0 = (sqrt(sigma), i/sqrt(sigma))) are
    # themselves solutions of the impedance equation, so fitting the boundary
    # data with them must reproduce the exact potential throughout the disk.
    # This is the sharpest end-to-end check of the integration chain.
    import fpeit.pseudoanalytic as pa

    case = sinusoidal_case(math.pi)
    mesh = radial_mesh(35, 400)
    seq = build_sequence(case.field, mesh)
    shifted = pa.GeneratingSequence(period=2, pairs=(seq.pairs[1], seq.pairs[0]))
    table = build_table(shifted, mesh, 17)
    x, y = mesh.xy()
    sq = np.sqrt(case.field.evaluate(x, y))
    fields = np.concatenate([table.Z1.real, table.Zi[1:].real], axis=0) / sq[None]
    system = BoundarySystem(theta=mesh.theta, weights=mesh.boundary_weights,
                            raw=fields[:, :, -1],
                            labels=np.arange(fields.shape[0]))
    basis = orthonormalize(system)
    b, fitted = fit_coefficients(basis, case.boundary_data(mesh.theta))
    u = np.einsum("m,mps->ps", basis.transform.T @ b, fields)
    exact = case.u(x, y)
    assert np.abs(u - exact).max() <= 1e-8


def test_solve_dense_vs_cheap_error():
    field = radial_rings_field()
    u = shifted_cubic(0.0)
    data = lambda th: u(np.cos(th), np.sin(th))
    dense = solve_dirichlet(field, data, N=8, P=35, S=101, Q=500)
    cheap = solve_dirichlet(field, data, N=8, P=35, S=101, Q=500, dense_error=False)
    # the cheap path is floored by the trace interpolation error
    assert dense.fit.error < 1e-10
    assert cheap.fit.error > 1e-4
    assert cheap.fit.error > dense.fit.error


def test_solve_validation():
    field = constant_field(1.0)
    data = lambda th: np.cos(th)
    with pytest.raises(ValidationError):
        solve_dirichlet(field, data, N=0)
    with pytest.raises(ValidationError):
        solve_dirichlet(field, data, N=3, P=64, Q=32)
    with pytest.raises(ValidationError):
        solve_dirichlet(field, data, N=3, fit_quadrature="dense", dense_error=False)
    with pytest.raises(ValidationError):
        solve_dirichlet(field, data, N=3, fit_quadrature="median")


def test_solve_warns_when_underresolved(caplog):
    field = constant_field(1.0)
    with caplog.at_level("WARNING"):
        solve_dirichlet(field, lambda th: np.cos(th), N=8, P=9, S=60, Q=100)
    assert any("saturate" in r.message for r in caplog.records)
