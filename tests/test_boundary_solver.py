import math
from dataclasses import replace

import numpy as np
import pytest

from fpeit import boundary_solver
from fpeit.boundary_solver import (
    BoundarySystem,
    error_norm,
    fit_coefficients,
    inner_product,
    orthonormalize,
    reconstruct_interior,
    solve_dirichlet,
    upsample_periodic_linear,
)
from fpeit.conductivity import (
    AnalyticSeparable,
    ConductivityField,
    PiecewiseSeparable,
    constant_field,
    radial_rings_field,
    scene_from_dict,
)
from fpeit.errors import ValidationError
from fpeit.formal_powers import RAY_BLOCK, build_table, rim_traces
from fpeit.presets import build_boundary_data, build_field, config_from_dict
from fpeit.pseudoanalytic import build_sequence, radial_mesh
from fpeit.verification import shifted_cubic, sinusoidal_case

from test_formal_powers import DISK_SCENE


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
    return rim_traces(constant_field(1.0), mesh, N)


def test_sigma_one_all_functions_kept_and_rank_oracle():
    system = sigma_one_basis()
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
    system = sigma_one_basis(N=3, P=16, S=60)
    assert list(system.labels) == [0, 1, 2, 3, 5, 6, 7]  # slot 4 = N+1 reserved


def test_fit_zero_data():
    system = sigma_one_basis(N=5, P=16, S=60)
    basis = orthonormalize(system)
    b, fitted = fit_coefficients(basis, np.zeros_like(basis.theta))
    assert np.abs(b).max() == 0.0
    assert error_norm(np.zeros_like(fitted), fitted, basis.weights) == 0.0


def test_fit_harmonic_quadratic():
    system = sigma_one_basis(N=5, P=64, S=120)
    basis = orthonormalize(system)
    data = np.cos(2 * basis.theta)  # Re z^2 on the rim
    b, fitted = fit_coefficients(basis, data)
    assert error_norm(data, fitted, basis.weights) <= 1e-8
    dominant = np.argsort(np.abs(b))[::-1]
    assert basis.labels[dominant[0]] == 2  # the degree-2 seed-1 direction
    assert np.abs(b)[dominant[1]] < 1e-8 * np.abs(b)[dominant[0]]


def test_fit_least_squares_optimality():
    # perturbing any single coefficient can only increase the discrete residual
    system = sigma_one_basis(N=5, P=32, S=80)
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

    rng = np.random.default_rng(7)
    base = np.sort(rng.uniform(0, 2 * math.pi, 11))
    vals = np.sin(base) + 0.3 * np.cos(3 * base)
    # the same nodes, shuffled and shifted by whole turns out of [0, 2pi)
    order = rng.permutation(len(base))
    th = base[order] + 2 * math.pi * rng.integers(-2, 3, len(base))
    q = rng.uniform(-3 * 2 * math.pi, 4 * 2 * math.pi, 200)
    q = np.concatenate([q, th, [0.0, 2 * math.pi, -2 * math.pi]])
    out = upsample_periodic_linear(th, vals[order], q)

    def reference(t):  # brute force: find the arc between consecutive nodes holding t
        t = t % (2 * math.pi)
        for k in range(len(base)):
            a, b = base[k], base[(k + 1) % len(base)] + (2 * math.pi if k == len(base) - 1 else 0)
            for tt in (t, t + 2 * math.pi):
                if a <= tt <= b:
                    return vals[k] + (tt - a) / (b - a) * (vals[(k + 1) % len(base)] - vals[k])
        raise AssertionError(t)

    np.testing.assert_allclose(out, [reference(t) for t in q], rtol=0, atol=1e-14)


def test_reconstruct_interior_harmonic():
    res = solve_dirichlet(constant_field(1.0), lambda th: np.cos(2 * th), N=5, P=48, S=150,
                          Q=48, dense_error=False)
    u = reconstruct_interior(res)
    x, y = res.mesh.xy()
    np.testing.assert_allclose(u, x ** 2 - y ** 2, atol=1e-6)
    # boundary restriction reproduces the fitted trace exactly
    np.testing.assert_allclose(u[:, -1], res.fit.fitted, atol=1e-12)
    zero = reconstruct_interior(replace(res, fit=replace(res.fit, seeds=0 * res.fit.seeds)))
    assert np.abs(zero).max() == 0.0


def reference_reconstruct_interior(res):
    """The table route reconstruct_interior replaced: the fit's raw coefficients
    combining the real parts of every formal power of the solve's table."""
    table = build_table(build_sequence(res.field, res.mesh), res.mesh, len(res.fit.seeds) - 1)
    c = res.basis.transform.T @ res.fit.coefficients
    re_fields = np.concatenate([table.Z1.real, table.Zi[1:].real], axis=0)  # (M, P, S+1)
    return np.einsum("m,mps->ps", c, re_fields)


def triangle_solve():
    # corner-snapped rays and, at P = 61 < 2N+1, the dense fit, which drops functions at N = 32
    cfg = config_from_dict({"preset": "triangle"})
    return solve_dirichlet(build_field(cfg), build_boundary_data(cfg), N=cfg.N, P=cfg.P,
                           S=100, Q=200)


SINUSOIDAL = sinusoidal_case(math.pi)
INTERIOR_CASES = {  # period 2, period 1, corner-snapped dense fit
    "sinusoidal": lambda: solve_dirichlet(SINUSOIDAL.field, SINUSOIDAL.boundary_data, N=9, P=35,
                                          S=120, Q=35, dense_error=False),
    "disk-scene": lambda: solve_dirichlet(scene_from_dict(DISK_SCENE), np.cos, N=9, P=35,
                                          S=120, Q=35, dense_error=False),
    "triangle": triangle_solve,
}


@pytest.mark.parametrize("case", INTERIOR_CASES)
def test_reconstruct_interior_matches_the_table_oracle(case):
    res = INTERIOR_CASES[case]()
    u, ref = reconstruct_interior(res), reference_reconstruct_interior(res)
    assert np.abs(u - ref).max() <= 1e-13 * np.abs(ref).max()
    zero = reconstruct_interior(replace(res, fit=replace(res.fit, seeds=0 * res.fit.seeds)))
    assert np.abs(zero).max() == 0.0


def test_reconstruct_interior_qualitative_for_separable():
    # For separable conductivities the fitted combination of raw trace fields
    # tracks the exact potential only qualitatively in the interior (the
    # boundary fit itself stays tight); see the solution-family test below
    # for the quantitative interior route.
    case = sinusoidal_case(math.pi)
    res = solve_dirichlet(case.field, case.boundary_data, N=17, P=35, S=300, Q=1000)
    u = reconstruct_interior(res)
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
    shifted = pa.GeneratingSequence((seq.pairs[1], seq.pairs[0]))
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
    # the cheap path measures the linear interpolation of the fitted node values,
    # here far above the dense error (it bounds that error neither way in general)
    assert dense.fit.error < 1e-10
    assert cheap.fit.error > 1e-4
    assert cheap.fit.error > dense.fit.error


@pytest.mark.parametrize("P, projections", [(9, 0), (17, 1)], ids=["dense-fit", "node-fit"])
@pytest.mark.parametrize("dense_error", [True, False])
def test_each_fit_does_only_its_own_work(monkeypatch, P, projections, dense_error):
    # the dense fit (P < 2N+1) solves least squares on the Q-ray traces: no node projection
    calls = []
    real = boundary_solver.fit_coefficients
    monkeypatch.setattr(boundary_solver, "fit_coefficients",
                        lambda *args: calls.append(args) or real(*args))
    res = solve_dirichlet(SINUSOIDAL.field, SINUSOIDAL.boundary_data, N=8, P=P, S=60, Q=150,
                          dense_error=dense_error)
    assert len(calls) == projections
    assert "fit" in res.timings
    # a Q-ray mesh is built, and timed, unless a node fit takes the cheap E
    assert ("dense_traces" in res.timings) == (dense_error or not projections)


def test_solve_validation():
    field = constant_field(1.0)
    data = lambda th: np.cos(th)
    with pytest.raises(ValidationError):
        solve_dirichlet(field, data, N=0)
    with pytest.raises(ValidationError):
        solve_dirichlet(field, data, N=3, P=64, Q=32)
    # the fit and the corner rays follow from the inputs; no keyword selects them
    for retired in ({"fit_quadrature": "dense"}, {"corner_angles": (0.1,)}):
        with pytest.raises(TypeError):
            solve_dirichlet(field, data, N=3, **retired)


def test_solve_warns_when_underresolved(caplog):
    # P < 2N+1 takes the dense fit, which does not interpolate: INFO only
    field = constant_field(1.0)
    with caplog.at_level("INFO", logger="fpeit"):
        solve_dirichlet(field, np.cos, N=8, P=9, S=60, Q=100)
    assert not [r for r in caplog.records if r.levelname == "WARNING"]
    assert [r for r in caplog.records if r.levelname == "INFO" and "saturate" in r.message]


def test_solve_fits_on_the_dense_traces_when_the_nodes_cut_the_basis_short():
    # at N = 20 the P = 35 nodes hold 35 of the 41 raw functions; a node fit reads E = 0.49
    res = solve_dirichlet(SINUSOIDAL.field, SINUSOIDAL.boundary_data, N=20, P=35, S=200)
    assert len(res.basis.labels) == 35
    assert res.fit.error <= 1e-3
    assert res.fit.error_fit_nodes > 1e-12  # no interpolation of the data at the nodes


def test_solve_snaps_a_ray_to_each_corner_of_the_field():
    # no uniform ray of the preset's P = 61 meets a corner of the triangle
    cfg = config_from_dict({"preset": "triangle"})
    field = build_field(cfg)
    res = solve_dirichlet(field, build_boundary_data(cfg), N=4, P=cfg.P, S=60, Q=100)
    assert len(field.corner_angles()) == 3
    for angle in field.corner_angles():
        assert angle in res.mesh.theta


@pytest.mark.parametrize("field", [SINUSOIDAL.field, scene_from_dict(DISK_SCENE)],
                         ids=["sinusoidal", "disk-scene"])
@pytest.mark.parametrize("P", [35, 9], ids=["nodes", "dense"])  # P < 2N+1: the dense fit
def test_solve_samples_sigma_one_ray_block_at_a_time(monkeypatch, field, P):
    # the Q-ray mesh is never materialized: no call sees more nodes than one block's
    sizes = []
    for cls, name in ((ConductivityField, "evaluate"), (AnalyticSeparable, "separable_parts"),
                      (PiecewiseSeparable, "separable_parts")):
        def counted(self, x, y, real=getattr(cls, name)):
            sizes.append(np.size(x))
            return real(self, x, y)
        monkeypatch.setattr(cls, name, counted)
    S = 60
    solve_dirichlet(field, np.cos, N=8, P=P, S=S, Q=1000)
    assert sizes and max(sizes) <= RAY_BLOCK * (S + 1)


WORKER_CASES = {  # period 2, period 1, the dense fit of P < 2N+1
    "sinusoidal": dict(field=SINUSOIDAL.field, data_fn=SINUSOIDAL.boundary_data, P=35),
    "disk-scene": dict(field=scene_from_dict(DISK_SCENE), data_fn=np.cos, P=35),
    "dense-fit": dict(field=SINUSOIDAL.field, data_fn=SINUSOIDAL.boundary_data, P=9),
}


@pytest.mark.parametrize("case", WORKER_CASES)
def test_solve_does_not_depend_on_the_worker_count(monkeypatch, case):
    runs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("OMP_NUM_THREADS", workers)
        runs.append(solve_dirichlet(**WORKER_CASES[case], N=8, S=60, Q=150))
    one, two = runs
    np.testing.assert_array_equal(one.fit_dense, two.fit_dense)
    np.testing.assert_array_equal(one.fit.coefficients, two.fit.coefficients)
    assert one.fit.error == two.fit.error
