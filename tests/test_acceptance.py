"""Acceptance suite: one test per exit criterion.

Each test prints a PASS line with the measured quantities (run with
``pytest -s tests/test_acceptance.py`` to see them as they go). Expensive
pipeline runs are shared through module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from fpeit.boundary_solver import solve_dirichlet
from fpeit.conductivity import constant_field
from fpeit.formal_powers import build_table, formal_power_fields
from fpeit.presets import build_boundary_data, build_field, config_from_dict
from fpeit.pseudoanalytic import (
    GeneratingPair,
    build_sequence,
    fg_integral,
    radial_mesh,
    successor_residual_mesh,
)
from fpeit.verification import (
    divergence_residual,
    interior_points,
    lorentzian_case,
    sinusoidal_case,
)
from oracle_meshes import oracle_mesh


def run_preset(name, **over):
    cfg = config_from_dict({"preset": name, **over})
    field = build_field(cfg)
    data = build_boundary_data(cfg)
    t0 = time.monotonic()
    res = solve_dirichlet(field, data, N=cfg.N, P=cfg.P, S=cfg.S, Q=cfg.Q,
                          dense_error=cfg.dense_error)
    return res, time.monotonic() - t0


@pytest.fixture(scope="module")
def sinusoidal_runs():
    runs = {}
    for N in (5, 10, 17):
        runs[N] = run_preset("sinusoidal", N=N)
    return runs


@pytest.fixture(scope="module")
def lorentzian_runs():
    return {beta: run_preset(f"lorentzian-{beta:g}") for beta in (0.0, 0.5, 1.0)}


@pytest.fixture(scope="module")
def rings_run():
    return run_preset("radial-rings")


def test_criterion_1_classical_limit():
    t0 = time.monotonic()
    mesh = radial_mesh(360, 400)
    seq = build_sequence(constant_field(1.0), mesh)
    table = build_table(seq, mesh, 10)
    z = mesh.nodes
    worst = 0.0
    for n in range(11):
        worst = max(worst, np.abs(table.Z1[n] - z ** n).max(),
                    np.abs(table.Zi[n] - 1j * z ** n).max())
    # the constant preset's boundary data is the x^2 - y^2 trace, i.e. Re z^2
    res, _ = run_preset("constant", N=10, P=360, S=400, Q=1000)
    elapsed = time.monotonic() - t0
    print(f"\n[criterion 1] max |Z - z^n| = {worst:.3e} (<= 1e-6), "
          f"E(Re z^2) = {res.fit.error:.3e} (<= 1e-8), {elapsed:.1f}s (<= 10s): "
          f"{'PASS' if worst <= 1e-6 and res.fit.error <= 1e-8 and elapsed <= 10 else 'FAIL'}")
    assert worst <= 1e-6
    assert res.fit.error <= 1e-8
    assert elapsed <= 10.0


def test_criterion_2_sinusoidal(sinusoidal_runs):
    res, elapsed = sinusoidal_runs[17]
    ok = res.fit.error <= 5e-3 and elapsed <= 30.0
    print(f"\n[criterion 2] sinusoidal E = {res.fit.error:.4e} (<= 5e-3), "
          f"{elapsed:.1f}s (<= 30s): {'PASS' if ok else 'FAIL'}")
    assert res.fit.error <= 5e-3
    assert elapsed <= 30.0


def test_criterion_3_lorentzian_family(lorentzian_runs):
    bounds = {0.0: 5e-3, 0.5: 1e-2, 1.0: 2e-2}
    errs = {beta: lorentzian_runs[beta][0].fit.error for beta in (0.0, 0.5, 1.0)}
    ok = all(errs[b] <= bounds[b] for b in errs)
    monotone = errs[0.0] <= errs[0.5] <= errs[1.0]
    print(f"\n[criterion 3] lorentzian E = "
          + ", ".join(f"beta={b:g}: {errs[b]:.4e} (<= {bounds[b]:g})" for b in errs)
          + f", monotone={monotone}: {'PASS' if ok and monotone else 'FAIL'}")
    for b in errs:
        assert errs[b] <= bounds[b]
    assert monotone


def test_criterion_4_radial_rings_structure(rings_run):
    res, _ = rings_run
    b = res.fit.coefficients
    labels = res.fit.labels
    by_label = dict(zip(labels.tolist(), b.tolist()))
    significant = sorted(int(l) for l, v in zip(labels, b) if abs(v) > 1e-3)
    sym1 = abs(by_label[1] + by_label[19]) / abs(by_label[1])
    sym3 = abs(by_label[3] - by_label[21]) / abs(by_label[1])
    ok = (significant == [1, 3, 19, 21] and sym1 <= 1e-6 and sym3 <= 1e-6
          and res.fit.error <= 1e-8)
    print(f"\n[criterion 4] rings: significant alpha = {significant} (= [1, 3, 19, 21]), "
          f"|b1+b19|/|b1| = {sym1:.2e}, |b3-b21|/|b1| = {sym3:.2e} (<= 1e-6), "
          f"E = {res.fit.error:.3e} (<= 1e-8): {'PASS' if ok else 'FAIL'}")
    assert significant == [1, 3, 19, 21]
    assert sym1 <= 1e-6 and sym3 <= 1e-6
    assert res.fit.error <= 1e-8


def test_criterion_5_disk_scenes():
    errs = {}
    for name in ("disk-center", "disk-0.6", "disk-0.79"):
        res, _ = run_preset(name)
        errs[name] = res.fit.error
    ratio_ok = errs["disk-center"] <= 1e-4 * min(errs["disk-0.6"], errs["disk-0.79"])
    ok = (errs["disk-center"] <= 1e-8 and errs["disk-0.6"] <= 5e-2
          and errs["disk-0.79"] <= 5e-2 and ratio_ok)
    print(f"\n[criterion 5] disks: center E = {errs['disk-center']:.3e} (<= 1e-8), "
          f"offset E = {errs['disk-0.6']:.3e}, {errs['disk-0.79']:.3e} (<= 5e-2), "
          f"center 1e4x smaller: {ratio_ok}: {'PASS' if ok else 'FAIL'}")
    assert errs["disk-center"] <= 1e-8
    assert errs["disk-0.6"] <= 5e-2
    assert errs["disk-0.79"] <= 5e-2
    assert ratio_ok


def test_criterion_6_triangle():
    res, _ = run_preset("triangle")
    basis_size = len(res.basis.labels)
    resid = np.abs(res.data_dense - res.fit_dense)
    th = res.theta_dense
    is_peak = (resid > np.roll(resid, 1)) & (resid > np.roll(resid, -1))
    order = np.argsort(resid[is_peak])[::-1]
    peak_th = th[is_peak][order[:2]]
    targets = np.array([math.pi / 4, 5 * math.pi / 4])

    def circ_dist(a, b):
        d = abs(a - b) % (2 * math.pi)
        return min(d, 2 * math.pi - d)

    # the two largest maxima must cover both targets, each within 0.3 rad
    d00 = circ_dist(peak_th[0], targets[0])
    d01 = circ_dist(peak_th[0], targets[1])
    d10 = circ_dist(peak_th[1], targets[0])
    d11 = circ_dist(peak_th[1], targets[1])
    assignment = min(max(d00, d11), max(d01, d10))
    ok = basis_size == 61 and res.fit.error <= 0.15 and assignment <= 0.3
    print(f"\n[criterion 6] triangle: basis = {basis_size} (= 61), "
          f"E = {res.fit.error:.4e} (<= 0.15), peak angles = "
          f"{peak_th[0]:.3f}, {peak_th[1]:.3f} (targets pi/4, 5pi/4, within 0.3): "
          f"{'PASS' if ok else 'FAIL'}")
    assert basis_size == 61
    assert res.fit.error <= 0.15
    assert assignment <= 0.3


def test_criterion_7_structural_identities(sinusoidal_runs):
    case = sinusoidal_case(math.pi)

    # successor-condition residual decreases under stencil (mesh) refinement
    coarse = radial_mesh(48, 100)
    fine = radial_mesh(96, 200)
    s_coarse = max(successor_residual_mesh(build_sequence(case.field, coarse), coarse))
    s_fine = max(successor_residual_mesh(build_sequence(case.field, fine), fine))
    succ_ok = s_fine < s_coarse / 1.5

    # antiderivative round trip at order ~2 in S (trapezoid rule, pair (1, i))
    rng = np.random.default_rng(3)
    slopes = []
    for _ in range(10):
        coef = rng.normal(size=5) + 1j * rng.normal(size=5)
        errs = []
        for S in (50, 100, 200):
            mesh = oracle_mesh(4, S, rule="trapezoid")
            pair = GeneratingPair(np.ones(mesh.nodes.shape))
            z = mesh.nodes
            Wp = sum(k * c * z ** (k - 1) for k, c in enumerate(coef) if k >= 1)
            W = sum(c * z ** k for k, c in enumerate(coef))
            rt = fg_integral(2 * Wp, pair, mesh)
            errs.append(np.abs((rt - 2 * (W - W[0, 0]))[:, -1]).max())
        slopes.append(-np.polyfit(np.log((50, 100, 200)), np.log(errs), 1)[0])
    rt_ok = all(1.7 <= s <= 2.4 for s in slopes)

    # formal-power linearity to 1e-12
    mesh = radial_mesh(10, 80)
    seq = build_sequence(case.field, mesh)
    direct = formal_power_fields(seq, mesh, 5, 3.0 + 4.0j)
    combo = (3.0 * formal_power_fields(seq, mesh, 5, 1.0)
             + 4.0 * formal_power_fields(seq, mesh, 5, 1j))
    lin = np.abs(direct - combo).max() / np.abs(direct).max()
    lin_ok = lin <= 1e-12

    # orthonormality defect <= 1e-10 on the N=17 sinusoidal basis
    basis = sinusoidal_runs[17][0].basis
    M = (basis.functions * basis.weights) @ basis.functions.T
    defect = np.abs(M - np.eye(len(M))).max()
    orth_ok = defect <= 1e-10

    # E non-increasing in N on nested runs
    Es = [sinusoidal_runs[N][0].fit.error for N in (5, 10, 17)]
    mono_ok = Es[0] >= Es[1] >= Es[2]

    # Re Z^(0)(i)|_Gamma identically zero
    res = sinusoidal_runs[17][0]
    tr = build_table(build_sequence(res.field, res.mesh), res.mesh, 0).Zi[0, :, -1].real
    zi0_ok = np.abs(tr).max() <= 1e-14

    ok = succ_ok and rt_ok and lin_ok and orth_ok and mono_ok and zi0_ok
    print(f"\n[criterion 7] successor {s_coarse:.2e}->{s_fine:.2e} (decrease {succ_ok}), "
          f"round-trip order in [{min(slopes):.2f}, {max(slopes):.2f}] (~2), "
          f"linearity = {lin:.2e} (<= 1e-12), orthonormality defect = {defect:.2e} (<= 1e-10), "
          f"E(N=5,10,17) = {Es[0]:.2e} >= {Es[1]:.2e} >= {Es[2]:.2e}, "
          f"ReZ0(i) trace = {np.abs(tr).max():.1e} (= 0): {'PASS' if ok else 'FAIL'}")
    assert succ_ok and rt_ok and lin_ok and orth_ok and mono_ok and zi0_ok


def test_criterion_8_exact_solution_oracles():
    pts = interior_points(200, rmax=0.95, seed=3)
    lines = []
    ok = True
    for case in (sinusoidal_case(math.pi), lorentzian_case(0.0)):
        r3 = divergence_residual(case.sigma, case.u, pts, h=1e-3, dtype=np.longdouble)
        r4 = divergence_residual(case.sigma, case.u, pts, h=1e-4, dtype=np.longdouble)
        order = math.log10(r3 / r4)
        ok = ok and 1.7 <= order <= 2.3 and r4 <= 1e-4
        lines.append(f"{case.name}: r(1e-3)={r3:.2e}, r(1e-4)={r4:.2e}, order={order:.2f}")
    print(f"\n[criterion 8] divergence oracles at order ~h^2: "
          + "; ".join(lines) + f": {'PASS' if ok else 'FAIL'}")
    assert ok
