import json
import math
import os

import numpy as np
import pytest

from fpeit import formal_powers
from fpeit.cli import main
from fpeit.conductivity import constant_field, radial_rings_field, scene_from_dict
from fpeit.errors import NumericalError
from fpeit.formal_powers import (
    RAY_BLOCK,
    boundary_system,
    build_table,
    formal_power_fields,
    pseudoanalyticity_check,
    ray_workers,
    rim_fit,
    rim_traces,
    write_powers_csv,
)
from fpeit.pseudoanalytic import GeneratingPair, build_sequence, fg_integral, radial_mesh
from fpeit.verification import sinusoidal_case


def degree_zero(pair, a0):
    """Degree-0 power lambda F + mu G of the pair (F, G) = (p, i/p), with real lambda, mu
    matching a0 at the center: the 2x2 system [Re F, Re G; Im F, Im G] (lambda, mu)^T =
    (Re a0, Im a0)^T, whose determinant Im(conj(F) G) is 1 for these pairs."""
    F, G = pair.F, 1j / pair.p
    M = np.array([[F[0, 0].real, G[0, 0].real], [F[0, 0].imag, G[0, 0].imag]])
    lam, mu = np.linalg.solve(M, [complex(a0).real, complex(a0).imag])
    return lam * F + mu * G


def test_degree_zero_unit_pair():
    mesh = radial_mesh(8, 50)
    pair = GeneratingPair(np.ones(mesh.nodes.shape))
    np.testing.assert_allclose(degree_zero(pair, 1.0), 1.0)
    np.testing.assert_allclose(degree_zero(pair, 1j), 1j)


def test_degree_zero_general_pair():
    # seed 1 with pair (p, i/p): lambda = 1/p(z0), mu = 0, so Z^(0) = p/p0
    mesh = radial_mesh(8, 50)
    p = np.exp(mesh.nodes.real)
    pair = GeneratingPair(p)
    Z0 = degree_zero(pair, 1.0)
    np.testing.assert_allclose(Z0, p / p[0, 0], rtol=1e-14)
    assert Z0[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_constant_sigma_powers_match_monomials():
    mesh = radial_mesh(16, 200)
    seq = build_sequence(constant_field(1.0), mesh)
    table = build_table(seq, mesh, 10)
    z = mesh.nodes
    for n in range(11):
        assert np.abs(table.Z1[n] - z ** n).max() < 1e-6
        assert np.abs(table.Zi[n] - 1j * z ** n).max() < 1e-6


def test_convergence_order_in_steps():
    # the cumulative cubic rule is 4th order; the contract asks for >= 1.8
    seqs = {}
    errs = []
    for S in (50, 100):
        mesh = radial_mesh(8, S)
        table = build_table(build_sequence(constant_field(1.0), mesh), mesh, 8)
        errs.append(np.abs(table.Z1[8] - mesh.nodes ** 8).max())
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.8


def test_center_values():
    mesh = radial_mesh(12, 80)
    case = sinusoidal_case(math.pi)
    table = build_table(build_sequence(case.field, mesh), mesh, 6)
    assert table.Z1[0][0, 0] == pytest.approx(1.0, abs=1e-14)
    assert table.Zi[0][0, 0] == pytest.approx(1j, abs=1e-14)
    for n in range(1, 7):
        assert np.abs(table.Z1[n][:, 0]).max() == 0.0
        assert np.abs(table.Zi[n][:, 0]).max() == 0.0
    assert np.all(np.isfinite(table.Z1)) and np.all(np.isfinite(table.Zi))


def test_seed_i_degree_zero_trace_vanishes():
    # Re Z^(0)(i)|_Gamma = Re(i p0 / p) = 0 identically
    mesh = radial_mesh(12, 80)
    case = sinusoidal_case(math.pi)
    table = build_table(build_sequence(case.field, mesh), mesh, 3)
    assert np.abs(table.re_trace("i", 0)).max() <= 1e-14


def test_linearity_in_the_seed():
    mesh = radial_mesh(10, 80)
    case = sinusoidal_case(math.pi)
    seq = build_sequence(case.field, mesh)
    direct = formal_power_fields(seq, mesh, 5, 3.0 + 4.0j)
    Z1 = formal_power_fields(seq, mesh, 5, 1.0)
    Zi = formal_power_fields(seq, mesh, 5, 1j)
    combo = 3.0 * Z1 + 4.0 * Zi
    scale = np.abs(direct).max()
    assert np.abs(direct - combo).max() <= 1e-12 * scale


def test_chains_stop_at_their_last_kept_degree(monkeypatch):
    # period 2, N = 5: the start-0 chain keeps degrees 0, 2, 4 and the start-1
    # chain 1, 3, 5, so 4 + 5 integrations, each one step of the stacked seeds
    mesh = radial_mesh(10, 60)
    seq = build_sequence(sinusoidal_case(math.pi).field, mesh)
    assert seq.period == 2
    longer = formal_power_fields(seq, mesh, 6, 1.0)
    calls = []
    real = formal_powers._Chains.step

    def counting(self, pair, d):
        calls.append(1)
        return real(self, pair, d)

    monkeypatch.setattr(formal_powers._Chains, "step", counting)
    Z = formal_power_fields(seq, mesh, 5, 1.0)
    assert len(calls) == 9
    np.testing.assert_array_equal(Z, longer[:6])


def reference_formal_power_fields(seq, mesh, N, seed, rule="cubic"):
    """The complex chain the stacked real chains replaced: one pair integral per degree."""
    k = seq.period
    out = np.empty((N + 1,) + mesh.nodes.shape, dtype=complex)
    for start in range(min(k, N + 1)):
        W = degree_zero(seq.pair_for(start), seed)
        if start % k == 0:
            out[0] = W
        for d in range(1, N - (N - start) % k + 1):
            W = d * fg_integral(W, seq.pair_for(start - d), mesh, rule=rule)
            if (start - d) % k == 0:
                out[d] = W
    return out


DISK_SCENE = {"background": 10.0,
              "shapes": [{"kind": "disk", "cx": 0.3, "cy": -0.2, "r2": 0.1, "value": 60.0}]}


@pytest.mark.parametrize("field, period", [(sinusoidal_case(math.pi).field, 2),
                                           (scene_from_dict(DISK_SCENE), 1)],
                         ids=["sinusoidal", "disk-scene"])
@pytest.mark.parametrize("rule", ["cubic", "trapezoid"])
# S = 301 is not a multiple of the quadrature chunk
@pytest.mark.parametrize("S, grading", [(60, 1.0), (60, 2.0), (301, 1.0)],
                         ids=["S60", "S60-graded", "S301"])
def test_stacked_chains_match_complex_chain(field, period, rule, S, grading):
    mesh = radial_mesh(13, S, rim_grading=grading)
    seq = build_sequence(field, mesh)
    assert seq.period == period
    table = build_table(seq, mesh, 7, rule=rule)
    for seed, Z in ((1.0, table.Z1), (1j, table.Zi)):
        ref = reference_formal_power_fields(seq, mesh, 7, seed, rule)
        scale = np.abs(ref).max()
        assert np.abs(Z - ref).max() <= 1e-13 * scale
        assert np.abs(formal_power_fields(seq, mesh, 7, seed, rule=rule) - ref).max() <= 1e-13 * scale


def test_linearity_random_seeds():
    mesh = radial_mesh(8, 60)
    seq = build_sequence(constant_field(2.0), mesh)
    rng = np.random.default_rng(11)
    Z1 = formal_power_fields(seq, mesh, 4, 1.0)
    Zi = formal_power_fields(seq, mesh, 4, 1j)
    for _ in range(5):
        a = complex(rng.normal(), rng.normal())
        direct = formal_power_fields(seq, mesh, 4, a)
        combo = a.real * Z1 + a.imag * Zi
        scale = max(np.abs(direct).max(), 1.0)
        assert np.abs(direct - combo).max() <= 1e-12 * scale


def test_pseudoanalyticity_residual_refines():
    # joint (P, S) refinement; with P fixed the angular truncation floor
    # dominates and no decrease can show
    case = sinusoidal_case(math.pi)
    maxima = []
    for P, S in ((48, 100), (96, 200)):
        mesh = radial_mesh(P, S)
        seq = build_sequence(case.field, mesh)
        table = build_table(seq, mesh, 5)
        res = pseudoanalyticity_check(table, seq.pair_for(0).p)
        maxima.append(res.max())
    assert maxima[1] < maxima[0] / 1.5


def test_pseudoanalyticity_restricted_for_discontinuous_sigma():
    # Rings conductivity, residual restricted away from the jump radii.
    # Inside the innermost ring the chain never crosses a jump and the
    # residual refines at second order; beyond the first jump the radial path
    # integrals accumulate angle-dependent jump contributions, so the
    # restricted residual converges to a finite nonzero limit there (a
    # property of the limit-case construction, not a discretization error).
    field = radial_rings_field()
    edges = (0.2, 0.4, 0.6, 0.8)
    inner_maxima = []
    global_maxima = []
    for P, S in ((48, 101), (96, 201)):
        mesh = radial_mesh(P, S)
        seq = build_sequence(field, mesh)
        table = build_table(seq, mesh, 4)
        p0 = seq.pair_for(0).p
        r = np.abs(mesh.nodes)
        inner = r < 0.15
        res_inner = pseudoanalyticity_check(table, p0, keep=inner)
        inner_maxima.append(res_inner.max())
        margin = 2.5 * (mesh.t[1] - mesh.t[0])
        clear = np.ones(mesh.nodes.shape, dtype=bool)
        for e in edges:
            clear &= np.abs(r - e) > margin
        global_maxima.append(pseudoanalyticity_check(table, p0, keep=clear).max())
    assert inner_maxima[1] < inner_maxima[0] / 1.5
    assert inner_maxima[1] < 1e-2
    assert all(np.isfinite(global_maxima)) and max(global_maxima) < 5.0


def test_powers_csv_dump(tmp_path):
    mesh = radial_mesh(5, 50)
    table = build_table(build_sequence(constant_field(1.0), mesh), mesh, 2)
    path = tmp_path / "powers.csv"
    write_powers_csv(table, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "degree,seed,ray,step,x,y,ReZ,ImZ"
    assert len(lines) == 1 + 2 * 3 * 5 * 51  # seeds * degrees * rays * steps
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"
    # rows run seed-major, then degree, ray, step; every value reads back bit for bit
    back = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 2, 3, 4, 5, 6, 7))
    Z = np.stack([table.Z1, table.Zi])
    degree, ray, step = np.indices(Z.shape[1:])
    x, y = mesh.xy()
    for col, want in enumerate((degree, ray, step, np.broadcast_to(x, Z.shape[1:]),
                                np.broadcast_to(y, Z.shape[1:]))):
        np.testing.assert_array_equal(back[:, col], np.tile(want.ravel(), 2))
    np.testing.assert_array_equal(back[:, 5], Z.real.ravel())
    np.testing.assert_array_equal(back[:, 6], Z.imag.ravel())


@pytest.mark.parametrize("field, period", [(sinusoidal_case(math.pi).field, 2),
                                           (scene_from_dict(DISK_SCENE), 1)],
                         ids=["sinusoidal", "disk-scene"])
@pytest.mark.parametrize("rays, grading", [(150, 1.0), (40, 1.0), (150, 2.0)],
                         ids=["150-rays", "40-rays", "150-rays-graded"])
def test_rim_traces_match_boundary_system(field, period, rays, grading):
    # 150 rays leave a ragged last block, 40 fit in one
    mesh = radial_mesh(rays, 60, rim_grading=grading)
    seq = build_sequence(field, mesh)
    assert seq.period == period
    np.testing.assert_array_equal(rim_traces(seq, mesh, 6),
                                  boundary_system(build_table(seq, mesh, 6)).raw)


def test_rim_traces_do_not_depend_on_the_worker_count(monkeypatch):
    mesh = radial_mesh(150, 60)
    seq = build_sequence(sinusoidal_case(math.pi).field, mesh)
    traces = []
    for workers in ("1", "2"):
        monkeypatch.setenv("OMP_NUM_THREADS", workers)
        traces.append(rim_traces(seq, mesh, 6))
    np.testing.assert_array_equal(traces[0], traces[1])


def random_fit_coefficients(N, seed=5):
    """Raw coefficients c over the 2N+1 traces and the seeds a_n = c_n + i c_(N+1+n)."""
    c = np.random.default_rng(seed).standard_normal(2 * N + 1)
    return c, c[:N + 1] + 1j * np.concatenate([[0.0], c[N + 1:]])


@pytest.mark.parametrize("field, period", [(sinusoidal_case(math.pi).field, 2),
                                           (scene_from_dict(DISK_SCENE), 1)],
                         ids=["sinusoidal", "disk-scene"])
@pytest.mark.parametrize("rule", ["cubic", "trapezoid"])
@pytest.mark.parametrize("grading", [1.0, 2.0], ids=["uniform", "graded"])
@pytest.mark.parametrize("N", [6, 7])
def test_rim_fit_matches_combined_traces(field, period, rule, grading, N):
    # 150 rays leave a ragged last block
    mesh = radial_mesh(150, 60, rim_grading=grading)
    seq = build_sequence(field, mesh)
    assert seq.period == period
    c, a = random_fit_coefficients(N)
    ref = c @ rim_traces(seq, mesh, N, rule=rule)
    assert np.abs(rim_fit(seq, mesh, N, a, rule=rule) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_rim_fit_does_not_depend_on_the_worker_count(monkeypatch):
    mesh = radial_mesh(150, 60)
    seq = build_sequence(sinusoidal_case(math.pi).field, mesh)
    _, a = random_fit_coefficients(6)
    fits = []
    for workers in ("1", "2"):
        monkeypatch.setenv("OMP_NUM_THREADS", workers)
        fits.append(rim_fit(seq, mesh, 6, a))
    np.testing.assert_array_equal(fits[0], fits[1])


def test_ray_workers_clamps_the_thread_cap():
    cores = len(os.sched_getaffinity(0))
    assert ray_workers({"OMP_NUM_THREADS": "1"}) == 1
    assert ray_workers({}) == cores
    assert ray_workers({"OMP_NUM_THREADS": "0"}) == cores
    assert ray_workers({"OMP_NUM_THREADS": "100000"}) == cores


BAD_RAY = RAY_BLOCK + 5  # a ray of the second block


def poison_ray(monkeypatch, Q):
    """Make every chain step leave a NaN at step 3 of ray BAD_RAY of a Q-ray mesh."""
    real = formal_powers._Chains.step
    bad_theta = (2.0 * math.pi * np.arange(Q) / Q)[BAD_RAY]

    def step(self, pair, d):
        real(self, pair, d)
        self.state[3, ..., np.flatnonzero(self.mesh.theta == bad_theta)] = np.nan

    monkeypatch.setattr(formal_powers._Chains, "step", step)


def test_rim_traces_report_the_global_ray(monkeypatch):
    mesh = radial_mesh(150, 40)
    seq = build_sequence(constant_field(1.0), mesh)
    poison_ray(monkeypatch, 150)
    with pytest.raises(NumericalError, match=f"ray {BAD_RAY}, step 3"):
        rim_traces(seq, mesh, 3)


def test_rim_fit_reports_the_global_ray(monkeypatch):
    mesh = radial_mesh(150, 40)
    seq = build_sequence(constant_field(1.0), mesh)
    poison_ray(monkeypatch, 150)
    with pytest.raises(NumericalError, match=f"ray {BAD_RAY}, step 3"):
        rim_fit(seq, mesh, 3, random_fit_coefficients(3)[1])


def test_solve_exits_3_on_a_block_failure(tmp_path, monkeypatch, capsys):
    poison_ray(monkeypatch, 150)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": "constant", "N": 3, "P": 12, "S": 50, "Q": 150}))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"ray {BAD_RAY}," in err
    assert "Traceback" not in err

