import csv
import io
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import Chebyshev

from fpeit import formal_powers, pseudoanalytic
from fpeit.cli import main
from fpeit.conductivity import (ConductivityField, constant_field, radial_rings_field,
                                scene_from_dict)
from fpeit.errors import NumericalError, ValidationError
from fpeit.formal_powers import (
    RAY_BLOCK,
    BoundarySystem,
    build_table,
    fitted_field,
    formal_power_fields,
    pseudoanalyticity_check,
    ray_workers,
    rim_traces,
    rows,
    write_powers_csv,
)
from fpeit.presets import build_field, config_from_dict
from fpeit.pseudoanalytic import GeneratingPair, build_sequence, radial_mesh
from fpeit.verification import lorentzian_case, sinusoidal_case
from oracle_meshes import oracle_mesh
from test_pseudoanalytic import reference_fg_integral


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
    assert np.abs(table.Zi[0, :, -1].real).max() <= 1e-14


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
    """The complex chain the stacked real chains replaced: one complex-kernel pair integral
    per degree, by the mesh's ray rule ``rule``."""
    k = seq.period
    out = np.empty((N + 1,) + mesh.nodes.shape, dtype=complex)
    for start in range(min(k, N + 1)):
        W = degree_zero(seq.pair_for(start), seed)
        if start % k == 0:
            out[0] = W
        for d in range(1, N - (N - start) % k + 1):
            W = d * reference_fg_integral(W, seq.pair_for(start - d), mesh, rule)
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
    mesh = oracle_mesh(13, S, rim_grading=grading, rule=rule)
    seq = build_sequence(field, mesh)
    assert seq.period == period
    table = build_table(seq, mesh, 7)
    for seed, Z in ((1.0, table.Z1), (1j, table.Zi)):
        ref = reference_formal_power_fields(seq, mesh, 7, seed, rule)
        scale = np.abs(ref).max()
        assert np.abs(Z - ref).max() <= 1e-13 * scale
        assert np.abs(formal_power_fields(seq, mesh, 7, seed) - ref).max() <= 1e-13 * scale


CHEB_DEG = 96


def closed_form_series(weight, N, at):
    """X^(0..N) at the points ``at``: X^(0) = 1 and X^(n) = n int_0^x X^(n-1) w, where w is
    1/weight at odd n and weight at even n, each integrand a degree-96 Chebyshev interpolant."""
    w = (Chebyshev.interpolate(weight, CHEB_DEG),
         Chebyshev.interpolate(lambda s: 1.0 / weight(s), CHEB_DEG))
    X, out = Chebyshev([1.0]), [np.ones_like(at)]
    for n in range(1, N + 1):
        X = n * Chebyshev.interpolate(lambda s, X=X, w=w[n % 2]: X(s) * w(s), CHEB_DEG).integ(lbnd=0)
        out.append(X(at))
    return out


def separable_powers_oracle(field, mesh, N):
    """Z^(n)(1) and Z^(n)(i), n = 0..N, of sigma = sigma1(x) sigma2(y) at the mesh nodes in
    closed form (Kravchenko & Oviedo, Complex Var. Elliptic Equ. 52, 2007).

    With phi^2 = sigma1(0)/sigma1(x), psi^2 = sigma2(y)/sigma2(0) and F = phi psi, the
    series X, X~ (weights phi^-2, phi^2 at odd n; swapped for X~) and Y, Y~ (the same in y
    with psi) give Z*(a) = a sum_j C(n, j) X_a^(n-j) i^j Y_a^(j), and Z = F Re Z* + i Im Z*/F.
    """
    x, y = mesh.xy()
    phi2 = lambda s: field.sigma1(0.0) / field.sigma1(s)
    psi2 = lambda s: field.sigma2(s) / field.sigma2(0.0)
    F = np.sqrt(phi2(x) * psi2(y))
    X, Xt = closed_form_series(phi2, N, x), closed_form_series(lambda s: 1.0 / phi2(s), N, x)
    Y, Yt = closed_form_series(psi2, N, y), closed_form_series(lambda s: 1.0 / psi2(s), N, y)

    def power(a, Xa, Yb, n):
        z = a * sum(math.comb(n, j) * Xa[n - j] * 1j ** j * Yb[j] for j in range(n + 1))
        return F * z.real + 1j * z.imag / F

    return ([power(1.0, X if n % 2 else Xt, Yt, n) for n in range(N + 1)],
            [power(1j, Xt if n % 2 else X, Y, n) for n in range(N + 1)])


@pytest.mark.parametrize("case", [sinusoidal_case(math.pi), lorentzian_case(0.5)],
                         ids=["sinusoidal", "lorentzian-0.5"])
def test_separable_powers_match_the_closed_form(case):
    # the gap of each degree over its max|Z|; the cubic ray rule gains 16x per doubling of S
    N, gaps = 12, []
    for S in (400, 800):
        mesh = radial_mesh(16, S)
        table = build_table(build_sequence(case.field, mesh), mesh, N)
        Z1, Zi = separable_powers_oracle(case.field, mesh, N)
        gaps.append(np.array([max(np.abs(table.Z1[n] - Z1[n]).max() / np.abs(Z1[n]).max(),
                                  np.abs(table.Zi[n] - Zi[n]).max() / np.abs(Zi[n]).max())
                              for n in range(N + 1)]))
    assert gaps[0].max() <= 1e-6
    assert np.all(gaps[0][1:] >= 12 * gaps[1][1:])


def test_build_table_rejects_a_rule_other_than_the_meshs():
    mesh = radial_mesh(8, 40)
    seq = build_sequence(constant_field(1.0), mesh)
    with pytest.raises(ValidationError, match="'trapezoid' is not the mesh's quadrature rule 'cubic'"):
        build_table(seq, mesh, 2, rule="trapezoid")
    assert build_table(seq, mesh, 2, rule="cubic").Z1.tobytes() == build_table(seq, mesh, 2).Z1.tobytes()


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
        res = pseudoanalyticity_check(seq, mesh, 5)
        maxima.append(res.max())
    assert maxima[1] < maxima[0] / 1.5


def test_pseudoanalyticity_check_holds_no_table():
    # the triangle's refined verify mesh; its seed-1 and seed-i table alone takes
    # 2 (N+1) P (S+1) 16 bytes = 7.1 MB, and the table plus the check peaked at 12.6 MB
    config = config_from_dict({"preset": "triangle"})
    mesh = radial_mesh(2 * config.P, 2 * min(config.S, 100))
    assert (mesh.ray_count, mesh.step_count + 1) == (122, 201)
    seq = build_sequence(build_field(config), mesh)
    tracemalloc.start()
    try:
        pseudoanalyticity_check(seq, mesh, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9e6


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
        residual = pseudoanalytic._vekua_operator(p0, mesh)
        # max interior residual of both seeds and every degree over the nodes in keep
        res = np.fmax.reduce([residual(Z) for Z in (*table.Z1, *table.Zi)])[:, 1:-1]
        inner_maxima.append(np.nanmax(np.where(inner[:, 1:-1], res, np.nan)))
        margin = 2.5 * (mesh.t[1] - mesh.t[0])
        clear = np.ones(mesh.nodes.shape, dtype=bool)
        for e in edges:
            clear &= np.abs(r - e) > margin
        global_maxima.append(np.nanmax(np.where(clear[:, 1:-1], res, np.nan)))
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


def test_rows_match_csv_writer_on_mixed_columns():
    ints = np.array([0, -1, 42, -7, -(2 ** 63), 2 ** 63 - 1])
    floats = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308])
    grid = (np.arange(6) / 7).reshape(3, 2).T  # Fortran-ordered memory, read in C order
    ready = ["a%s", "100%", "%%", "%d", "x", "%"]
    const = "7,%i%"
    ref = io.StringIO()
    csv.writer(ref).writerows(
        [str(ints[k]), f"{floats[k]:.17g}", f"{grid[k // 3, k % 3]:.17g}", ready[k], "7", "%i%"]
        for k in range(6))
    assert rows(ints, floats, grid, ready, const) == ref.getvalue()
    assert rows(np.array([], dtype=int), np.empty((0, 3)), [], const) == ""
    with pytest.raises(ValueError):
        rows(ints, floats[:5])


def test_powers_dump_logs_rows_size_seconds_and_rate(tmp_path, caplog):
    mesh = radial_mesh(4, 30)
    table = build_table(build_sequence(constant_field(1.0), mesh), mesh, 3)
    path = tmp_path / "powers.csv"
    with caplog.at_level("INFO", logger="fpeit.formal_powers"):
        write_powers_csv(table, path)
    (record,) = [r for r in caplog.records if "formal powers" in r.getMessage()]
    count, mb, where, seconds, rate = record.args
    assert count == 2 * table.Z1.size == len(path.read_text().splitlines()) - 1
    assert mb == path.stat().st_size / 1e6 and where == path
    assert seconds > 0 and rate == mb / seconds
    message = record.getMessage()
    for number in (f"{count} rows", f"{mb:.1f} MB", f"{seconds:.3g} s", f"{rate:.1f} MB/s"):
        assert number in message


def reference_boundary_system(table):
    """The table route rim_traces replaced: the rim column of the table's real parts,
    seed-1 degrees 0..N, then seed-i degrees 1..N, with label N+1 reserved."""
    N = table.N
    return BoundarySystem(theta=table.mesh.theta.copy(),
                          weights=table.mesh.boundary_weights.copy(),
                          raw=np.concatenate([table.Z1[:, :, -1].real, table.Zi[1:, :, -1].real]),
                          labels=np.asarray(list(range(N + 1)) + list(range(N + 2, 2 * N + 2))))


@pytest.mark.parametrize("field, period", [(sinusoidal_case(math.pi).field, 2),
                                           (scene_from_dict(DISK_SCENE), 1)],
                         ids=["sinusoidal", "disk-scene"])
@pytest.mark.parametrize("rays, grading", [(150, 1.0), (40, 1.0), (150, 2.0)],
                         ids=["150-rays", "40-rays", "150-rays-graded"])
def test_rim_traces_match_boundary_system(field, period, rays, grading):
    # 150 rays leave a ragged last block, 40 fit in one
    mesh = oracle_mesh(rays, 60, rim_grading=grading)
    seq = build_sequence(field, mesh)
    assert seq.period == period
    system, ref = rim_traces(field, mesh, 6), reference_boundary_system(build_table(seq, mesh, 6))
    for name in ("theta", "weights", "raw", "labels"):
        np.testing.assert_array_equal(getattr(system, name), getattr(ref, name))


def test_rim_traces_do_not_depend_on_the_worker_count(monkeypatch):
    mesh = radial_mesh(150, 60)
    field = sinusoidal_case(math.pi).field
    traces = []
    for workers in ("1", "2"):
        monkeypatch.setenv("OMP_NUM_THREADS", workers)
        traces.append(rim_traces(field, mesh, 6).raw)
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
    mesh = oracle_mesh(150, 60, rim_grading=grading, rule=rule)
    seq = build_sequence(field, mesh)
    assert seq.period == period
    c, a = random_fit_coefficients(N)
    ref = c @ rim_traces(field, mesh, N).raw
    fit = fitted_field(field, mesh, N, a)
    assert np.abs(fit[:, -1] - ref).max() <= 1e-13 * np.abs(ref).max()
    # the whole field is the same combination of the table's real parts
    table = build_table(seq, mesh, N)
    ref_field = np.einsum("m,mps->ps", c, np.concatenate([table.Z1.real, table.Zi[1:].real]))
    assert np.abs(fit - ref_field).max() <= 1e-13 * np.abs(ref_field).max()


def test_rim_fit_does_not_depend_on_the_worker_count(monkeypatch):
    mesh = radial_mesh(150, 60)
    field = sinusoidal_case(math.pi).field
    _, a = random_fit_coefficients(6)
    fits = []
    for workers in ("1", "2"):
        monkeypatch.setenv("OMP_NUM_THREADS", workers)
        fits.append(fitted_field(field, mesh, 6, a))
    np.testing.assert_array_equal(fits[0], fits[1])


def test_ray_workers_clamps_the_thread_cap():
    cores = len(os.sched_getaffinity(0))
    assert ray_workers({"OMP_NUM_THREADS": "1"}) == 1
    assert ray_workers({}) == cores
    assert ray_workers({"OMP_NUM_THREADS": "0"}) == cores
    assert ray_workers({"OMP_NUM_THREADS": "100000"}) == cores


BAD_RAY = RAY_BLOCK + 5  # a ray of the second block


def poison_ray(monkeypatch):
    """Make every chain step leave a NaN at step 3 of ray BAD_RAY, just before its check."""
    real = pseudoanalytic._check_finite

    def check(state, degree, first_ray):
        if 0 <= BAD_RAY - first_ray < state.shape[-1]:
            state[3, ..., BAD_RAY - first_ray] = np.nan
        real(state, degree, first_ray)

    monkeypatch.setattr(pseudoanalytic, "_check_finite", check)


def test_rim_traces_report_the_global_ray(monkeypatch):
    mesh = radial_mesh(150, 40)
    poison_ray(monkeypatch)
    with pytest.raises(NumericalError, match=f"ray {BAD_RAY}, step 3"):
        rim_traces(constant_field(1.0), mesh, 3)


def test_rim_fit_reports_the_global_ray(monkeypatch):
    mesh = radial_mesh(150, 40)
    poison_ray(monkeypatch)
    with pytest.raises(NumericalError, match=f"ray {BAD_RAY}, step 3"):
        fitted_field(constant_field(1.0), mesh, 3, random_fit_coefficients(3)[1])


def test_solve_exits_3_on_a_block_failure(tmp_path, monkeypatch, capsys):
    poison_ray(monkeypatch)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": "constant", "N": 3, "P": 12, "S": 50, "Q": 150}))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"ray {BAD_RAY}," in err
    assert "Traceback" not in err



def test_solve_exits_2_when_a_block_sequence_fails(tmp_path, monkeypatch, capsys):
    # sigma reads 0 on the rays of the second block of the Q-ray mesh, which are
    # told from the P rays by their angular pitch, so that block's sequence fails
    Q = 150
    lo, hi = 2.0 * math.pi * RAY_BLOCK / Q, 2.0 * math.pi * 2 * RAY_BLOCK / Q
    real = ConductivityField.evaluate

    def evaluate(self, x, y):
        out = real(self, x, y)
        if np.ndim(x) == 2 and len(x) > 1:
            angle = np.arctan2(y[:, -1], x[:, -1]) % (2.0 * math.pi)
            if np.isclose(angle[1] - angle[0], 2.0 * math.pi / Q):
                out[(angle > lo - 1e-9) & (angle < hi - 1e-9)] = 0.0
        return out

    monkeypatch.setattr(ConductivityField, "evaluate", evaluate)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": "disk-0.6", "N": 3, "P": 12, "S": 50, "Q": Q}))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "invalid input" in err
    assert "Traceback" not in err
