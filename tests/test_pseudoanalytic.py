import dataclasses
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from fpeit.conductivity import (
    constant_field,
    radial_rings_field,
    sample_piecewise,
    scene_from_dict,
)
from fpeit import pseudoanalytic
from fpeit.cli import run_solve, run_verify
from fpeit.errors import NumericalError, ValidationError
from fpeit.formal_powers import build_table, pseudoanalyticity_check
from fpeit.presets import PRESET_NAMES, build_field, config_from_dict, corner_angles_for
from fpeit.pseudoanalytic import (
    GeneratingPair,
    _chunk_operator,
    _coefficients,
    _cumulative_cubic_weights,
    _fd_xy,
    _gradient_operator,
    _vekua_operator,
    build_sequence,
    characteristic_coefficients,
    limit_construction,
    fg_integral,
    radial_mesh,
    successor_residual,
    successor_residual_mesh,
)
from fpeit.verification import lorentzian_case, sinusoidal_case
from oracle_meshes import oracle_mesh


def unit_pair(mesh):
    ones = np.ones(mesh.nodes.shape)
    return GeneratingPair(ones, lambda x, y: np.ones_like(np.asarray(x, float)))


def dz_dzbar(W, mesh):
    """dz and dzbar of a mesh field by the mesh central differences (NaN at the center column)."""
    Wx, Wy = _gradient_operator(mesh)(W)
    return Wx - 1j * Wy, Wx + 1j * Wy


def fg_derivative(W, pair, mesh, h=1e-4):
    """Pair derivative dz(W) - A W - B conj(W) of a mesh field, with A = 0 for (p, i/p).

    dz(W) is taken by the mesh central differences (NaN at the center
    column), B by ``characteristic_coefficients`` with spacing ``h``.
    """
    B, _ = characteristic_coefficients(pair, mesh, h=h)
    return dz_dzbar(W, mesh)[0] - B * np.conj(W)


# --- mesh ---------------------------------------------------------------------

def test_mesh_geometry():
    mesh = radial_mesh(12, 50)
    assert mesh.nodes.shape == (12, 51)
    np.testing.assert_allclose(mesh.nodes[:, 0], 0.0, atol=1e-15)
    np.testing.assert_allclose(np.abs(mesh.nodes[:, -1]), 1.0, atol=1e-12)
    assert np.all(np.diff(mesh.t) > 0)
    assert math.isclose(mesh.boundary_weights.sum(), 2 * math.pi, rel_tol=1e-12)


def test_mesh_corner_snapping():
    angles = (math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4)
    mesh = radial_mesh(61, 50, corner_angles=angles)
    for a in angles:
        assert np.min(np.abs(mesh.theta - a)) < 1e-14
    assert len(mesh.theta) == 61
    assert math.isclose(mesh.boundary_weights.sum(), 2 * math.pi, rel_tol=1e-12)


def test_mesh_rejects_two_corners_on_one_ray():
    with pytest.raises(ValidationError, match=r"0\.1 and 0\.12 both snap to ray 0"):
        radial_mesh(8, 50, corner_angles=(0.1, 0.12))
    mesh = radial_mesh(8, 50, corner_angles=(0.1, 0.1))  # the same corner twice is one corner
    assert mesh.theta[0] == 0.1 and len(mesh.theta) == 8


def test_mesh_options_are_keyword_only():
    with pytest.raises(TypeError):
        radial_mesh(8, 50, 0.0)  # once the expansion centre, never a grading


@pytest.mark.parametrize("corners", [(), (math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4)],
                         ids=["uniform", "corner-snapped"])
def test_mesh_is_centred_at_the_origin(corners):
    mesh = radial_mesh(35, 40, corner_angles=corners)
    assert [f.name for f in dataclasses.fields(mesh)] == ["theta", "t", "boundary_weights",
                                                          "quadrature"]
    assert np.array_equal(mesh.span, np.exp(1j * mesh.theta))
    nodes = mesh.nodes
    # t = 0 times a span with a negative part is -0.0, which the CSVs would print as -0
    assert np.signbit((mesh.t[0] * mesh.span).real).any()
    assert not np.signbit(nodes[:, 0].real).any() and not np.signbit(nodes[:, 0].imag).any()
    assert np.abs(np.abs(nodes[:, -1]) - 1.0).max() <= 1e-15
    rays = slice(11, 34)  # a block slice, as the ray blocks of formal_powers take it
    part = replace(mesh, theta=mesh.theta[rays], boundary_weights=mesh.boundary_weights[rays])
    assert part.nodes.tobytes() == nodes[rays].tobytes()


def test_mesh_is_uniform_and_cubic():
    for corners in ((), (math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4)):
        mesh = radial_mesh(35, 400, corner_angles=corners)
        t = np.linspace(0.0, 1.0, 401)
        assert mesh.t.tobytes() == t.tobytes()
        lo, op = _chunk_operator(*_cumulative_cubic_weights(t))
        assert mesh.quadrature[0] == lo
        assert mesh.quadrature[1].tobytes() == op.tobytes()
        # the uniform grading that perfbench/gate.py passes builds the same mesh bit for bit
        same = radial_mesh(35, 400, rim_grading=1.0, corner_angles=corners)
        for name in ("theta", "t", "boundary_weights"):
            assert getattr(same, name).tobytes() == getattr(mesh, name).tobytes()
        assert same.quadrature[0] == lo
        assert same.quadrature[1].tobytes() == op.tobytes()


@pytest.mark.parametrize("grading", [2.0, 6.0, 7.0, 8.0, 20.0, 1e9, 1e-9, 1e-4, 1e-7, 0.0, -1.0,
                                     math.nan, pytest.param("1.0", id="string-1.0")])
def test_mesh_rejects_a_rim_grading_other_than_one(grading):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="rim_grading must be 1.0"):
            radial_mesh(35, 400, rim_grading=grading)


def test_mesh_takes_no_rule():
    for rule in ("cubic", "trapezoid", "simpson"):
        with pytest.raises(TypeError, match="rule"):
            radial_mesh(6, 50, rule=rule)


def test_mesh_builds_only_its_rules_quadrature(monkeypatch):
    calls = []

    def counted(t):
        calls.append(len(t))
        return _cumulative_cubic_weights(t)

    monkeypatch.setattr(pseudoanalytic, "_cumulative_cubic_weights", counted)
    cubic = radial_mesh(12, 50)
    assert calls == [51]
    # a chunk of b intervals reads b + 3 nodes by the cubic rule
    b = pseudoanalytic.CHUNK
    assert cubic.quadrature[1].shape[1:] == (b, b + 3)


# --- pairs ---------------------------------------------------------------------

def test_pair_from_p_examples():
    mesh = radial_mesh(8, 50)
    pair = unit_pair(mesh)
    assert pair.F[0, 0] == 1.0 and pair.F.dtype == complex
    p2 = GeneratingPair(np.full(mesh.nodes.shape, 2.0))
    np.testing.assert_array_equal(p2.F, 2.0 + 0j)
    np.testing.assert_allclose(np.imag(np.conj(p2.F) * (1j / p2.p)), 1.0, atol=1e-15)
    # p = sqrt(sigma2/sigma1) for the sinusoidal conductivity at the origin
    case = sinusoidal_case(math.pi)
    s1, s2 = case.field.separable_parts(np.array([0.0]), np.array([0.0]))
    assert math.sqrt(s2[0] / s1[0]) == pytest.approx(0.816496580927726, abs=1e-12)


def test_pair_validation():
    mesh = radial_mesh(8, 50)
    for bad in (0.0, -1.0, np.nan, np.inf):
        p = np.ones(mesh.nodes.shape)
        p[3, 7] = bad  # one bad node is enough
        with pytest.raises(ValidationError):
            GeneratingPair(p)
    with pytest.raises(ValidationError):
        characteristic_coefficients(GeneratingPair(np.ones(mesh.nodes.shape)), mesh)


# --- characteristic coefficients ------------------------------------------------

def test_coefficients_unit_pair_vanish():
    mesh = radial_mesh(12, 60)
    for arr in characteristic_coefficients(unit_pair(mesh), mesh):
        assert np.abs(arr).max() == 0.0


def test_coefficients_exponential():
    # p = e^x: B = dz(p)/p = 1, b = dzbar(p)/p = 1
    mesh = radial_mesh(12, 60)
    pair = GeneratingPair(np.exp(mesh.nodes.real), lambda x, y: np.exp(np.asarray(x, float)))
    B, b = characteristic_coefficients(pair, mesh, h=1e-4)
    interior = np.s_[:, 1:-1]
    assert np.abs(B[interior] - 1.0).max() < 1e-7
    assert np.abs(b[interior] - 1.0).max() < 1e-7
    # rim rows fall back to one-sided/tangential stencils: first-order there
    assert np.abs(B - 1.0).max() < 2e-4


def test_coefficients_match_direct_formula():
    # cross-check the symmetric form against B = dz(p)/p, b = dzbar(p)/p
    # computed by an independent centered difference on the same p
    h = 1e-4
    mesh = radial_mesh(10, 40)

    def p_fn(x, y):
        return np.exp(0.3 * np.asarray(x) + 0.2 * np.asarray(y) ** 2)

    pair = GeneratingPair(p_fn(*mesh.xy()), p_fn)
    B, b = characteristic_coefficients(pair, mesh, h=h)
    x, y = mesh.xy()
    interior = np.hypot(x, y) < 1 - 2 * h
    px = (p_fn(x + h, y) - p_fn(x - h, y)) / (2 * h)
    py = (p_fn(x, y + h) - p_fn(x, y - h)) / (2 * h)
    p = p_fn(x, y)
    B_direct = (px - 1j * py) / p
    b_direct = (px + 1j * py) / p
    scale = np.abs(B_direct[interior]).max()
    assert np.abs((B - B_direct)[interior]).max() <= 10 * h ** 2 * scale + 1e-12
    assert np.abs((b - b_direct)[interior]).max() <= 10 * h ** 2 * scale + 1e-12


def test_coefficients_require_backing_callable():
    mesh = radial_mesh(8, 50)
    pair = GeneratingPair(np.ones(mesh.nodes.shape))  # no p_fn
    with pytest.raises(ValidationError):
        characteristic_coefficients(pair, mesh)


def general_pair_coefficients(F, G, dzF, dzbF, dzG, dzbG):
    """A, B, a, b of a general pair (F, G) from its derivatives, through den."""
    den = F * np.conj(G) - G * np.conj(F)
    A = (np.conj(F) * dzG - np.conj(G) * dzF) / den
    a = -(np.conj(F) * dzbG - np.conj(G) * dzbF) / den
    B = (F * dzG - G * dzF) / den
    b = -(G * dzbF - F * dzbG) / den
    return A, B, a, b


def general_coefficients(pair, mesh, h=1e-4):
    """The general-pair formulas on the Cartesian stencil, F and G differenced as complex fields."""
    x, y = mesh.xy()
    Fx, Fy = _fd_xy(lambda a, b: np.asarray(pair.p_fn(a, b), dtype=complex), x, y, h)
    Gx, Gy = _fd_xy(lambda a, b: 1j / np.asarray(pair.p_fn(a, b), dtype=complex), x, y, h)
    return general_pair_coefficients(pair.F, 1j / pair.p, Fx - 1j * Fy, Fx + 1j * Fy,
                                     Gx - 1j * Gy, Gx + 1j * Gy)


def general_coefficients_mesh(pair, mesh):
    """The general-pair formulas with the mesh central differences of F and G."""
    F, G = pair.F, 1j / pair.p
    return general_pair_coefficients(F, G, *dz_dzbar(F, mesh), *dz_dzbar(G, mesh))


def general_successor_gaps(seq, coefficients):
    """|B_(m+1) + b_m| per node and m from the general-pair coefficients."""
    return [np.abs(coefficients(seq.pair_for(m + 1))[1] + coefficients(seq.pair_for(m))[3])
            for m in range(seq.period)]


DISK_SCENE = {"background": 10.0,
              "shapes": [{"kind": "disk", "cx": 0.3, "cy": -0.2, "r2": 0.1, "value": 60.0}]}
ORACLE_FIELDS = {"sinusoidal": sinusoidal_case(math.pi).field,
                 "lorentzian-0.5": lorentzian_case(0.5).field,
                 "disk-scene": scene_from_dict(DISK_SCENE),
                 "radial-rings": radial_rings_field()}


@pytest.mark.parametrize("name", ORACLE_FIELDS)
def test_coefficients_match_general_pair_oracle(name):
    # 35 x 100 puts nodes within the Cartesian h of the scene and ring jumps
    mesh = radial_mesh(35, 100)
    seq = build_sequence(ORACLE_FIELDS[name], mesh)
    separable = name in ("sinusoidal", "lorentzian-0.5")
    assert seq.period == (2 if separable else 1)
    interior = np.s_[:, 1:-1]
    gradient = _gradient_operator(mesh)
    for pair in seq.pairs:
        on_mesh = _coefficients(pair.p, gradient(pair.p), gradient(1.0 / pair.p))
        oracle = general_coefficients(pair, mesh)
        for new, (_, B, _, b) in ((characteristic_coefficients(pair, mesh), oracle),
                                  (on_mesh, general_coefficients_mesh(pair, mesh))):
            scale = np.abs(B[interior]).max()
            assert np.abs(new[0] - B)[interior].max() <= 1e-12 * scale
            assert np.abs(new[1] - b)[interior].max() <= 1e-12 * scale
        if separable:
            # A and a vanish in exact arithmetic; the Cartesian differences of
            # p and 1/p leave an O(h^2) truncation of them on smooth fields
            A, B, a, _ = oracle
            scale = np.abs(B[interior]).max()
            assert np.abs(A[interior]).max() <= 1e-7 * scale
            assert np.abs(a[interior]).max() <= 1e-7 * scale


@pytest.mark.parametrize("name", ORACLE_FIELDS)
def test_successor_residuals_match_general_pair_oracle(name):
    mesh = radial_mesh(35, 100)
    seq = build_sequence(ORACLE_FIELDS[name], mesh)
    cartesian = [float(np.max(g)) for g in
                 general_successor_gaps(seq, lambda pair: general_coefficients(pair, mesh))]
    on_mesh = [float(np.nanmax(g[:, 1:-1])) for g in
               general_successor_gaps(seq, lambda pair: general_coefficients_mesh(pair, mesh))]
    np.testing.assert_allclose(successor_residual(seq, mesh), cartesian, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(successor_residual_mesh(seq, mesh), on_mesh, rtol=1e-12, atol=1e-15)


# --- pair integral ---------------------------------------------------------------

def test_fg_integral_unit_pair_basics():
    mesh = radial_mesh(16, 200)
    pair = unit_pair(mesh)
    z = mesh.nodes
    out = fg_integral(np.ones_like(z), pair, mesh)
    np.testing.assert_allclose(out, z, atol=1e-14)  # int 1 dz = z
    out = fg_integral(z, pair, mesh)
    np.testing.assert_allclose(out, z ** 2 / 2, atol=1e-13)
    assert np.abs(out[:, 0]).max() == 0.0  # value at the center is 0


def test_fg_integral_degenerate_collapse_bitwise():
    # with (1, i) and the trapezoid rule the integral must equal the plain
    # complex trapezoid contour integral
    mesh = oracle_mesh(10, 80, rule="trapezoid")
    pair = unit_pair(mesh)
    rng = np.random.default_rng(0)
    W = rng.normal(size=mesh.nodes.shape) + 1j * rng.normal(size=mesh.nodes.shape)
    got = fg_integral(W, pair, mesh)
    dz = np.diff(mesh.nodes, axis=1)
    oracle = np.concatenate(
        [np.zeros((10, 1), complex),
         np.cumsum(0.5 * (W[:, 1:] + W[:, :-1]) * dz, axis=1)], axis=1)
    assert np.abs(got - oracle).max() <= 1e-14


def test_fg_integral_against_quadrature_oracle():
    # independent high-precision oracle on a nontrivial pair, single ray
    mesh = radial_mesh(6, 400)

    def p_fn(x, y):
        return np.exp(0.4 * np.asarray(x) - 0.3 * np.asarray(y))

    pair = GeneratingPair(p_fn(*mesh.xy()), p_fn)

    def V(z):
        return z ** 2 + 0.3 * np.conj(z) + 0.1j

    r = 2  # an arbitrary ray
    e = mesh.span[r]

    def integrand(kind, part):
        def f(t):
            z = t * e
            p = p_fn(z.real, z.imag)
            Fs, Gs = -1j * p, 1.0 / p  # the adjoint pair of (p, i/p)
            g = (Gs if kind == "G" else Fs) * V(z) * e
            return g.real if part == "re" else g.imag
        return f

    IG = quad(integrand("G", "re"), 0, 1, epsabs=1e-13)[0]
    IF = quad(integrand("F", "re"), 0, 1, epsabs=1e-13)[0]
    zb = mesh.nodes[r, -1]
    pb = p_fn(zb.real, zb.imag)
    expected = pb * IG + (1j / pb) * IF

    got = fg_integral(V(mesh.nodes), pair, mesh)[r, -1]
    assert abs(got - expected) < 1e-9


def reference_fg_integral(W, pair, mesh, rule="cubic"):
    """The complex general-pair kernel: adjoint products, then per-interval gather + einsum + cumsum,
    by ``rule``, the ray rule the mesh was built with."""
    def cumulative(f):
        if rule == "trapezoid":
            inc = 0.5 * (f[..., 1:] + f[..., :-1]) * np.diff(mesh.t)
        else:
            idx, w = _cumulative_cubic_weights(mesh.t)
            inc = np.einsum("jk,...jk->...j", w, f[..., idx])
        out = np.zeros(f.shape, dtype=complex)
        np.cumsum(inc, axis=-1, out=out[..., 1:])
        return out * mesh.span[:, None]

    F, G = pair.F, 1j / pair.p
    Fs, Gs = -1j * F, -1j * G  # the adjoint pair
    return F * cumulative(Gs * W).real + G * cumulative(Fs * W).real


def p_fields(mesh):
    x, y = mesh.xy()
    return {"constant": np.full(x.shape, 1.7),
            "smooth": np.exp(0.4 * x - 0.3 * y),
            "jumpy": np.where(np.hypot(x - 0.2, y + 0.1) < 0.5, 3.0, 1.0)}


@pytest.mark.parametrize("rule", ["cubic", "trapezoid"])
@pytest.mark.parametrize("S", [3, 4, 17, 18, 19, 60, 401])
@pytest.mark.parametrize("grading", [1.0, 2.0])
def test_fg_integral_matches_complex_kernel(rule, S, grading):
    mesh = oracle_mesh(9, S, rim_grading=grading, rule=rule)
    rng = np.random.default_rng(S)
    W = rng.normal(size=mesh.nodes.shape) + 1j * rng.normal(size=mesh.nodes.shape)
    for name, p in p_fields(mesh).items():
        pair = GeneratingPair(p)
        ref = reference_fg_integral(W, pair, mesh, rule)
        got = fg_integral(W, pair, mesh)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), name
        assert np.all(got[:, 0] == 0.0)


def test_fg_integral_matches_complex_kernel_on_a_ray_slice():
    # a ragged slice of rays, as the ray blocks of the dense rebuild take it
    rays = slice(11, 34)
    rng = np.random.default_rng(1)
    W = rng.normal(size=(23, 61)) + 1j * rng.normal(size=(23, 61))
    for rule in ("cubic", "trapezoid"):
        mesh = oracle_mesh(40, 60, rim_grading=2.0, rule=rule)
        part = replace(mesh, theta=mesh.theta[rays], boundary_weights=mesh.boundary_weights[rays])
        for name, p in p_fields(mesh).items():
            pair = GeneratingPair(p[rays])
            ref = reference_fg_integral(W, pair, part, rule)
            got = fg_integral(W, pair, part)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), (rule, name)


@pytest.mark.parametrize("rule", ["cubic", "trapezoid"])
def test_fg_integral_rejects_a_non_finite_result(rule):
    # a NaN integrand at step 1 spoils its whole quadrature chunk, which starts at step 1
    mesh = oracle_mesh(16, 60, rule=rule)
    W = np.ones(mesh.nodes.shape, complex)
    W[5, 1] = np.nan
    with pytest.raises(NumericalError, match="degree 1, ray 5, step 1$"):
        fg_integral(W, unit_pair(mesh), mesh)


# --- derivative, Vekua residual ---------------------------------------------------

def test_fg_derivative_annihilates_pair():
    case = sinusoidal_case(math.pi)
    residuals = []
    for P, S in ((48, 100), (96, 200)):
        mesh = radial_mesh(P, S)
        seq = build_sequence(case.field, mesh)
        pair = seq.pair_for(0)
        interior = np.s_[:, 1:-1]
        dF = fg_derivative(pair.F, pair, mesh)
        dG = fg_derivative(1j / pair.p, pair, mesh)
        scale = np.abs(dz_dzbar(pair.F, mesh)[0][interior]).max() + 1.0
        residuals.append(max(np.nanmax(np.abs(dF[interior])),
                             np.nanmax(np.abs(dG[interior]))) / scale)
    assert residuals[1] < 2e-2  # truncation-level zero
    assert residuals[1] < residuals[0] / 1.5  # and refining


def test_fg_derivative_unit_pair_z_squared():
    # factorless convention: dz(z^2) = 2 * (2z); tolerance at the angular
    # truncation scale (dtheta^2/6) |d^3/dtheta^3 z^2| ~ 1.6e-3 at P=128
    mesh = radial_mesh(128, 200)
    pair = unit_pair(mesh)
    z = mesh.nodes
    got = fg_derivative(z ** 2, pair, mesh)
    interior = np.s_[:, 1:-1]
    np.testing.assert_allclose(got[interior], 2 * (2 * z)[interior], atol=5e-3)
    # and it matches an independent mesh-free central difference
    h = 1e-5
    oracle = ((z + h) ** 2 - (z - h) ** 2) / (2 * h) - 1j * ((z + 1j * h) ** 2 - (z - 1j * h) ** 2) / (2 * h)
    np.testing.assert_allclose(got[interior], oracle[interior], atol=5e-3)


def test_vekua_residual_examples():
    mesh = radial_mesh(32, 100)
    z = mesh.nodes
    p = np.ones(z.shape)
    interior = np.s_[:, 1:-1]
    res = _vekua_operator(p, mesh)(np.conj(z))
    np.testing.assert_allclose(res[interior], 2.0, atol=1e-9)  # dzbar(zbar) = 2
    res = _vekua_operator(p, mesh)(z)
    assert np.nanmax(res[interior]) < 1e-9
    # W = p is always an exact solution of its own Vekua equation
    case = lorentzian_case(0.5)
    x, y = mesh.xy()
    pfield = np.sqrt(case.sigma(x, y))
    res = _vekua_operator(pfield, mesh)(pfield.astype(complex))
    assert np.nanmax(res[interior]) < 1e-12


# --- mesh derivative operator -----------------------------------------------------

def reference_mesh_gradient(W, mesh):
    """The mesh gradient as it was before the operator was built once per mesh: every
    call re-derives the Jacobian from the node coordinates. Kept as the oracle."""
    W = np.asarray(W)

    def d_dt(f):
        out = np.empty(f.shape, dtype=f.dtype)
        t = mesh.t
        hp = (t[2:] - t[1:-1])[None, :]
        hm = (t[1:-1] - t[:-2])[None, :]
        out[:, 1:-1] = (hm ** 2 * f[:, 2:] - hp ** 2 * f[:, :-2]
                        + (hp ** 2 - hm ** 2) * f[:, 1:-1]) / (hp * hm * (hp + hm))
        out[:, 0] = (f[:, 1] - f[:, 0]) / (t[1] - t[0])
        h1, h2 = t[-1] - t[-2], t[-1] - t[-3]
        out[:, -1] = (f[:, -1] * (h1 + h2) / (h1 * h2)
                      - f[:, -2] * h2 / (h1 * (h2 - h1))
                      + f[:, -3] * h1 / (h2 * (h2 - h1)))
        return out

    def d_dtheta(f):
        th = mesh.theta
        fp = np.roll(f, -1, axis=0)
        fm = np.roll(f, 1, axis=0)
        hp = (np.roll(th, -1) - th) % (2 * math.pi)
        hp[hp == 0] = 2 * math.pi
        hm = (th - np.roll(th, 1)) % (2 * math.pi)
        hm[hm == 0] = 2 * math.pi
        hp, hm = hp[:, None], hm[:, None]
        return (hm ** 2 * fp - hp ** 2 * fm + (hp ** 2 - hm ** 2) * f) / (hp * hm * (hp + hm))

    xt, yt = d_dt(mesh.nodes.real), d_dt(mesh.nodes.imag)
    xq, yq = d_dtheta(mesh.nodes.real), d_dtheta(mesh.nodes.imag)
    Wt, Wq = d_dt(W), d_dtheta(W)
    det = xt * yq - xq * yt
    with np.errstate(divide="ignore", invalid="ignore"):
        Wx = (Wt * yq - Wq * yt) / det
        Wy = (Wq * xt - Wt * xq) / det
    Wx[:, 0] = np.nan
    Wy[:, 0] = np.nan
    return Wx, Wy


def preset_field(name):
    return build_field(config_from_dict({"preset": name}))


def gradient_meshes():
    triangle = config_from_dict({"preset": "triangle"})
    corners = corner_angles_for(triangle, build_field(triangle))
    return {"uniform": radial_mesh(35, 100), "graded": oracle_mesh(24, 60, rim_grading=2.0),
            "corner-snapped": radial_mesh(61, 40, corner_angles=corners),
            "minimal": radial_mesh(3, 3)}


@pytest.mark.parametrize("name", ["uniform", "graded", "corner-snapped", "minimal"])
def test_mesh_gradient_matches_reference_bitwise(name):
    mesh = gradient_meshes()[name]
    if name == "corner-snapped":  # the snapped rays leave unequal angular gaps
        assert np.ptp(np.diff(mesh.theta)) > 1e-3
    x, y = mesh.xy()
    rng = np.random.default_rng(3)
    fields = [np.exp(0.4 * x - 0.3 * y), rng.standard_normal(x.shape),
              mesh.nodes ** 3 + np.conj(mesh.nodes),
              rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)]
    for W in fields:
        for got, ref in zip(_gradient_operator(mesh)(W), reference_mesh_gradient(W, mesh)):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref, equal_nan=True)


@pytest.mark.parametrize("name", ["sinusoidal", "disk-0.6"])
def test_verify_residuals_match_reference_loops(name):
    # a period-2 and a period-1 preset, on the derivative oracle kept above
    mesh = radial_mesh(35, 60)
    seq = build_sequence(preset_field(name), mesh)
    assert seq.period == (2 if name == "sinusoidal" else 1)
    table = build_table(seq, mesh, 5)

    def dzbar(W):
        Wx, Wy = reference_mesh_gradient(np.asarray(W, dtype=complex), mesh)
        return Wx + 1j * Wy

    p = seq.pair_for(0).p
    b = dzbar(p) / p
    expected = [float(np.nanmax(np.fmax(*(np.abs(dzbar(Z[n]) - b * np.conj(Z[n]))
                                          for Z in (table.Z1, table.Zi)))[:, 1:-1]))
                for n in range(table.N + 1)]
    assert np.array_equal(pseudoanalyticity_check(seq, mesh, 5), expected)

    def coefficients(pair):
        return _coefficients(pair.p, reference_mesh_gradient(pair.p, mesh),
                             reference_mesh_gradient(1.0 / pair.p, mesh))

    Bb = [coefficients(pair) for pair in seq.pairs]
    expected = [float(np.nanmax(np.abs(Bb[(m + 1) % seq.period][0] + Bb[m][1])[:, 1:-1]))
                for m in range(seq.period)]
    assert successor_residual_mesh(seq, mesh) == expected

    # the Cartesian stencil, one pair at a time and p and 1/p in separate passes
    x, y = mesh.xy()

    def cartesian(pair):
        return _coefficients(pair.p, _fd_xy(pair.p_fn, x, y, 1e-4),
                             _fd_xy(lambda a, b: 1.0 / pair.p_fn(a, b), x, y, 1e-4))

    Bb = [cartesian(pair) for pair in seq.pairs]
    expected = [float(np.max(np.abs(Bb[(m + 1) % seq.period][0] + Bb[m][1])))
                for m in range(seq.period)]
    assert successor_residual(seq, mesh) == expected


def test_mesh_derivatives_are_built_once_per_verify_mesh(monkeypatch, tmp_path):
    builds = []
    build = pseudoanalytic._gradient_operator

    def counting(mesh):
        builds.append(mesh)
        return build(mesh)

    monkeypatch.setattr(pseudoanalytic, "_gradient_operator", counting)
    config = config_from_dict({"preset": "sinusoidal", "N": 4, "P": 16, "S": 50, "Q": 64})
    assert run_verify(config, tmp_path / "verify") == 0
    assert [(m.ray_count, m.step_count) for m in builds] == [(16, 50), (32, 100)]
    builds.clear()
    assert run_solve(config, tmp_path / "solve") == 0
    assert builds == []  # solve never differentiates on a mesh


# --- sequences ---------------------------------------------------------------------

def test_sequence_constant_degenerates_to_period_one():
    mesh = radial_mesh(8, 50)
    seq = build_sequence(constant_field(1.0), mesh)
    assert seq.period == 1
    assert seq.pair_for(0).p[0, 0] == 1.0
    assert seq.pair_for(5).p[0, 0] == 1.0


def test_sequence_sinusoidal_period_two():
    mesh = radial_mesh(12, 60)
    case = sinusoidal_case(math.pi)
    seq = build_sequence(case.field, mesh)
    assert seq.period == 2
    x, y = mesh.xy()
    s1, s2 = case.field.separable_parts(x, y)
    np.testing.assert_allclose(seq.pair_for(0).p, np.sqrt(s2 / s1), rtol=1e-14)
    np.testing.assert_allclose(seq.pair_for(1).p, np.sqrt(s1 * s2), rtol=1e-14)
    np.testing.assert_array_equal(seq.pair_for(2).p, seq.pair_for(0).p)  # periodicity


def test_sequence_rings_period_one():
    mesh = radial_mesh(12, 61)
    seq = build_sequence(radial_rings_field(), mesh)
    assert seq.period == 1
    x, y = mesh.xy()
    np.testing.assert_allclose(seq.pair_for(0).p,
                               np.sqrt(radial_rings_field().evaluate(x, y)), rtol=1e-14)


def test_sequence_piecewise_separable():
    sigma = lambda x, y: 1.0 / ((np.asarray(x) ** 2 + 0.1) * (np.asarray(y) ** 2 + 0.1))
    field = sample_piecewise(sigma, M=8, q=12)
    mesh = radial_mesh(12, 60)
    seq = build_sequence(field, mesh)
    assert seq.period == 2


PIECEWISE_OF = {"variant": "piecewise-of", "source": {"variant": "lorentzian", "beta": 0.5},
                "M": 8, "q": 12}


@pytest.mark.parametrize("name", PRESET_NAMES + ("piecewise-of",))
def test_pair_callables_reproduce_the_sampled_pairs_bitwise(name):
    # the mesh samples and the callables the Cartesian check differentiates are one formula
    doc = ({"conductivity": PIECEWISE_OF, "boundary_data": {"case": "constant"}}
           if name == "piecewise-of" else {"preset": name})
    field = build_field(config_from_dict(doc))
    mesh = radial_mesh(35, 100)
    seq = build_sequence(field, mesh)
    assert seq.period == (1 if limit_construction(field) or name == "constant" else 2)
    for pair in seq.pairs:
        np.testing.assert_array_equal(pair.p_fn(*mesh.xy()), pair.p)


def test_successor_condition_cartesian_floor():
    # separable pairs: the truncation cancels exactly, the residual is rounding
    mesh = radial_mesh(16, 80)
    seq = build_sequence(sinusoidal_case(math.pi).field, mesh)
    res = successor_residual(seq, mesh, h=1e-4)
    assert max(res) < 1e-9


def test_successor_condition_mesh_refinement():
    case = sinusoidal_case(math.pi)
    coarse = radial_mesh(48, 100)
    fine = radial_mesh(96, 200)
    r_coarse = successor_residual_mesh(build_sequence(case.field, coarse), coarse)
    r_fine = successor_residual_mesh(build_sequence(case.field, fine), fine)
    assert max(r_fine) < max(r_coarse) / 1.5


# --- antiderivative round trip ----------------------------------------------------

def test_round_trip_identity_and_order():
    # For the (1, i) pair and analytic polynomial W, the factorless pair
    # derivative is 2 W'(z) and the pair integral of it returns
    # 2 (W(z) - W(0)); the endpoint error converges at order ~2 in S with the
    # trapezoid rule.
    rng = np.random.default_rng(7)
    orders = []
    for trial in range(10):
        coef = rng.normal(size=5) + 1j * rng.normal(size=5)

        def W(z):
            return sum(c * z ** k for k, c in enumerate(coef))

        def Wp(z):
            return sum(k * c * z ** (k - 1) for k, c in enumerate(coef) if k >= 1)

        errs = []
        Ss = (50, 100, 200)
        for S in Ss:
            mesh = oracle_mesh(4, S, rule="trapezoid")
            pair = unit_pair(mesh)
            z = mesh.nodes
            rt = fg_integral(2 * Wp(z), pair, mesh)
            expected = 2 * (W(z) - W(0))
            errs.append(np.abs((rt - expected)[:, -1]).max())
        slope = np.polyfit(np.log(Ss), np.log(errs), 1)[0]
        orders.append(-slope)
    assert all(1.7 <= o <= 2.4 for o in orders)


def test_round_trip_uses_consistent_factor():
    # the mesh-FD pair derivative agrees with the exact factorless derivative
    mesh = radial_mesh(256, 200)
    pair = unit_pair(mesh)
    z = mesh.nodes
    W = z ** 3 - 0.5 * z
    dW = fg_derivative(W, pair, mesh)
    exact = 2 * (3 * z ** 2 - 0.5)
    interior = np.s_[:, 1:-1]
    np.testing.assert_allclose(dW[interior], exact[interior], atol=5e-3)


def test_chain_overflow_reports_location():
    # For pairs of the (p, i/p) form the chain products top out at p^2, so a
    # conductivity that passes validation cannot overflow; drive the guard
    # with a raw pair whose p^2 exceeds the float range along ray 1 (60
    # degrees). Along ray 0 the span is real and the integrand p (u si + v sr)
    # never forms p^2 there.
    from fpeit.formal_powers import formal_power_fields
    from fpeit.pseudoanalytic import GeneratingSequence
    mesh = radial_mesh(6, 60)
    x, y = mesh.xy()
    pair = GeneratingPair(np.exp(355.0 * (x / 2 + math.sqrt(3) * y / 2)))
    seq = GeneratingSequence((pair,))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="degree"):
            formal_power_fields(seq, mesh, 5, 1.0)
