import math

import numpy as np
import pytest

from fpeit.errors import ValidationError
from fpeit.verification import (
    constant_case,
    divergence_residual,
    interior_points,
    lorentzian_case,
    shifted_cubic,
    sinusoidal_case,
)


def test_sinusoidal_center_values():
    case = sinusoidal_case(math.pi)
    # first arctan term vanishes at x=0; second gives arctan(1/sqrt3) = pi/6
    assert case.u(0.0, 0.0) == pytest.approx(2 / math.sqrt(3) * math.pi / 6, abs=1e-14)
    assert case.sigma(0.0, 0.0) == pytest.approx(6.0, abs=1e-14)


def test_sinusoidal_matches_naive_formula_below_pi():
    # independent oracle: the textbook arctan(tan(.)) form, valid away from omega=pi
    om = 2.0
    case = sinusoidal_case(om)
    s3 = math.sqrt(3)

    def naive(x, y):
        return (2 / s3) * (np.arctan(np.tan(om * x / 2) / s3)
                           + np.arctan((1 + 2 * np.tan(om * y / 2)) / s3))

    rng = np.random.default_rng(1)
    x = rng.uniform(-0.9, 0.9, 200)
    y = rng.uniform(-0.9, 0.9, 200)
    np.testing.assert_allclose(case.u(x, y), naive(x, y), atol=1e-13)


def test_sinusoidal_continuous_at_omega_pi():
    case = sinusoidal_case(math.pi)
    th = np.linspace(0, 2 * math.pi, 2000, endpoint=False)
    vals = case.boundary_data(th)
    jumps = np.abs(np.diff(np.concatenate([vals, vals[:1]])))
    # |du/dl| <= sqrt(2) * omega on the rim (u_x = w/sigma1 <= w, likewise u_y)
    slope_bound = math.sqrt(2) * math.pi
    assert jumps.max() <= 10 * slope_bound * (2 * math.pi / 2000)


def test_sinusoidal_epsilon_fallback_agrees():
    # continuous extension at omega=pi vs omega=pi-eps
    a = sinusoidal_case(math.pi)
    b = sinusoidal_case(math.pi - 1e-9)
    pts = interior_points(50, seed=2)
    np.testing.assert_allclose(a.u(pts[:, 0], pts[:, 1]), b.u(pts[:, 0], pts[:, 1]), atol=1e-7)


def test_sinusoidal_omega_range():
    with pytest.raises(ValidationError):
        sinusoidal_case(0.0)
    with pytest.raises(ValidationError):
        sinusoidal_case(3.5)


def test_lorentzian_values():
    case = lorentzian_case(0.0)
    assert case.u(0.0, 0.0) == 0.0
    assert case.u(1.0, 0.0) == pytest.approx(1 / 3 + 0.1, abs=1e-14)
    assert case.sigma(0.0, 0.0) == pytest.approx(100.0, abs=1e-10)


def test_shifted_cubic_is_lorentzian_trace():
    u = shifted_cubic(0.6)
    assert u(0.6, 0.0) == 0.0
    assert u(1.0, 0.5) == pytest.approx((0.4 ** 3 + 0.125) / 3 + 0.1 * 0.9, abs=1e-14)


def test_interior_points_are_seeded_and_area_uniform():
    pts = interior_points(2000, rmax=0.8, seed=0)
    assert pts.shape == (2000, 2)
    np.testing.assert_array_equal(pts, interior_points(2000, rmax=0.8, seed=0))
    assert not np.array_equal(pts, interior_points(2000, rmax=0.8, seed=1))
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert r.max() <= 0.8
    # area-uniform: the inner disk of radius rmax/sqrt(2) holds half the area
    assert abs(np.mean(r <= 0.8 / math.sqrt(2)) - 0.5) <= 0.05


PTS = interior_points(200, rmax=0.95, seed=3)


def test_divergence_harmonic_baseline():
    case = constant_case()
    assert divergence_residual(case.sigma, case.u, PTS, h=1e-4) <= 1e-7


def test_divergence_rejects_non_solution():
    res = divergence_residual(lambda x, y: np.ones_like(np.asarray(x, float)),
                              lambda x, y: np.asarray(x, float) ** 2, PTS, h=1e-4)
    assert res == pytest.approx(2.0, abs=1e-5)


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_divergence_lorentzian(beta):
    case = lorentzian_case(beta)
    assert divergence_residual(case.sigma, case.u, PTS, h=1e-4) <= 1e-4


def test_divergence_sinusoidal():
    case = sinusoidal_case(math.pi)
    assert divergence_residual(case.sigma, case.u, PTS, h=1e-4) <= 1e-4


@pytest.mark.parametrize("case_fn", [lambda: sinusoidal_case(math.pi),
                                     lambda: lorentzian_case(0.0),
                                     lambda: lorentzian_case(1.0)])
def test_divergence_second_order(case_fn):
    # truncation is O(h^2): a factor ~100 between h=1e-3 and 1e-4; extended
    # precision keeps the second-difference rounding below the truncation
    case = case_fn()
    r3 = divergence_residual(case.sigma, case.u, PTS, h=1e-3, dtype=np.longdouble)
    r4 = divergence_residual(case.sigma, case.u, PTS, h=1e-4, dtype=np.longdouble)
    order = math.log10(r3 / r4)
    assert 1.7 <= order <= 2.3


def test_divergence_skips_near_boundary_points(caplog):
    case = lorentzian_case(0.0)
    pts = np.array([[0.9999, 0.0], [0.1, 0.1]])
    with caplog.at_level("WARNING"):
        res = divergence_residual(case.sigma, case.u, pts, h=1e-3)
    assert res > 0  # the interior point was still evaluated
    assert any("skipping" in r.message for r in caplog.records)


def test_divergence_rejects_a_check_of_no_point():
    case = lorentzian_case(0.0)
    with pytest.raises(ValidationError, match=r"h = 0\.5"):
        divergence_residual(case.sigma, case.u, interior_points(200), h=0.5)


def test_boundary_data_evaluates_on_rim():
    case = sinusoidal_case(math.pi)
    th = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    vals = case.boundary_data(th)
    assert np.all(np.isfinite(vals))
