import math

import numpy as np
import pytest

from fpeit.conductivity import (
    AnalyticSeparable,
    AnnulusShape,
    DiskShape,
    GeometricScene,
    PiecewiseSeparable,
    PolygonShape,
    _clamped_linear,
    build_piecewise,
    constant_field,
    eval_radial_piecewise,
    load_conductivity_csv,
    radial_rings_field,
    read_float_csv,
    sample_piecewise,
    scene_from_dict,
)
from fpeit.errors import DomainError, ValidationError


def separable_demo():
    return AnalyticSeparable(lambda x: 2 + np.cos(math.pi * x),
                             lambda y: 2 + np.sin(math.pi * y))


def test_separable_center_value():
    # (2 + cos 0) * (2 + sin 0) = 3 * 2
    assert separable_demo().evaluate(0.0, 0.0) == pytest.approx(6.0, abs=1e-14)


def test_evaluate_vectorized_and_scalar():
    f = separable_demo()
    xs = np.array([0.0, 0.5, -0.5])
    ys = np.array([0.0, 0.1, 0.2])
    out = f.evaluate(xs, ys)
    assert out.shape == (3,)
    assert out[0] == pytest.approx(f.evaluate(0.0, 0.0))


def test_domain_error_outside_disk():
    with pytest.raises(DomainError):
        separable_demo().evaluate(1.2, 0.0)
    # the closed rim itself is allowed
    assert separable_demo().evaluate(1.0, 0.0) > 0


def test_nonpositive_sampler_rejected():
    from fpeit.conductivity import LimitCase
    bad = LimitCase(lambda x, y: np.asarray(x) - 10.0)
    with pytest.raises(ValidationError):
        bad.evaluate(0.0, 0.0)


def test_bounds_envelope_enforced():
    f = AnalyticSeparable(lambda x: np.ones_like(np.asarray(x, float)) * 5,
                          lambda y: np.ones_like(np.asarray(y, float)),
                          bounds=(1.0, 2.0))
    with pytest.raises(ValidationError):
        f.evaluate(0.0, 0.0)


# --- geometric scenes -------------------------------------------------------

def centered_disk_scene():
    return GeometricScene(10.0, [DiskShape(0.0, 0.0, 0.2, 100.0)])


def test_scene_disk_values():
    sc = centered_disk_scene()
    assert sc.evaluate(0.0, 0.0) == 100.0
    assert sc.evaluate(0.9, 0.0) == 10.0


def test_scene_closed_membership():
    sc = centered_disk_scene()
    r = math.sqrt(0.2)
    assert sc.evaluate(r, 0.0) == 100.0  # boundary belongs to the shape


def test_scene_last_shape_wins_and_permutation_stability():
    a = DiskShape(-0.5, 0.0, 0.04, 50.0)
    b = DiskShape(0.5, 0.0, 0.04, 70.0)
    xs = np.linspace(-0.9, 0.9, 41)
    ys = np.zeros_like(xs)
    v1 = GeometricScene(10.0, [a, b]).evaluate(xs, ys)
    v2 = GeometricScene(10.0, [b, a]).evaluate(xs, ys)
    np.testing.assert_array_equal(v1, v2)  # non-overlapping shapes commute
    inner = DiskShape(0.0, 0.0, 0.01, 30.0)
    outer = DiskShape(0.0, 0.0, 0.2, 100.0)
    assert GeometricScene(10.0, [inner, outer]).evaluate(0.0, 0.0) == 100.0
    assert GeometricScene(10.0, [outer, inner]).evaluate(0.0, 0.0) == 30.0


def test_scene_from_dict_fragment():
    sc = scene_from_dict({"background": 10.0,
                          "shapes": [{"kind": "disk", "cx": 0.6, "cy": 0.0,
                                      "r2": 0.2, "value": 100.0}]})
    assert sc.evaluate(0.6, 0.0) == 100.0
    assert sc.evaluate(-0.9, 0.0) == 10.0
    with pytest.raises(ValidationError):
        scene_from_dict({"shapes": []})
    with pytest.raises(ValidationError):
        scene_from_dict({"background": 1.0, "shapes": [{"kind": "blob"}]})


def test_polygon_membership():
    tri = PolygonShape(((0.0, 0.0), (0.5, 0.0), (0.0, 0.5)), 100.0)
    assert tri.contains(0.1, 0.1)
    assert not tri.contains(0.4, 0.4)
    assert tri.contains(0.25, 0.0)   # edge point
    assert tri.contains(0.5, 0.0)    # vertex
    assert tri.contains(0.25, 0.25)  # hypotenuse


def test_annulus_membership():
    ann = AnnulusShape(0.0, 0.0, 0.04, 0.25, 40.0)
    assert ann.contains(0.3, 0.0)
    assert not ann.contains(0.1, 0.0)
    assert ann.contains(0.2, 0.0)  # inner boundary belongs
    assert ann.contains(0.5, 0.0)  # outer boundary belongs


# --- radial rings ------------------------------------------------------------

def test_radial_piecewise_values():
    assert eval_radial_piecewise(0.0) == 100.0
    assert eval_radial_piecewise(0.5) == 20.0
    assert eval_radial_piecewise(0.2) == 30.0  # half-open ring convention
    assert eval_radial_piecewise(1.0) == 30.0
    assert eval_radial_piecewise(0.7) == 15.0


def test_radial_piecewise_domain():
    with pytest.raises(DomainError):
        eval_radial_piecewise(-0.1)
    with pytest.raises(DomainError):
        eval_radial_piecewise(1.1)


def test_rings_field_matches_profile():
    f = radial_rings_field()
    assert f.evaluate(0.0, 0.0) == 100.0
    assert f.evaluate(0.3, 0.4) == 20.0  # r = 0.5
    assert f.bounds == (15.0, 100.0)


# --- piecewise separable construction ----------------------------------------

def test_build_piecewise_single_constant_slab():
    # sigma = (x + 2)/2 * 2 = x + 2 exactly
    field = build_piecewise([(0.0, [-1.0, 1.0], [2.0, 2.0])], [-1.0, 1.0], K=2.0)
    xs = np.linspace(-0.9, 0.9, 7)
    np.testing.assert_allclose(field.evaluate(xs, np.zeros_like(xs)), xs + 2.0, rtol=1e-15)


def test_build_piecewise_factor_is_one_on_sampling_line():
    samples = [(-0.5, [-0.8, 0.0, 0.8], [3.0, 4.0, 5.0]),
               (0.5, [-0.8, 0.0, 0.8], [1.0, 2.0, 3.0])]
    field = build_piecewise(samples, [-1, 0, 1], K=2.0)
    np.testing.assert_array_equal(field.edges, [-1.0, 0.0, 1.0])
    np.testing.assert_array_equal(field.chi, [-0.5, 0.5])
    assert field.edges.dtype == float and field.K == 2.0
    # on the sampling line the x-factor is exactly 1, so values equal f_j(y)
    assert field.evaluate(-0.5, 0.0) == pytest.approx(4.0, abs=1e-15)
    assert field.evaluate(0.5, 0.8) == pytest.approx(3.0, abs=1e-15)
    # half-open slab convention: x = 0 belongs to the second slab
    assert field.slab_index(0.0) == 1
    assert field.slab_index(-1e-12) == 0


def test_sampled_piecewise_reproduces_lorentz_product_on_lines():
    sigma = lambda x, y: 1.0 / ((np.asarray(x) ** 2 + 0.1) * (np.asarray(y) ** 2 + 0.1))
    field = sample_piecewise(sigma, M=32, q=32, K=2.0)
    for chi in field.chi[3:29:5]:
        ylim = math.sqrt(1 - chi ** 2)
        ys = np.linspace(-ylim, ylim, 32)  # the sampling ordinates themselves
        got = field.evaluate(np.full_like(ys, chi), ys)
        np.testing.assert_allclose(got, sigma(chi, ys), rtol=1e-13)


def test_sample_piecewise_evaluates_the_source_once_on_the_sampling_lines():
    calls = []

    def sigma(x, y):
        calls.append((x, y))
        return 2.0 + x + 0.5 * y

    field = sample_piecewise(sigma, M=4, q=5)
    assert len(calls) == 1
    x, y = calls[0]
    edges = np.linspace(-1.0, 1.0, 5)
    np.testing.assert_array_equal(field.edges, edges)
    np.testing.assert_array_equal(field.chi, [-0.75, -0.25, 0.25, 0.75])
    np.testing.assert_array_equal(x, np.repeat(field.chi[:, None], 5, axis=1))
    np.testing.assert_array_equal(y[1], np.linspace(-math.sqrt(1 - 0.25 ** 2),
                                                    math.sqrt(1 - 0.25 ** 2), 5))
    assert len(field.factors) == 4 and field.K == 2.0


def test_piecewise_separable_rejects_counts_other_than_the_slab_count():
    f = _clamped_linear(np.array([-1.0, 1.0]), np.array([1.0, 2.0]))
    PiecewiseSeparable([-1.0, 0.0, 1.0], [-0.5, 0.5], [f, f])
    for chi, factors in (([-0.5], [f, f]), ([-0.5, 0.5, 0.9], [f, f]),
                         ([-0.5, 0.5], [f]), ([-0.5, 0.5], [f, f, f])):
        with pytest.raises(ValidationError, match="sampling lines .* factors for 2 slabs"):
            PiecewiseSeparable([-1.0, 0.0, 1.0], chi, factors)


def test_sampled_piecewise_limit_consistency():
    # max deviation on a disk grid decreases monotonically as M, q grow
    sigma = lambda x, y: (2 + np.cos(np.asarray(x))) * (2 + 0.5 * np.sin(np.asarray(y)))
    xs, ys = np.meshgrid(np.linspace(-0.99, 0.99, 100), np.linspace(-0.99, 0.99, 100))
    keep = xs ** 2 + ys ** 2 <= 1.0
    xs, ys = xs[keep], ys[keep]
    devs = []
    for m in (4, 16, 64):
        f = sample_piecewise(sigma, M=m, q=m, K=2.0)
        devs.append(np.abs(f.evaluate(xs, ys) - sigma(xs, ys)).max())
    assert devs[0] > devs[1] > devs[2]


def test_build_piecewise_validation():
    with pytest.raises(ValidationError):  # fewer than 2 samples
        build_piecewise([(0.0, [-1.0], [2.0])], [-1.0, 1.0])
    with pytest.raises(ValidationError):  # non-monotone ordinates
        build_piecewise([(0.0, [0.5, -0.5], [2.0, 2.0])], [-1.0, 1.0])
    with pytest.raises(ValidationError):  # non-positive sample
        build_piecewise([(0.0, [-1.0, 1.0], [2.0, -1.0])], [-1.0, 1.0])
    with pytest.raises(ValidationError):  # slabs must cover [-1, 1]
        build_piecewise([(0.0, [-1.0, 1.0], [2.0, 2.0])], [-0.5, 1.0])
    with pytest.raises(ValidationError):  # K too small
        build_piecewise([(0.0, [-1.0, 1.0], [2.0, 2.0])], [-1.0, 1.0], K=0.5)


def test_piecewise_rejects_a_y_factor_below_zero():
    ys = np.linspace(-1.0, 1.0, 5)
    samples = [(-0.5, ys, [1.0, 1.0, 1.0, 1.0, 1.0]), (0.5, ys, [1.0, 1.0, 100.0, 1.0, 1.0])]
    cub = build_piecewise(samples, [-1.0, 0.0, 1.0], interpolant="cubic")
    yq = np.linspace(-0.95, 0.95, 39)
    with pytest.raises(ValidationError, match="slab 1 y-factor is -.* cubic interpolant"):
        cub.separable_parts(np.full_like(yq, 0.5), yq)
    lin = build_piecewise(samples, [-1.0, 0.0, 1.0], interpolant="linear")
    assert np.all(lin.separable_parts(np.full_like(yq, 0.5), yq)[1] >= 1.0)


def test_piecewise_cubic_interpolant_flag():
    ys = np.linspace(-1, 1, 9)
    samples = [(0.0, ys, 2 + np.sin(ys))]
    lin = build_piecewise(samples, [-1.0, 1.0], interpolant="linear")
    cub = build_piecewise(samples, [-1.0, 1.0], interpolant="cubic")
    yq = np.linspace(-0.95, 0.95, 101)
    err_lin = np.abs(lin.evaluate(np.zeros_like(yq), yq) - (2 + np.sin(yq))).max()
    err_cub = np.abs(cub.evaluate(np.zeros_like(yq), yq) - (2 + np.sin(yq))).max()
    assert err_cub < err_lin


# --- CSV ingestion -----------------------------------------------------------

def test_conductivity_csv_roundtrip(tmp_path):
    xs = np.linspace(-1, 1, 21)
    ys = np.linspace(-1, 1, 19)
    path = tmp_path / "sigma.csv"
    with open(path, "w") as fh:
        fh.write("x,y,sigma\n")
        for x in xs:
            for y in ys:
                fh.write(f"{x},{y},{2 + x + 0.5 * y}\n")
    field = load_conductivity_csv(path)
    # exact on grid nodes, bilinear in between
    assert field.evaluate(xs[3], ys[4]) == pytest.approx(2 + xs[3] + 0.5 * ys[4], rel=1e-12)
    assert field.evaluate(0.05, 0.0) == pytest.approx(2.05, rel=1e-12)  # linear data is exact


def write_grid_csv(path, xs, ys, grid):
    with open(path, "w") as fh:
        fh.write("x,y,sigma\n")
        for a, x in enumerate(xs):
            for b, y in enumerate(ys):
                fh.write(f"{x:.17g},{y:.17g},{grid[a, b]:.17g}\n")


@pytest.mark.parametrize("grid_kind", ["uniform", "non-uniform", "one-column"])
def test_conductivity_csv_matches_scipy_bilinear(tmp_path, grid_kind):
    from scipy.interpolate import RegularGridInterpolator

    rng = np.random.default_rng(11)
    if grid_kind == "uniform":
        xs, ys = np.linspace(-0.7, 0.8, 16), np.linspace(-0.6, 0.5, 12)
    elif grid_kind == "non-uniform":
        xs = np.sort(rng.uniform(-0.7, 0.8, 14))
        ys = np.sort(rng.uniform(-0.6, 0.5, 9))
    else:
        xs, ys = np.array([0.1]), np.linspace(-0.6, 0.5, 12)
    grid = rng.uniform(0.5, 4.0, (len(xs), len(ys)))
    path = tmp_path / "sigma.csv"
    write_grid_csv(path, xs, ys, grid)
    field = load_conductivity_csv(path)

    r, a = np.sqrt(rng.uniform(0, 0.99, 400)), rng.uniform(0, 2 * math.pi, 400)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    blocks = [(r * np.cos(a), r * np.sin(a)),                      # inside the disk
              (X.ravel(), Y.ravel()),                              # grid nodes
              (np.full(50, xs[len(xs) // 2]), rng.uniform(ys[0], ys[-1], 50)),  # grid lines
              (rng.uniform(xs[0], xs[-1], 50), rng.choice(ys, 50)),
              ([0.95, -0.95, 0.0, 0.0, 0.6], [0.0, 0.1, 0.95, -0.95, -0.7])]  # outside the hull
    x, y = (np.concatenate(c) for c in zip(*blocks))
    interp = RegularGridInterpolator((xs, ys), grid, method="linear",
                                     bounds_error=False, fill_value=None)
    expected = interp(np.stack([np.clip(x, xs[0], xs[-1]), np.clip(y, ys[0], ys[-1])], axis=-1))
    got = field.evaluate(x, y)
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)
    assert np.array_equal(field.evaluate(X, Y), grid)  # exact at the nodes
    assert field.evaluate(0.95, 0.0) == pytest.approx(float(expected[-5]), rel=1e-14)  # scalars


def test_conductivity_csv_validation(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValidationError):
        load_conductivity_csv(p)
    p.write_text("x,y,sigma\n0,0,1\n0,1,1\n1,0,1\n")  # incomplete grid
    with pytest.raises(ValidationError):
        load_conductivity_csv(p)
    with pytest.raises(ValidationError):
        load_conductivity_csv(tmp_path / "missing.csv")


def test_conductivity_csv_rejects_a_repeated_node(tmp_path):
    # (0, 0) twice and (1, 1) left out: the node count matches the 2 x 2 grid, and the
    # sorted values 1, 5, 2, 3 would fill it permuted (sigma(1, 0) = 2 instead of 3)
    p = tmp_path / "sigma.csv"
    p.write_text("x,y,sigma\n0,0,1\n0,0,5\n0,1,2\n1,0,3\n")
    with pytest.raises(ValidationError, match=r"repeats the node x=0\.0, y=0\.0"):
        load_conductivity_csv(p)
    p.write_text("x,y,sigma\n0,0,1\n0,1,2\n1,0,3\n1,1,5\n")
    field = load_conductivity_csv(p)
    assert field.evaluate(0.999, 0.0) == pytest.approx(2.998, rel=1e-14)
    assert field.evaluate(0.0, 0.999) == pytest.approx(1.999, rel=1e-14)


GRID_TEXT = "x,y,sigma\r\n-1,-1,2\r\n-1,1,3\r\n1,-1,4\r\n1,1,5\r\n"


def test_csv_with_a_byte_order_mark_reads_like_the_plain_file(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with U+FEFF
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(GRID_TEXT, encoding="utf-8")
    marked.write_text(GRID_TEXT, encoding="utf-8-sig")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    want = read_float_csv(plain, ("x", "y", "sigma"), "conductivity")
    assert np.array_equal(read_float_csv(marked, ("x", "y", "sigma"), "conductivity"), want)
    assert load_conductivity_csv(marked).evaluate(0.0, 0.0) == pytest.approx(3.5, rel=1e-14)


@pytest.mark.parametrize("text", [GRID_TEXT + "\r\n", GRID_TEXT + "\n\n",
                                  GRID_TEXT.replace("\r\n1,-1", "\r\n\r\n1,-1")],
                         ids=["trailing", "two-trailing", "inside"])
def test_csv_blank_lines_are_skipped(tmp_path, text):
    path = tmp_path / "sigma.csv"
    path.write_bytes(text.encode())
    assert np.array_equal(read_float_csv(path, ("x", "y", "sigma"), "conductivity"),
                          [[-1, -1, 2], [-1, 1, 3], [1, -1, 4], [1, 1, 5]])


def test_constant_field():
    f = constant_field(3.0)
    assert f.evaluate(0.3, -0.4) == pytest.approx(3.0)
    s1, s2 = f.separable_parts(np.array([0.1]), np.array([0.2]))
    assert s1[0] * s2[0] == pytest.approx(3.0)
    with pytest.raises(ValidationError):
        constant_field(0.0)
