import json
import math
import os

import numpy as np
import pytest

from fpeit import _entry
from fpeit._entry import _peek_threads
from fpeit.cli import main, run_solve, run_verify
from fpeit.errors import ValidationError
from fpeit.presets import (
    PRESET_NAMES,
    build_boundary_data,
    build_field,
    config_from_dict,
    load_config,
)


def small_rings_config(**over):
    doc = {"preset": "radial-rings", "N": 8, "P": 35, "S": 101, "Q": 500}
    doc.update(over)
    return config_from_dict(doc)


def test_preset_names_cover_the_experiments():
    for name in ("sinusoidal", "lorentzian-0", "lorentzian-0.5", "lorentzian-1",
                 "radial-rings", "disk-center", "disk-0.6", "disk-0.79", "triangle"):
        assert name in PRESET_NAMES


def test_config_validation_errors():
    with pytest.raises(ValidationError):
        config_from_dict({"preset": "no-such-thing"})
    with pytest.raises(ValidationError):
        config_from_dict({"preset": "sinusoidal", "N": 0})
    with pytest.raises(ValidationError):
        config_from_dict({"preset": "sinusoidal", "S": 10})
    with pytest.raises(ValidationError):
        config_from_dict({"preset": "sinusoidal", "frobnicate": 1})
    with pytest.raises(ValidationError):
        config_from_dict({"N": 5})  # no conductivity / boundary data


def test_solve_writes_artifacts(tmp_path):
    cfg = small_rings_config(interior=True, dump_powers=True)
    assert run_solve(cfg, tmp_path) == 0
    for name in ("coefficients.csv", "boundary_fit.csv", "report.json",
                 "interior.csv", "powers.csv"):
        assert (tmp_path / name).exists(), name
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["significant_coefficients"] == 4
    assert report["basis_size"] == 17  # 2N+1 with N=8
    assert report["error"] < 1e-10
    assert report["sequence_period"] == 1
    assert 0.0 <= report["diagnostics"]["orthonormality_defect"] <= 1e-10
    assert "dense_traces" in report["timings"]
    assert 0 <= report["timings"]["write"] <= report["wall_time"]
    header = (tmp_path / "boundary_fit.csv").read_text().splitlines()[0]
    assert header == "theta,l,data,fit,residual"
    coeff_header = (tmp_path / "coefficients.csv").read_text().splitlines()[0]
    assert coeff_header == "alpha,b"
    assert run_solve(small_rings_config(dense_error=False), tmp_path / "cheap") == 0
    cheap = json.loads((tmp_path / "cheap" / "report.json").read_text())
    assert "dense_traces" not in cheap["timings"]


def test_solve_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_solve(small_rings_config(), a)
    run_solve(small_rings_config(), b)
    for name in ("coefficients.csv", "boundary_fit.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_main_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"preset": "sinusoidal", "N": 0}))
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert main(["solve", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["solve", "--preset", "no-such", "--out", str(tmp_path / "o")]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{nope")
    assert main(["verify", "--config", str(notjson)]) == 2


def test_main_requires_config_or_preset(tmp_path):
    assert main(["solve", "--out", str(tmp_path)]) == 2


def test_verify_constant_passes(tmp_path):
    cfg = config_from_dict({"preset": "constant", "P": 24, "S": 80, "N": 6})
    assert run_verify(cfg, tmp_path) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["failed"] == []
    assert doc["checks"]["divergence"]["passed"] is True


def test_verify_threshold_breach_exits_one(tmp_path):
    cfg = config_from_dict({"preset": "constant", "P": 24, "S": 80, "N": 6,
                            "thresholds": {"divergence": 1e-30}})
    assert run_verify(cfg, tmp_path) == 1
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert "divergence" in doc["failed"]


def test_powers_subcommand(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": "constant", "N": 2, "P": 6, "S": 50}))
    assert main(["powers", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "powers.csv").exists()


def test_boundary_csv_ingestion(tmp_path):
    th = np.linspace(0, 2 * math.pi, 88, endpoint=False)  # pi/2 falls on a node
    path = tmp_path / "bc.csv"
    with open(path, "w") as fh:
        fh.write("theta,u\n")
        for t in th:
            fh.write(f"{t},{math.cos(2 * t)}\n")
    cfg = config_from_dict({
        "conductivity": {"variant": "constant", "value": 1.0},
        "boundary_data": {"csv": str(path)},
        "N": 4, "P": 30, "S": 80, "Q": 88,
    })
    data_fn = build_boundary_data(cfg)
    got = data_fn(np.array([0.0, math.pi / 2]))
    np.testing.assert_allclose(got, [1.0, -1.0], atol=1e-10)
    assert run_solve(cfg, tmp_path / "out") == 0


@pytest.mark.parametrize("samples", [
    [(0.0, 1.0), (1.5, 0.0), (3.0, float("nan")), (4.5, 0.0)],
    [(0.0, 1.0), (1.5, 0.0), (float("inf"), -1.0), (4.5, 0.0)],
    [(0.0, 1.0), (1.5, 0.0), (3.0, -1.0), (2 * math.pi, 0.5)],
], ids=["nan-u", "inf-theta", "angle-repeats-mod-2pi"])
def test_bad_boundary_csv_exits_2(tmp_path, capsys, samples):
    path = tmp_path / "bc.csv"
    path.write_text("theta,u\n" + "".join(f"{t!r},{u!r}\n" for t, u in samples))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "conductivity": {"variant": "constant", "value": 1.0},
        "boundary_data": {"csv": str(path)},
        "N": 4, "P": 12, "S": 50, "Q": 100,
    }))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "boundary CSV" in capsys.readouterr().err


def test_conductivity_csv_variant(tmp_path):
    path = tmp_path / "sigma.csv"
    with open(path, "w") as fh:
        fh.write("x,y,sigma\n")
        for x in np.linspace(-1, 1, 11):
            for y in np.linspace(-1, 1, 11):
                fh.write(f"{x},{y},{2.0}\n")
    cfg = config_from_dict({
        "conductivity": {"variant": "csv", "path": str(path)},
        "boundary_data": {"expression": "harmonic-quadratic"},
        "N": 4, "P": 30, "S": 80, "Q": 200,
    })
    field = build_field(cfg)
    assert field.evaluate(0.2, -0.3) == pytest.approx(2.0, rel=1e-12)
    assert run_solve(cfg, tmp_path / "out") == 0


@pytest.mark.parametrize("bad_x", ["nan", "inf"])
def test_conductivity_csv_with_non_finite_coordinates_exits_2(tmp_path, capsys, bad_x):
    path = tmp_path / "sigma.csv"
    # a complete 2 x 2 grid whose second x row is not finite
    path.write_text(f"x,y,sigma\n-1,-1,2\n-1,1,2\n{bad_x},-1,2\n{bad_x},1,2\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "conductivity": {"variant": "csv", "path": str(path)},
        "boundary_data": {"expression": "harmonic-quadratic"},
        "N": 4, "P": 12, "S": 50, "Q": 100,
    }))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "non-finite x or y" in err
    assert "Traceback" not in err


def test_piecewise_of_and_limit_of_variants():
    cfg = config_from_dict({
        "conductivity": {"variant": "piecewise-of",
                         "source": {"variant": "lorentzian", "beta": 0.0},
                         "M": 8, "q": 8},
        "boundary_data": {"case": "lorentzian", "beta": 0.0},
        "N": 4, "P": 20, "S": 60, "Q": 100,
    })
    field = build_field(cfg)
    assert field.variant == "piecewise-separable"
    cfg2 = config_from_dict({
        "conductivity": {"variant": "limit-of",
                         "source": {"variant": "sinusoidal", "omega": math.pi}},
        "boundary_data": {"case": "sinusoidal"},
        "N": 4, "P": 20, "S": 60, "Q": 100,
    })
    field2 = build_field(cfg2)
    assert field2.variant == "limit-case"
    assert field2.evaluate(0.0, 0.0) == pytest.approx(6.0)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": "disk-0.6", "S": 120}))
    cfg = load_config(path)
    assert cfg.preset == "disk-0.6"
    assert cfg.S == 120  # override wins
    assert cfg.conductivity["shapes"][0]["cx"] == 0.6


def test_scene_with_polygon_snaps_corners(tmp_path):
    cfg = config_from_dict({"preset": "triangle", "N": 4, "P": 24, "S": 60, "Q": 100,
                            "fit_quadrature": "nodes"})
    field = build_field(cfg)
    from fpeit.presets import corner_angles_for
    angles = corner_angles_for(cfg, field)
    assert len(angles) == 3
    assert math.pi / 4 in [pytest.approx(a) for a in angles]


def test_peek_threads():
    assert _peek_threads(["solve", "--threads", "4"]) == 4
    assert _peek_threads(["--threads=2", "solve"]) == 2
    assert _peek_threads(["solve"]) is None
    assert _peek_threads(["--threads", "zebra"]) is None


def test_explicit_threads_override_inherited_caps(monkeypatch):
    for var in _entry._THREAD_VARS:
        monkeypatch.setenv(var, "8")
    _entry._apply_threads(1)
    assert all(os.environ[var] == "1" for var in _entry._THREAD_VARS)


def test_negative_threads_rejected(tmp_path, capsys):
    assert _entry.main(["solve", "--preset", "constant", "--threads", "-1",
                        "--out", str(tmp_path)]) == 2
    assert "invalid input" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_threads_flag_accepted_after_subcommand(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": "constant", "N": 2, "P": 6, "S": 50}))
    assert main(["powers", "--config", str(cfg_path), "--threads", "2",
                 "--out", str(tmp_path)]) == 0


def test_log_level_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FPEIT_LOG", "nonsense")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": "constant", "N": 2, "P": 6, "S": 50}))
    assert main(["powers", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert "FPEIT_LOG" in err
