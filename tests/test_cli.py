import importlib
import json
import math
import os
import re
import runpy
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fpeit import _entry, boundary_solver, cli
from fpeit._entry import _peek_threads
from fpeit.cli import main, run_solve, run_verify
from fpeit.conductivity import SHAPE_KINDS
from fpeit.errors import ValidationError
from fpeit.presets import (
    PRESET_NAMES,
    RunConfig,
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


def scene_with(**shape):
    """A one-shape scene conductivity: a disk unless ``shape`` says otherwise, without
    the disk keys that the shape's kind does not read."""
    shape = {"kind": "disk", "cx": 0.0, "cy": 0.0, "r2": 0.2, "value": 100.0, **shape}
    keys = ("kind", *SHAPE_KINDS[shape["kind"]].__dataclass_fields__)
    return {"variant": "scene", "background": 10.0,
            "shapes": [{k: v for k, v in shape.items() if k in keys}]}


def piecewise_with(**over):
    """The README piecewise conductivity, with ``over`` in place of its keys."""
    return {"variant": "piecewise", "edges": [-1, 0, 1], "K": 2.0, "samples": [
        {"chi": -0.5, "ys": [-0.8, 0.8], "sigmas": [2.0, 3.0]},
        {"chi": 0.5, "ys": [-0.8, 0.0, 0.8], "sigmas": [3.0, 2.5, 2.0]}], **over}


@pytest.mark.parametrize("bad", [{"N": 2.5}, {"P": "35"}, {"N": True}, {"S": 60.0},
                                 # removed keys, named by the unknown-key error
                                 {"fd_h": 0}, {"fd_h": 1e-300},
                                 {"drop_tol": float("nan")}, {"drop_tol": -1},
                                 {"drop_tol": "nan"}, {"drop_tol": 1.0}, {"corner_snap": "yes"},
                                 {"thresholds": {"divergence": "x"}},
                                 {"thresholds": {"divergence": float("inf")}},
                                 {"thresholds": {"divergence": True}},
                                 {"thresholds": {"frobnicate": 1.0}},
                                 {"thresholds": [1e-3]},
                                 {"rule": "cubic"}, {"rule": "simpson"}, {"rule": None},
                                 {"rim_grading": 1.0}, {"rim_grading": -1.0},
                                 {"fit_quadrature": "bogus"},
                                 {"fit_quadrature": "dense", "dense_error": False},
                                 {"preset": ["constant"]}, {"preset": {"name": "constant"}},
                                 {"interior": "false"}, {"dense_error": 1}, {"dump_powers": None},
                                 {"conductivity": "disk"}, {"boundary_data": [0.0]},
                                 {"conductivity": scene_with(cx="abc")},
                                 {"conductivity": scene_with(cx=float("nan"))},
                                 {"conductivity": scene_with(r2=-1)},
                                 {"conductivity": scene_with(kind="annulus", r2_inner=0.1,
                                                             r2_outer=0.1)},
                                 {"conductivity": scene_with(kind="polygon", vertices=[
                                     [0.0, 0.0], [0.5, 0.0, 1.0], [0.0, 0.5]])},
                                 {"conductivity": piecewise_with(edges=[-1, "0", 1])},
                                 {"conductivity": piecewise_with(edges=[-1, False, 1])},
                                 {"conductivity": piecewise_with(
                                     samples={"chi": 0.0, "ys": [0.0, 0.5], "sigmas": [1, 2]})},
                                 {"conductivity": {"variant": "scene", "background": 10.0,
                                                   "shapes": "disk"}},
                                 {"conductivity": {"variant": "constant", "value": "x"}},
                                 {"conductivity": {"variant": "sinusoidal", "omega": "x"}},
                                 {"boundary_data": {"case": "sinusoidal", "omega": "x"}},
                                 {"boundary_data": {"expression": "shifted-cubic",
                                                    "beta": "x"}}],
                         ids=lambda bad: "-".join(f"{k}={v!r}" for k, v in bad.items()))
def test_bad_numeric_config_exits_2(tmp_path, capsys, bad):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": "constant", "N": 2, "P": 6, "S": 50, **bad}))
    for command in ("solve", "verify"):
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "invalid input" in err and next(iter(bad)) in err
        assert "Traceback" not in err


def test_rule_and_rim_grading_are_fixed():
    # no config sets them; perfbench/gate.py reads both, and the config echo keeps them
    config = config_from_dict({"preset": "sinusoidal"})
    assert (config.rule, config.rim_grading) == ("cubic", 1.0)
    assert (RunConfig().rule, RunConfig().rim_grading) == ("cubic", 1.0)
    assert config.to_dict()["rule"] == "cubic" and config.to_dict()["rim_grading"] == 1.0


DISK = {"cx": 0.0, "cy": 0.0, "r2": 0.2, "value": 100.0}


@pytest.mark.parametrize("key, shape", [
    ("kind", {"kind": ["disk"], **DISK}), ("kind", {"kind": {"disk": 1}, **DISK}),
    ("vertices", {"kind": "polygon", "vertices": "abc", "value": 100.0}),
    ("vertices", {"kind": "polygon", "vertices": {"a": 1}, "value": 100.0}),
    ("vertices", {"kind": "polygon", "vertices": [1, 2, 3], "value": 100.0}),
    ("vertices", {"kind": "polygon", "vertices": [[0, 0], [0.5, 0, 1], [0, 0.5]], "value": 100.0})],
    ids=lambda v: v if isinstance(v, str) else repr(v.get("vertices", v["kind"])))
def test_scene_shape_of_the_wrong_type_exits_2_naming_the_key(tmp_path, capsys, key, shape):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "N": 2, "P": 6, "S": 50, "boundary_data": {"expression": "shifted-cubic"},
        "conductivity": {"variant": "scene", "background": 10.0, "shapes": [shape]}}))
    for command in ("solve", "verify"):
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "invalid input" in err and key in err
        assert "Traceback" not in err


def test_cubic_slab_factor_below_zero_exits_2(tmp_path, capsys):
    # the cubic interpolants of disk-0.6's samples undershoot below zero near the
    # jump; the linear ones of the same samples stay positive
    conductivity = {"variant": "piecewise-of", "source": scene_with(cx=0.6), "M": 16, "q": 16}
    doc = {"conductivity": conductivity, "N": 4, "P": 12, "S": 100,
           "boundary_data": {"expression": "shifted-cubic", "beta": 0.6}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**doc, "conductivity": {**conductivity, "interpolant": "cubic"}}))
    for command in ("solve", "verify"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert re.search(r"invalid input: slab \d+ y-factor is -", err) and "cubic interpolant" in err
        assert "Traceback" not in err
    cfg_path.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0


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
    # orthonormalize drops a function whose norm ratio falls below 1e-10
    assert 1e-10 < report["diagnostics"]["min_kept_norm_ratio"] <= 1.0
    # the rings data has no content past degree 3
    assert 0.0 <= report["diagnostics"]["coefficient_tail"] <= 1e-10
    # E sits at the rounding floor, below GAP_FLOOR of the data norm, so its gap is noise
    assert report["diagnostics"]["error_quadrature_gap"] is None
    assert "dense_traces" in report["timings"]
    assert 0 <= report["timings"]["write"] <= report["wall_time"]
    header = (tmp_path / "boundary_fit.csv").read_text().splitlines()[0]
    assert header == "theta,l,data,fit,residual"
    coeff_header = (tmp_path / "coefficients.csv").read_text().splitlines()[0]
    assert coeff_header == "alpha,b"
    assert run_solve(small_rings_config(dense_error=False), tmp_path / "cheap") == 0
    cheap = json.loads((tmp_path / "cheap" / "report.json").read_text())
    assert "dense_traces" not in cheap["timings"]
    assert run_solve(small_rings_config(Q=501), tmp_path / "odd") == 0
    odd = json.loads((tmp_path / "odd" / "report.json").read_text())
    assert odd["diagnostics"]["error_quadrature_gap"] is None


def test_basis_saturated_marks_an_interpolating_node_fit(tmp_path):
    # 2N+1 = 35 functions on the P = 35 nodes of sinusoidal; 17 with N = 8; P = 34 < 2N+1
    # takes the dense fit, which solves on the Q points, so its node residual stays informative
    cases = (({}, True, 35), ({"N": 8}, False, 17), ({"P": 34}, False, 34))
    for k, (overrides, saturated, size) in enumerate(cases):
        cfg = config_from_dict({"preset": "sinusoidal", **overrides})
        assert run_solve(cfg, tmp_path / str(k)) == 0
        report = json.loads((tmp_path / str(k) / "report.json").read_text())
        assert report["diagnostics"]["basis_saturated"] is saturated
        assert report["basis_size"] == min(2 * cfg.N + 1, cfg.P) == size
        if saturated:
            assert report["error_fit_nodes"] < 1e-12 < report["error"]
        else:
            assert report["error_fit_nodes"] > 1e-12


def test_error_quadrature_gap_of_a_smooth_and_a_jump_case(tmp_path):
    # the smooth sinusoidal fit is resolved by Q/2 points, the jump of disk-0.6 is not
    gaps = {}
    for name in ("sinusoidal", "disk-0.6"):
        cfg = config_from_dict({"preset": name, "N": 8, "S": 101, "Q": 500})
        assert run_solve(cfg, tmp_path / name) == 0
        diagnostics = json.loads((tmp_path / name / "report.json").read_text())["diagnostics"]
        gaps[name] = diagnostics["error_quadrature_gap"]
        # the separable sinusoidal field is reduced exactly, the disk scene by the limit case
        assert diagnostics["limit_construction"] is (name == "disk-0.6")
    assert 0.0 <= gaps["sinusoidal"] <= 1e-8
    assert 1e-4 <= gaps["disk-0.6"] <= 1.0


def test_error_quadrature_gap_is_null_at_the_rounding_floor(tmp_path):
    # constant and radial-rings fit their data exactly, E ~ 1e-16 of the data norm
    for name, at_floor in (("constant", True), ("radial-rings", True),
                           ("sinusoidal", False), ("disk-0.6", False)):
        assert run_solve(config_from_dict({"preset": name}), tmp_path / name) == 0
        gap = json.loads((tmp_path / name / "report.json").read_text())[
            "diagnostics"]["error_quadrature_gap"]
        assert (gap is None) is at_floor, (name, gap)


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


def test_cheap_error_flag_is_gone(tmp_path, capsys):
    # the dense_error config key selects the cheap error
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--preset", "constant", "--cheap-error", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cheap-error" in capsys.readouterr().err


def test_verify_constant_passes(tmp_path):
    cfg = config_from_dict({"preset": "constant", "P": 24, "S": 80, "N": 6})
    assert run_verify(cfg, tmp_path) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["failed"] == []
    assert doc["checks"]["divergence"]["passed"] is True


def test_verify_builds_no_formal_power_table(tmp_path, monkeypatch):
    def table(*args, **kwargs):
        raise AssertionError("verify built the formal-power table")

    monkeypatch.setattr(cli, "build_table", table)
    cfg = config_from_dict({"preset": "sinusoidal", "P": 24, "S": 60, "N": 4})
    assert run_verify(cfg, tmp_path) == 0


def test_verify_exits_2_when_the_divergence_check_keeps_no_point(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "FD_H", 0.5)
    assert main(["verify", "--preset", "constant", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "h = 0.5" in captured.err and "verify passed" not in captured.out


def test_verify_threshold_breach_exits_one(tmp_path, monkeypatch):
    monkeypatch.setitem(cli.THRESHOLDS, "divergence", 1e-30)
    cfg = config_from_dict({"preset": "constant", "P": 24, "S": 80, "N": 6})
    assert run_verify(cfg, tmp_path) == 1
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert "divergence" in doc["failed"]


def refinement_families(tmp_path, doc):
    """Exit code, verify.json failures and refinement-family entries of a small verify run."""
    code = run_verify(config_from_dict({**doc, "P": 24, "S": 80, "N": 6}), tmp_path)
    verify = json.loads((tmp_path / "verify.json").read_text())
    return code, verify["failed"], verify["checks"]


def test_enforced_refinement_families_pass(tmp_path):
    code, failed, checks = refinement_families(tmp_path, {"preset": "constant"})
    assert code == 0 and failed == []
    vekua = checks["vekua_per_degree"]
    assert vekua["threshold_ratio"] == 1.2 and vekua["passed"] is True
    assert vekua["min_ratio"] >= 1.2
    assert len(vekua["residuals"]) == len(vekua["residuals_refined"]) == 7
    # every successor residual is at the rounding floor, so no ratio is asked
    succ = checks["successor_mesh"]
    assert max(succ["residuals"]) <= cli.THRESHOLDS["residual_floor"]
    assert succ["min_ratio"] is None and succ["passed"] is True
    assert succ["threshold_ratio"] == 1.2


def test_enforced_refinement_family_fails(tmp_path, monkeypatch):
    monkeypatch.setitem(cli.THRESHOLDS, "vekua_ratio", 1e9)
    code, failed, checks = refinement_families(tmp_path, {"preset": "sinusoidal"})
    vekua = checks["vekua_per_degree"]
    assert code == 1 and failed == ["vekua_per_degree"]
    assert vekua["threshold_ratio"] == 1e9 and vekua["passed"] is False
    assert 1.2 < vekua["min_ratio"] < 1e9


def test_unenforced_refinement_families(tmp_path, monkeypatch):
    # no exact case, and sigma is not separable: both families are reported only
    monkeypatch.setitem(cli.THRESHOLDS, "vekua_ratio", 1e9)
    code, failed, checks = refinement_families(tmp_path, {"preset": "disk-0.6"})
    assert code == 0 and failed == []
    for name in ("vekua_per_degree", "successor_mesh"):
        assert checks[name]["threshold_ratio"] is None and checks[name]["passed"] is None
        assert checks[name]["min_ratio"] > 0


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


@pytest.mark.parametrize("text, code, message", [
    ("\ufefftheta,u\n0,1\n2,0\n4,1\n\n", 0, None),
    ("theta,u\n0,1\n2\n4,1\n", 2, "has a row without 2 cells"),
    ("theta,u\n0,1\n2,\n4,1\n", 2, "cannot read boundary CSV"),
    ("theta,u\n0,1\n,\n4,1\n", 2, "cannot read boundary CSV"),
    ("theta,u\r\n0,1\r\n2,0\r\n4,1\r\n   \r\n", 0, None),
    ("theta,u\n0,1\n \t \n4,1\n", 0, None),
    ("theta,u\n0,1\n2,  \n4,1\n", 2, "could not convert string to float: '  '"),
], ids=["bom-and-blank-line", "missing-cell", "blank-cell", "blank-cells", "line-of-spaces",
        "line-of-blanks", "one-blank-cell"])
def test_boundary_csv_exports(tmp_path, capsys, text, code, message):
    path = tmp_path / "bc.csv"
    path.write_text(text, encoding="utf-8")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "conductivity": {"variant": "constant", "value": 1.0},
        "boundary_data": {"csv": str(path)},
        "N": 4, "P": 12, "S": 50, "Q": 100,
    }))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == code
    if message:
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("spec, stdin", [
    ({"conductivity": {"variant": "csv", "path": 0},
      "boundary_data": {"expression": "harmonic-quadratic"}},
     "x,y,sigma\n-1,-1,2\n-1,1,2\n1,-1,2\n1,1,2\n"),
    ({"conductivity": {"variant": "constant", "value": 1.0}, "boundary_data": {"csv": 0}},
     "theta,u\n0,1\n2,0\n4,1\n"),
], ids=["conductivity-path", "boundary-csv"])
def test_numeric_csv_path_exits_2_without_reading_stdin(tmp_path, spec, stdin):
    # open() takes an integer as a file descriptor, and 0 is stdin; stdin here
    # is a valid CSV file, whose offset moves if the run reads it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**spec, "N": 4, "P": 12, "S": 50, "Q": 100}))
    stdin_path = tmp_path / "stdin.csv"
    stdin_path.write_text(stdin)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for command in ("solve", "verify"):
        with open(stdin_path) as fh:
            done = subprocess.run([sys.executable, "-m", "fpeit", command, "--config",
                                   str(cfg_path), "--out", str(tmp_path / "out")], stdin=fh,
                                  env=env, capture_output=True, text=True, timeout=60)
            assert os.lseek(fh.fileno(), 0, os.SEEK_CUR) == 0
        assert done.returncode == 2
        assert "CSV path must be a file name" in done.stderr


@pytest.mark.parametrize("tail, code", [("   \r\n", 0), ("0, ,2\r\n", 2)],
                         ids=["line-of-spaces", "one-blank-cell"])
def test_conductivity_csv_blank_rows(tmp_path, capsys, tail, code):
    path = tmp_path / "sigma.csv"
    path.write_text("x,y,sigma\r\n-1,-1,2\r\n-1,1,2\r\n1,-1,2\r\n1,1,2\r\n" + tail,
                    newline="")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "conductivity": {"variant": "csv", "path": str(path)},
        "boundary_data": {"expression": "harmonic-quadratic"},
        "N": 4, "P": 12, "S": 50, "Q": 100,
    }))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == code
    if code:
        assert "could not convert string to float: ' '" in capsys.readouterr().err


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


def test_conductivity_csv_with_a_repeated_node_exits_2(tmp_path, capsys):
    path = tmp_path / "sigma.csv"
    path.write_text("x,y,sigma\n0,0,1\n0,0,5\n0,1,2\n1,0,3\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "conductivity": {"variant": "csv", "path": str(path)},
        "boundary_data": {"expression": "harmonic-quadratic"},
        "N": 4, "P": 12, "S": 50, "Q": 100,
    }))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "repeats the node x=0.0, y=0.0" in err
    assert "Traceback" not in err


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


SLAB_SPECS = {
    "piecewise-of": {"variant": "piecewise-of", "source": {"variant": "constant", "value": 2.0}},
    "piecewise": {"variant": "piecewise", "edges": [-1.0, 1.0],
                  "samples": [{"chi": 0.0, "ys": [-1.0, 1.0], "sigmas": [2.0, 2.0]}]},
}


@pytest.mark.parametrize("variant, bad",
                         [("piecewise-of", {"M": 2.7}), ("piecewise-of", {"M": True}),
                          ("piecewise-of", {"M": "x"}), ("piecewise-of", {"q": "x"}),
                          ("piecewise-of", {"q": 4.0}), ("piecewise-of", {"K": "a"}),
                          ("piecewise", {"K": "a"})],
                         ids=lambda v: v if isinstance(v, str)
                         else "-".join(f"{k}={x!r}" for k, x in v.items()))
def test_bad_slab_parameters_exit_2(tmp_path, capsys, variant, bad):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"conductivity": {**SLAB_SPECS[variant], **bad},
                                    "boundary_data": {"case": "constant"},
                                    "N": 2, "P": 6, "S": 50, "Q": 12}))
    for command in ("solve", "verify"):
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "invalid input" in err and f"parameter {next(iter(bad))} " in err
        assert "Traceback" not in err


@pytest.mark.parametrize("spec, commands", [
    ({"conductivity": {"variant": "lorentzian", "beta": 1e308}}, ("solve", "verify")),
    ({"boundary_data": {"case": "lorentzian", "beta": 1e308}}, ("solve", "verify")),
    ({"boundary_data": {"expression": "shifted-cubic", "beta": 1e308}}, ("solve", "verify")),
], ids=["variant", "case", "expression"])
def test_overflowing_beta_exits_2(tmp_path, capsys, spec, commands):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": "constant", "N": 2, "P": 6, "S": 50, "Q": 12,
                                    **spec}))
    for command in commands:
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "invalid input: lorentzian beta 1e+308 overflows" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("preset, N", [("triangle", 12), ("constant", 4)],
                         ids=["dense-fit", "node-fit"])  # P = 24 < 2N+1: the dense fit
def test_non_finite_boundary_data_exits_2(tmp_path, capsys, preset, N):
    # (x - 1e120)^3 overflows to -inf at every boundary point
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": preset, "N": N, "P": 24, "S": 60, "Q": 100,
                                    "boundary_data": {"expression": "shifted-cubic",
                                                      "beta": 1e120}}))
    with np.errstate(over="ignore"):
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "invalid input: boundary data is not finite at theta = 0\n" in err


@pytest.mark.parametrize("preset, N", [("triangle", 12), ("constant", 4)],
                         ids=["dense-fit", "node-fit"])  # P = 24 < 2N+1: the dense fit
def test_bad_boundary_data_exits_2_before_any_formal_power_and_without_a_warning(
        tmp_path, capsys, monkeypatch, preset, N):
    def traces(*args, **kwargs):
        raise AssertionError("formal powers built for data that is then rejected")

    monkeypatch.setattr(boundary_solver, "rim_traces", traces)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": preset, "N": N, "P": 24, "S": 60, "Q": 100,
                                    "boundary_data": {"expression": "shifted-cubic",
                                                      "beta": 1e120}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would raise here
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "invalid input: boundary data is not finite at theta = 0\n" in capsys.readouterr().err


PIECEWISE = {"variant": "piecewise", "edges": [-1.0, 1.0]}


@pytest.mark.parametrize("spec, message", [
    ({"conductivity": {"variant": "lorentzian", "bta": 1.0},
      "boundary_data": {"case": "lorentzian", "beta": 1.0}}, "keys ['bta']"),
    ({"preset": "disk-0.6", "boundary_data": {"expression": "shifted-cubic", "betta": 0.6}},
     "keys ['betta']"),
    ({"preset": "constant", "boundary_data": {"case": "sinusodal"}}, "case 'sinusodal'"),
    ({"preset": "disk-0.6", "conductivity": {"variant": "scene", "background": 10.0, "shapes": [
        {"kind": "disk", "cx": 0.6, "cy": 0.0, "r2": 0.2, "value": 100.0, "vaule": 5}]}},
     "keys ['vaule']"),
    ({"preset": "constant", "conductivity": {**PIECEWISE, "samples": [
        {"chi": 0.0, "ys": [-0.5, 0.0, 0.5], "sigmas": [2.0, 3.0]}]}},
     "malformed piecewise conductivity spec: ValueError('3 ys for 2 sigmas')"),
    ({"preset": "constant", "conductivity": {**PIECEWISE, "samples": [
        {"chi": "a", "ys": [-0.5, 0.5], "sigmas": [2.0, 3.0]}]}},
     "malformed piecewise conductivity spec"),
    ({"preset": "constant", "conductivity": {**PIECEWISE, "samples": [
        {"chi": 0.0, "ys": [-0.5, "a"], "sigmas": [2.0, 3.0]}]}},
     "malformed piecewise conductivity spec"),
    *(({"preset": "lorentzian-1", "conductivity": {"variant": variant, "source": source}},
       message) for variant in ("piecewise-of", "limit-of") for source, message in (
        ({"variant": "lorentzian", "bta": 1}, "keys ['bta']"),
        (5, f"variant '{variant}' source must be a JSON object, got 5")))],
    ids=["conductivity-key", "boundary-key", "boundary-case", "shape-key", "sample-lengths",
         "sample-chi", "sample-ys", "piecewise-of-source-key", "piecewise-of-source-number",
         "limit-of-source-key", "limit-of-source-number"])
def test_misspelled_or_malformed_nested_spec_exits_2(tmp_path, capsys, spec, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**spec, "N": 5, "S": 60, "Q": 100}))
    for command in ("solve", "verify"):
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "invalid input" in err and message in err
        assert "Traceback" not in err


@pytest.mark.parametrize("variant", ["piecewise-of", "limit-of"])
@pytest.mark.parametrize("source", [{"variant": "lorentzian", "bta": 1}, 5, {}],
                         ids=["misspelled-key", "number", "empty"])
def test_nested_source_is_checked_with_the_config(variant, source):
    # config_from_dict builds nothing, so this is the validation, not build_field
    with pytest.raises(ValidationError):
        config_from_dict({"preset": "lorentzian-1",
                          "conductivity": {"variant": variant, "source": source}})


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


@pytest.mark.parametrize("vertices", [[[0, 0], [0.5, 0], [0.9, 0]],
                                      [[0.1, 0.1], [0.1, 0.1], [0.1, 0.1]],
                                      [[-0.3, -0.3], [0.3, 0.3], [0.3, 0.3], [0.0, 0.0]]],
                         ids=["segment", "one-point", "diagonal-with-repeats"])
def test_collinear_polygon_exits_2(tmp_path, capsys, vertices):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": "constant", "N": 2, "P": 6, "S": 50,
                                    "conductivity": scene_with(kind="polygon",
                                                               vertices=vertices)}))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "polygon encloses no area" in capsys.readouterr().err


def test_bow_tie_polygon_and_triangle_preset_are_accepted(tmp_path):
    # the bow-tie's signed shoelace area is 0, but its even-odd interior has area
    bow_tie = scene_with(kind="polygon", vertices=[[-0.5, -0.5], [0.5, 0.5],
                                                   [0.5, -0.5], [-0.5, 0.5]])
    field = build_field(config_from_dict({"conductivity": bow_tie,
                                          "boundary_data": {"case": "constant"}}))
    assert field.evaluate(0.4, 0.0) == 100.0 and field.evaluate(0.0, 0.4) == 10.0
    assert len(build_field(config_from_dict({"preset": "triangle"})).shapes) == 1


def test_scene_with_polygon_snaps_corners(tmp_path):
    cfg = config_from_dict({"preset": "triangle", "N": 4, "P": 24, "S": 60, "Q": 100})
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
    assert _peek_threads(["solve", "--thr", "3"]) == 3  # argparse's abbreviation, as in fpeit.cli


def test_abbreviated_threads_flag_sets_every_cap(tmp_path, monkeypatch):
    for var in _entry._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)  # restored after the test
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": "constant", "N": 2, "P": 6, "S": 50}))
    assert _entry.main(["powers", "--config", str(cfg_path), "--thr", "1",
                        "--out", str(tmp_path)]) == 0
    assert all(os.environ[var] == "1" for var in _entry._THREAD_VARS)


def test_threads_above_the_usable_cores_are_clamped(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "environ", {})  # _apply_threads alone starts no thread
    _entry._apply_threads(64)
    assert os.environ == {var: "2" for var in _entry._THREAD_VARS}
    _entry._apply_threads(1)
    assert os.environ == {var: "1" for var in _entry._THREAD_VARS}


def test_explicit_threads_override_inherited_caps(monkeypatch):
    for var in _entry._THREAD_VARS:
        monkeypatch.setenv(var, "8")
    _entry._apply_threads(1)
    assert all(os.environ[var] == "1" for var in _entry._THREAD_VARS)


def test_python_m_fpeit_applies_threads(tmp_path, monkeypatch):
    for var in _entry._THREAD_VARS:
        monkeypatch.setenv(var, "8")  # restored after the test
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": "constant", "N": 2, "P": 6, "S": 50}))
    monkeypatch.setattr(sys, "argv", ["fpeit", "powers", "--config", str(cfg_path),
                                      "--threads", "1", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("fpeit", run_name="__main__")
    assert done.value.code == 0
    assert os.environ["OMP_NUM_THREADS"] == "1"
    assert (tmp_path / "powers.csv").exists()


def test_importing_the_entry_point_loads_no_numpy():
    # --threads only caps BLAS if it is applied before numpy loads
    code = "import sys, fpeit._entry; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_importing_the_cli_loads_no_scipy():
    # scipy loads only for cubic piecewise interpolants
    code = "import sys, fpeit.cli; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_runs_load_no_numpy_random_numpy_ma_or_scipy(tmp_path):
    # numpy.random costs ~7 MB and numpy.ma ~1.3 MB of every run that imports them;
    # scipy loads only for cubic piecewise interpolants
    code = f"""
import sys
from fpeit.cli import run_powers, run_solve, run_verify
from fpeit.presets import config_from_dict
run_verify(config_from_dict({{"preset": "sinusoidal", "N": 4, "P": 12, "S": 50}}), {str(tmp_path)!r})
run_solve(config_from_dict({{"preset": "triangle", "N": 12, "P": 24, "S": 60, "Q": 100}}),
          {str(tmp_path)!r})
run_powers(config_from_dict({{"preset": "constant", "N": 2, "P": 6, "S": 50}}), {str(tmp_path)!r})
sys.exit(" ".join(m for m in ("numpy.random", "numpy.ma", "scipy") if m in sys.modules) or None)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *sys.path])}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "verify.json").exists() and (tmp_path / "powers.csv").exists()


def test_every_exported_name_resolves():
    # the package loads its names lazily through _EXPORTS; a stale entry fails only on use
    import fpeit
    for name in fpeit.__all__:
        module = importlib.import_module(f"fpeit.{fpeit._MODULES[name]}")
        assert getattr(fpeit, name) is getattr(module, name), name


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
