"""The block CSV writers must produce the same bytes as the csv.writer loops they replaced."""

import csv

import numpy as np
import pytest

from fpeit import cli, formal_powers
from fpeit.formal_powers import FormalPowerTable, build_table, write_powers_csv
from fpeit.pseudoanalytic import build_sequence

from oracle_meshes import oracle_mesh
from test_cli import small_rings_config


def reference_powers_csv(table, path):
    """The row-by-row powers.csv writer the block writer replaced."""
    mesh = table.mesh
    x, y = mesh.xy()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["degree", "seed", "ray", "step", "x", "y", "ReZ", "ImZ"])
        for seed, Z in (("1", table.Z1), ("i", table.Zi)):
            for n in range(table.N + 1):
                for r in range(mesh.ray_count):
                    for s in range(mesh.step_count + 1):
                        w.writerow([n, seed, r, s,
                                    f"{x[r, s]:.17g}", f"{y[r, s]:.17g}",
                                    f"{Z[n, r, s].real:.17g}", f"{Z[n, r, s].imag:.17g}"])


def reference_write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _fmt(x):
    return f"{x:.17g}"


def reference_solve_artifacts(res, u, out):
    """coefficients.csv, boundary_fit.csv and interior.csv as the row-by-row writers made them."""
    fit = res.fit
    reference_write_csv(out / "coefficients.csv", ["alpha", "b"],
                        [[int(a), _fmt(b)] for a, b in zip(fit.labels, fit.coefficients)])
    reference_write_csv(out / "boundary_fit.csv", ["theta", "l", "data", "fit", "residual"],
                        [[_fmt(th), _fmt(th), _fmt(d), _fmt(f), _fmt(d - f)]
                         for th, d, f in zip(res.theta_dense, res.data_dense, res.fit_dense)])
    x, y = res.mesh.xy()
    reference_write_csv(out / "interior.csv", ["x", "y", "u"],
                        [[_fmt(a), _fmt(b), _fmt(v)]
                         for a, b, v in zip(x.ravel(), y.ravel(), u.ravel())])


EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, 3.0, -7.0, 2.0 ** 53,
               -1e-300, 1 / 3]


def test_powers_csv_matches_the_row_writer_on_edge_values(tmp_path):
    mesh = oracle_mesh(3, 50, rim_grading=2.0)  # uneven steps toward the rim
    N = 2
    shape = (N + 1,) + mesh.nodes.shape
    vals = np.resize(np.array(EDGE_VALUES), 4 * np.prod(shape)).reshape((4,) + shape)
    vals[1] = -np.roll(vals[1], 3)  # pair each value with other values and signs
    table = FormalPowerTable(N=N, mesh=mesh, Z1=vals[0] + 1j * vals[1],
                             Zi=vals[2] + 1j * vals[3])
    write_powers_csv(table, tmp_path / "block.csv")
    reference_powers_csv(table, tmp_path / "rows.csv")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_solve_artifacts_match_the_row_writers(tmp_path, monkeypatch):
    seen = {}

    def keep(fn, key):
        def wrapped(*args, **kwargs):
            seen[key] = fn(*args, **kwargs)
            return seen[key]
        return wrapped

    monkeypatch.setattr(cli, "solve_dirichlet", keep(cli.solve_dirichlet, "res"))
    monkeypatch.setattr(cli, "reconstruct_interior", keep(cli.reconstruct_interior, "u"))
    out, ref = tmp_path / "out", tmp_path / "ref"
    ref.mkdir()
    assert cli.run_solve(small_rings_config(interior=True, dump_powers=True), out) == 0
    reference_solve_artifacts(seen["res"], seen["u"], ref)
    res = seen["res"]
    reference_powers_csv(build_table(build_sequence(res.field, res.mesh), res.mesh, 8),
                         ref / "powers.csv")
    for name in ("coefficients.csv", "boundary_fit.csv", "interior.csv", "powers.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


@pytest.mark.parametrize("over, tables", [({}, 0), ({"P": 9}, 0),  # P < 2N+1: the dense fit
                                          ({"dump_powers": True}, 1)],
                         ids=["nodes-fit", "dense-fit", "dump"])
def test_solve_builds_the_table_only_for_the_powers_dump(tmp_path, monkeypatch, over, tables):
    calls = []
    real = formal_powers._power_tables

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(formal_powers, "_power_tables", counting)
    assert cli.run_solve(small_rings_config(interior=True, **over), tmp_path) == 0
    assert len(calls) == tables
