"""Tests of the benchmark's own code: span arithmetic, statistics, gate, workloads.

    python3 -m pytest perfbench/tests
"""

import json
import random
import sys
import types
from pathlib import Path

import pytest

from perfbench import gate, run, stats, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]


def span(name, start, end, parent=None, op=0, info=None):
    return [name, start, end, parent, op, info or {}]


def test_self_times_subtract_direct_children_only():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 4.0, 0), span("c", 5.0, 9.0, 0),
             span("d", 6.0, 7.0, 2)]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    assert sum(tracing.self_times(spans)) == 10.0


def test_layer_totals_count_nested_same_name_once():
    spans = [span("conductivity.evaluate", 0.0, 4.0, info={"points": 10}),
             span("conductivity.evaluate", 1.0, 3.0, 0),
             span("conductivity.evaluate", 5.0, 6.0, info={"points": 5})]
    t = tracing.layer_totals(spans)["conductivity.evaluate"]
    assert t["calls"] == 2 and t["points"] == 15
    assert t["total_s"] == 5.0 and t["self_s"] == 5.0


def test_tracer_records_parents_and_restores(monkeypatch):
    mod = types.ModuleType("fake_layer")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    originals = (mod.inner, mod.outer)
    tracer = tracing.Tracer()
    missing, restore = tracer.install((("fake_layer", "outer", "m.outer", None),
                                       ("fake_layer", "inner", "m.inner",
                                        lambda args, result: {"seen": args["x"]}),
                                       ("fake_layer", "gone", "m.gone", None)))
    tracer.op = 3
    assert mod.outer(1) == 4
    restore()
    assert missing == ["fake_layer.gone"]
    assert (mod.inner, mod.outer) == originals
    (outer, inner) = tracer.spans
    assert outer[0] == "m.outer" and outer[3] is None
    assert inner[0] == "m.inner" and inner[3] == 0 and inner[4] == 3 and inner[5] == {"seen": 1}
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    names = {n for n, _, _ in tracing.PER_LAYER}
    values = tracing.per_layer_metrics([span("cli.run_solve", 0.0, 2.0)], 1, 1.5, 2.0, {
        "probe.fg_integral_ms": 1.0, "probe.fg_integral_gb_computed": 1.0,
        "probe.fg_integral_gbps_computed": 1.0})
    assert set(values) == names
    assert values["cli.write.self_s"] == 2.0 and values["trace.overhead_s"] == 0.5


def test_quartiles_and_spread():
    values = [5, 1, 9, 3, 7, 2, 8, 4, 6]
    assert stats.quartiles(values) == (2.5, 5, 7.5)
    assert stats.spread(values) == 1.0
    assert stats.quartiles([1.0, 2.0, 3.0, 4.0])[1] == 2.5


def test_median_throughput_discounts_an_outlier_and_counts_failures():
    def rec(label, seconds, error=None):
        return run.Record(workloads.Op("solve", label, {}), None, Path("."), seconds=seconds,
                          error=error)

    steady = [rec("a", 1.0), rec("b", 3.0), rec("a", 1.0), rec("b", 3.0)]
    assert run.median_throughput(steady) == 0.5  # 4 operations in 8 s
    assert run.median_throughput(steady + [rec("a", 1.0), rec("b", 30.0), rec("b", 3.0)]) == 0.5
    assert run.median_throughput([rec("a", 1.0), rec("a", 1.0, error="x")]) == 0.5


REF = {"error": 2.407285809413686e-04, "basis_size": 35, "dropped": []}


def test_gate_accepts_rounding_and_rejects_perturbed_e():
    gate.compare_with_reference(dict(REF, error=REF["error"] * (1 + 1e-12)), REF)
    with pytest.raises(gate.GateError, match="E ="):
        gate.compare_with_reference(dict(REF, error=REF["error"] * (1 + 1e-6)), REF)
    with pytest.raises(gate.GateError, match="dropped"):
        gate.compare_with_reference(dict(REF, dropped=[34]), REF)


def test_gate_invariants_reject_large_e_and_partial_basis():
    from fpeit.presets import config_from_dict

    config = config_from_dict(workloads.disk_scene(random.Random(0)))
    good = {"error": 1e-2, "basis_size": 35, "dropped": []}
    gate.check_invariants(good, config)
    with pytest.raises(gate.GateError, match="data norm"):
        gate.check_invariants(dict(good, error=1e3), config)
    with pytest.raises(gate.GateError, match="basis"):
        gate.check_invariants(dict(good, basis_size=34, dropped=[20]), config)


def test_gate_rejects_truncated_or_altered_powers_dump(tmp_path):
    from fpeit.formal_powers import write_powers_csv
    from fpeit.presets import config_from_dict

    config = config_from_dict({"preset": "constant", "N": 2, "P": 5, "S": 50})
    table = gate.expected_table(config)
    path = tmp_path / "powers.csv"
    write_powers_csv(table, path)
    gate.check_powers_csv(path, table)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    with pytest.raises(gate.GateError, match="rows"):
        gate.check_powers_csv(path, table)
    lines[7] = "9" + lines[7]  # the degree column of one row
    path.write_text("".join(lines))
    with pytest.raises(gate.GateError, match="differs"):
        gate.check_powers_csv(path, table)


def test_batches_are_seeded_and_keep_problem_size():
    from fpeit.presets import config_from_dict

    for name in workloads.WORKLOADS:
        a = workloads.batch(name, random.Random(7))
        assert a == workloads.batch(name, random.Random(7))
        assert a != workloads.batch(name, random.Random(8))
        assert len({op.label for op in a}) == len(a)
        for op in a:
            if op.generated:
                config = config_from_dict(op.doc)
                assert (config.N, config.P, config.S, config.Q) == (17, 35, 400, 1000)


def test_cap_threads_uses_entry_variables():
    from fpeit import _entry

    assert run.THREAD_VARS == _entry._THREAD_VARS
    env = {"OMP_NUM_THREADS": "100000", "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "x"}
    nproc = run.cap_threads(env)
    assert env == {"OMP_NUM_THREADS": str(nproc), "OPENBLAS_NUM_THREADS": str(nproc),
                   "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": str(nproc)}
