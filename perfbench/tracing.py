"""Span tracing of fpeit's public functions for the traced benchmark run.

Each wrapper is installed at the attribute its caller looks the function up
through (``formal_power_fields`` calls ``fpeit.formal_powers.fg_integral``;
``solve_dirichlet`` calls ``fpeit.boundary_solver.orthonormalize``), so the
program's source is untouched and the untraced run carries no wrapper.
Spans are kept in memory as ``[name, start, end, parent, op, info]`` and
summarised into per-operation layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from pathlib import Path
from time import perf_counter

MODULES = ("cli", "presets", "conductivity", "pseudoanalytic", "formal_powers",
           "boundary_solver", "verification")
RUN_SPANS = ("cli.run_solve", "cli.run_verify", "cli.run_powers")

# Computed bytes moved by one fg_integral call, counted in passes over a
# (P, S+1) complex array: the two adjoint products 4; the two integrands
# G*W and F*W 6; two cumulative_path_integral calls of 18 each (4-point
# stencil gather 8, einsum 5, zero fill 1, cumsum 2, span scaling 2); the
# final F*Re(I_G) + G*Re(I_F) 9. Cache misses and reuse are not modelled.
FG_INTEGRAL_PASSES = 55


def fg_integral_bytes(points: int) -> int:
    return FG_INTEGRAL_PASSES * 16 * points


def _table_span(tracer, args):
    # the table built on the Q rays of the current operation is the dense rebuild
    dense = args["mesh"].ray_count == tracer.dense_rays
    return "formal_powers.build_table_q" if dense else "formal_powers.build_table_p"


def _points(args, result):
    return {"points": getattr(args["x"], "size", 1)}


def _fg_bytes(args, result):
    return {"bytes": fg_integral_bytes(args["W"].size)}


def _table_bytes(args, result):
    return {"table_bytes": result.Z1.nbytes + result.Zi.nbytes}


def _powers_dump(args, result):
    table = args["table"]
    return {"rows": 2 * table.Z1.size, "bytes": Path(args["path"]).stat().st_size}


def _dropped(args, result):
    return {"dropped": len(result.dropped)}


def _artifacts(args, result):
    return {"artifact_bytes": sum(p.stat().st_size for p in Path(args["out_dir"]).iterdir()
                                  if p.is_file())}


# (object the caller looks the name up on, attribute, span name or namer, measure)
HOOKS = (
    ("fpeit.cli", "run_solve", "cli.run_solve", _artifacts),
    ("fpeit.cli", "run_verify", "cli.run_verify", _artifacts),
    ("fpeit.cli", "run_powers", "cli.run_powers", _artifacts),
    ("fpeit.presets", "config_from_dict", "presets.config_from_dict", None),
    ("fpeit.presets", "build_field", "presets.build_field", None),
    ("fpeit.presets", "build_boundary_data", "presets.build_boundary_data", None),
    ("fpeit.cli", "build_field", "presets.build_field", None),
    ("fpeit.cli", "build_boundary_data", "presets.build_boundary_data", None),
    ("fpeit.cli", "corner_angles_for", "presets.corner_angles_for", None),
    ("fpeit.cli", "exact_case_for", "presets.exact_case_for", None),
    ("fpeit.conductivity:ConductivityField", "evaluate", "conductivity.evaluate", _points),
    ("fpeit.conductivity:AnalyticSeparable", "separable_parts", "conductivity.evaluate", _points),
    ("fpeit.conductivity:PiecewiseSeparable", "separable_parts", "conductivity.evaluate", _points),
    ("fpeit.cli", "radial_mesh", "pseudoanalytic.radial_mesh", None),
    ("fpeit.boundary_solver", "radial_mesh", "pseudoanalytic.radial_mesh", None),
    ("fpeit.cli", "build_sequence", "pseudoanalytic.build_sequence", None),
    ("fpeit.boundary_solver", "build_sequence", "pseudoanalytic.build_sequence", None),
    ("fpeit.formal_powers", "fg_integral", "pseudoanalytic.fg_integral", _fg_bytes),
    ("fpeit.cli", "successor_residual", "pseudoanalytic.derivatives", None),
    ("fpeit.cli", "successor_residual_mesh", "pseudoanalytic.derivatives", None),
    ("fpeit.pseudoanalytic", "characteristic_coefficients", "pseudoanalytic.derivatives", None),
    ("fpeit.cli", "build_table", _table_span, _table_bytes),
    ("fpeit.boundary_solver", "build_table", _table_span, _table_bytes),
    ("fpeit.cli", "pseudoanalyticity_check", "formal_powers.pseudoanalyticity_check", None),
    ("fpeit.cli", "write_powers_csv", "formal_powers.write_powers_csv", _powers_dump),
    ("fpeit.cli", "solve_dirichlet", "boundary_solver.solve_dirichlet", None),
    ("fpeit.cli", "reconstruct_interior", "boundary_solver.reconstruct_interior", None),
    ("fpeit.boundary_solver", "boundary_system", "boundary_solver.traces", None),
    ("fpeit.boundary_solver", "raw_trace_matrix", "boundary_solver.traces", None),
    ("fpeit.boundary_solver", "orthonormalize", "boundary_solver.orthonormalize", _dropped),
    ("fpeit.boundary_solver", "fit_coefficients", "boundary_solver.fit", None),
    ("fpeit.boundary_solver", "error_norm", "boundary_solver.error_norm", None),
    ("fpeit.cli", "divergence_residual", "verification.divergence_residual", None),
    ("fpeit.cli", "interior_points", "verification.interior_points", None),
)


class Tracer:
    """Records nested spans of wrapped calls, tagged with the current operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1            # -1 while setting up, else the operation index
        self.dense_rays = None  # Q of the current operation when it rebuilds densely
        self._stack: list[int] = []

    def begin_op(self, index: int, config) -> None:
        self.op = index
        self.dense_rays = config.Q if config.dense_error and config.Q != config.P else None

    def wrap(self, fn, name, measure=None):
        """``fn`` recording one span per call; ``name`` is a string or namer(tracer, args)."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if callable(name) or measure is not None:
                bound = signature.bind(*args, **kwargs).arguments
            span_name = name(self, bound) if callable(name) else name
            parent = self._stack[-1] if self._stack else None
            span = [span_name, 0.0, 0.0, parent, self.op, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if measure is not None and not _nested(self.spans, span):
                span[5] = measure(bound, result)
            return result

        return traced

    def install(self, hooks=HOOKS):
        """Install the wrappers; returns the list of missing hooks and a restore function."""
        originals, missing = [], []
        for target, attr, name, measure in hooks:
            module, _, cls = target.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
                fn = owner.__dict__.get(attr)
            else:
                fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(f"{target}.{attr}")
                continue
            originals.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, name, measure))

        def restore():
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

        return missing, restore


def _nested(spans, span) -> bool:
    """True when the span's parent has the same name (it is part of an outer call)."""
    parent = span[3]
    return parent is not None and spans[parent][0] == span[0]


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest strictly, so the children of a span
    never overlap and their durations add up to the part of it they cover.
    """
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_totals(spans) -> dict[str, dict]:
    """Per span name: summed self time, and calls, inclusive time and info of outermost calls."""
    totals: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, _, info = span
        t = totals.setdefault(name, {"self_s": 0.0, "calls": 0, "total_s": 0.0})
        t["self_s"] += own
        if not _nested(spans, span):
            t["calls"] += 1
            t["total_s"] += end - start
            for key, value in info.items():
                t[key] = t.get(key, 0) + value
    return totals


# (metric, unit, better) reported by a traced run, per operation unless the name says otherwise
PER_LAYER = (
    ("cli.write.self_s", "s", "lower"),
    ("cli.artifact_mb", "MB", "lower"),
    ("presets.config_s", "s", "lower"),
    ("conductivity.evaluate.calls", "count", "lower"),
    ("conductivity.evaluate.points", "count", "lower"),
    ("conductivity.evaluate.self_s", "s", "lower"),
    ("pseudoanalytic.radial_mesh.self_s", "s", "lower"),
    ("pseudoanalytic.build_sequence.self_s", "s", "lower"),
    ("pseudoanalytic.fg_integral.calls", "count", "lower"),
    ("pseudoanalytic.fg_integral.self_s", "s", "lower"),
    ("pseudoanalytic.fg_integral.gb_computed", "GB", "lower"),
    ("pseudoanalytic.derivatives.self_s", "s", "lower"),
    ("formal_powers.build_table_q.calls", "count", "lower"),
    ("formal_powers.build_table_q.self_s", "s", "lower"),
    ("formal_powers.build_table_q.total_s", "s", "lower"),
    ("formal_powers.build_table_q.share", "ratio", "lower"),
    ("formal_powers.table_mb_computed", "MB", "lower"),
    ("formal_powers.build_table_p.self_s", "s", "lower"),
    ("formal_powers.write_powers_csv.self_s", "s", "lower"),
    ("formal_powers.write_powers_csv.rows", "count", "lower"),
    ("formal_powers.write_powers_csv.mb", "MB", "lower"),
    ("formal_powers.write_powers_csv.share", "ratio", "lower"),
    ("formal_powers.pseudoanalyticity_check.self_s", "s", "lower"),
    ("boundary_solver.traces.self_s", "s", "lower"),
    ("boundary_solver.orthonormalize.self_s", "s", "lower"),
    ("boundary_solver.orthonormalize.dropped", "count", "lower"),
    ("boundary_solver.fit.self_s", "s", "lower"),
    ("boundary_solver.error_norm.self_s", "s", "lower"),
    ("boundary_solver.solve_dirichlet.self_s", "s", "lower"),
    ("boundary_solver.reconstruct_interior.self_s", "s", "lower"),
    ("verification.divergence_residual.self_s", "s", "lower"),
    *((f"layer.{m}.self_s", "s", "lower") for m in MODULES),
    *((f"layer.{m}.share", "ratio", "lower") for m in MODULES),
    ("trace.untraced_op_s", "s", "lower"),
    ("trace.traced_op_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.spans_per_op", "count", "lower"),
    ("probe.fg_integral_ms", "ms", "lower"),
    ("probe.fg_integral_gb_computed", "GB", "lower"),
    ("probe.fg_integral_gbps_computed", "GB/s", "higher"),
)


def per_layer_metrics(spans, n_ops: int, untraced_s: float, traced_s: float,
                      probe: dict[str, float]) -> dict[str, float]:
    """Per-operation layer metrics from the spans of ``n_ops`` traced operations.

    ``untraced_s`` and ``traced_s`` are the summed wall times of the same
    operations run without and with tracing. Set-up spans (op -1) count
    towards ``presets.config_s``.
    """
    totals = layer_totals(spans)

    def per_op(name, key="self_s"):
        return totals.get(name, {}).get(key, 0) / n_ops

    module_self = {m: sum(t["self_s"] for name, t in totals.items()
                          if name.split(".")[0] == m) for m in MODULES}
    all_self = sum(module_self.values())
    op_self = sum(own for span, own in zip(spans, self_times(spans)) if span[4] >= 0)
    values = {
        "cli.write.self_s": sum(per_op(n) for n in RUN_SPANS),
        "cli.artifact_mb": sum(per_op(n, "artifact_bytes") for n in RUN_SPANS) / 1e6,
        "presets.config_s": module_self["presets"] / n_ops,
        "conductivity.evaluate.calls": per_op("conductivity.evaluate", "calls"),
        "conductivity.evaluate.points": per_op("conductivity.evaluate", "points"),
        "pseudoanalytic.fg_integral.calls": per_op("pseudoanalytic.fg_integral", "calls"),
        "pseudoanalytic.fg_integral.gb_computed": per_op("pseudoanalytic.fg_integral", "bytes") / 1e9,
        "formal_powers.build_table_q.calls": per_op("formal_powers.build_table_q", "calls"),
        "formal_powers.build_table_q.total_s": per_op("formal_powers.build_table_q", "total_s"),
        "formal_powers.build_table_q.share":
            totals.get("formal_powers.build_table_q", {}).get("total_s", 0.0) / traced_s,
        "formal_powers.table_mb_computed": max(
            (s[5].get("table_bytes", 0) for s in spans), default=0) / 1e6,
        "formal_powers.write_powers_csv.rows": per_op("formal_powers.write_powers_csv", "rows"),
        "formal_powers.write_powers_csv.mb": per_op("formal_powers.write_powers_csv", "bytes") / 1e6,
        "formal_powers.write_powers_csv.share":
            totals.get("formal_powers.write_powers_csv", {}).get("self_s", 0.0) / traced_s,
        "boundary_solver.orthonormalize.dropped": per_op("boundary_solver.orthonormalize", "dropped"),
        "trace.untraced_op_s": untraced_s / n_ops,
        "trace.traced_op_s": traced_s / n_ops,
        "trace.overhead_s": (traced_s - untraced_s) / n_ops,
        "trace.self_sum_s": op_self / n_ops,
        "trace.spans_per_op": sum(1 for s in spans if s[4] >= 0) / n_ops,
        **probe,
    }
    for m in MODULES:
        values[f"layer.{m}.self_s"] = module_self[m] / n_ops
        values[f"layer.{m}.share"] = module_self[m] / all_self if all_self else 0.0
    for name, _, _ in PER_LAYER:
        if name not in values:  # the remaining metrics are self times of one span name
            values[name] = per_op(name.removesuffix(".self_s"))
    return values
