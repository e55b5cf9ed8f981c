"""The benchmark's entry points into fpeit: which tracing hooks resolve, and the
fg_integral probe. A rename in fpeit that drops one more hook, or breaks the probe,
fails here rather than silently in a traced benchmark run."""

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import run, tracing  # noqa: E402

# hooks of perfbench/tracing.py whose targets fpeit no longer has; the benchmark
# keeps them until it is changed itself, and no other hook may join them
STALE_HOOKS = (
    "fpeit.boundary_solver.boundary_system",
    "fpeit.boundary_solver.build_sequence",
    "fpeit.boundary_solver.build_table",
    "fpeit.boundary_solver.raw_trace_matrix",
    "fpeit.formal_powers.fg_integral",
)


def test_only_the_stale_tracing_hooks_are_missing():
    missing, restore = tracing.Tracer().install()
    try:
        assert sorted(missing) == list(STALE_HOOKS)
    finally:
        restore()


def test_fg_integral_probe_runs():
    metrics = run.fg_integral_probe()
    assert set(metrics) == {"probe.fg_integral_ms", "probe.fg_integral_gb_computed",
                            "probe.fg_integral_gbps_computed"}
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())
