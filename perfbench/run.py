"""fpeit benchmark: run one workload in a closed loop, check every result, print metrics.

    python3 perfbench/run.py --workload solve-dense --seed 1 --seconds 20 --trace 0

One process runs the workload's batch of operations back to back, each
starting when the previous one ends, in an order drawn from the seed, and
repeats whole batches until ``--seconds`` have passed. Every operation's
outputs are checked after the timed region. BLAS/OpenMP threads are capped
at the usable core count before numpy loads.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment and run details. With ``--trace 0`` the metrics are
the end-to-end ones of BENCHMARK.json. With ``--trace 1`` each operation
runs twice, untraced and with span tracing installed, and the run reports
the per-layer ones; the spans go to ``perfbench/_results``.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import os
import random
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
# the variables fpeit._entry sets for --threads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
# (metric, unit) of an untraced run, as BENCHMARK.json lists them
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_s_p50", "s"), ("peak_rss_mb", "MB"),
              ("success_ratio", "ratio"))
PROBE_REPEATS = 9


def cap_threads(environ) -> int:
    """Cap each BLAS/OpenMP thread variable at the usable core count; returns that count."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(environ.get(var, ""))
        except ValueError:
            current = 0
        environ[var] = str(current if 0 < current <= nproc else nproc)
    return nproc


@dataclass
class Record:
    """One operation run: where its outputs are, how long it took, why it failed."""

    op: object
    config: object
    out: Path
    traced: bool = False
    seconds: float = 0.0
    error: str | None = None


def run_op(rec: Record, sink: io.StringIO) -> Record:
    """Call fpeit.cli.run_<kind>, looked up at call time so installed wrappers are used."""
    import fpeit.cli

    t0 = perf_counter()
    try:
        with redirect_stdout(sink):
            code = getattr(fpeit.cli, f"run_{rec.op.kind}")(rec.config, rec.out)
        if code != 0:
            rec.error = f"exit code {code}"
    except Exception as exc:  # an operation failure is counted, not fatal
        rec.error = f"{type(exc).__name__}: {exc}"
    rec.seconds = perf_counter() - t0
    sink.seek(0)
    sink.truncate()
    return rec


def run_ops(pairs, work: Path, first: int, tracer=None) -> list[Record]:
    """Run (op, config) pairs back to back.

    With a tracer each operation runs twice, untraced and traced, and the
    two swap order from one operation to the next, so that drift in machine
    speed cancels out of the measured tracing overhead.
    """
    records = []
    sink = io.StringIO()
    for i, (op, config) in enumerate(pairs, start=first):
        modes = (False,) if tracer is None else ((False, True) if i % 2 else (True, False))
        for traced in modes:
            rec = Record(op, config, work / f"{i:04d}{'t' if traced else ''}-{op.kind}", traced)
            if not traced:
                records.append(run_op(rec, sink))
                continue
            tracer.begin_op(i, config)
            _, restore = tracer.install()
            try:
                records.append(run_op(rec, sink))
            finally:
                restore()
    return records


def run_batches(pairs, rng: random.Random, seconds: float, work: Path, tracer=None):
    """Whole shuffled batches until ``seconds`` have passed; returns records and loop wall time."""
    records: list[Record] = []
    t0 = perf_counter()
    while not records or perf_counter() - t0 < seconds:
        first = sum(not r.traced for r in records)
        records += run_ops(rng.sample(pairs, len(pairs)), work, first, tracer)
    return records, perf_counter() - t0


def median_throughput(records: list[Record]) -> float:
    """Passed operations per second of the batch, each operation at its median time.

    The batch's operations are grouped by label; the batch time is the sum
    of each label's median time in the run, so one slow outlier operation
    does not move the figure. The loop leaves no gaps between operations,
    so with no outliers this equals the operations run ÷ the loop's wall time.
    """
    by_label: dict[str, list[float]] = {}
    for rec in records:
        by_label.setdefault(rec.op.label, []).append(rec.seconds)
    batch_s = sum(statistics.median(times) for times in by_label.values())
    ok = sum(rec.error is None for rec in records)
    return ok / len(records) * len(by_label) / batch_s


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of the batch in fresh interpreters, SETUP_REPEATS times."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def fg_integral_probe() -> dict[str, float]:
    """fg_integral at P=1000, S=400: median time and computed (not measured) traffic."""
    from fpeit import presets, pseudoanalytic
    from perfbench import tracing

    mesh = pseudoanalytic.radial_mesh(1000, 400)
    field = presets.build_field(presets.config_from_dict({"preset": "sinusoidal"}))
    pair = pseudoanalytic.build_sequence(field, mesh).pair_for(0)
    W = pair.F.copy()
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        pseudoanalytic.fg_integral(W, pair, mesh)
        times.append(perf_counter() - t0)
    seconds = statistics.median(times)
    gb = tracing.fg_integral_bytes(W.size) / 1e9
    return {"probe.fg_integral_ms": seconds * 1e3, "probe.fg_integral_gb_computed": gb,
            "probe.fg_integral_gbps_computed": gb / seconds}


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(cap: int) -> dict:
    import platform

    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "thread_cap": cap,
            "thread_env": {v: os.environ[v] for v in THREAD_VARS}, "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _commit()}


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fpeit" / "cli.py").is_file():
        print(f"perfbench: no fpeit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cap = cap_threads(os.environ)
    sys.path.insert(0, str(ROOT / "src"))

    from perfbench import gate, tracing, workloads

    logging.getLogger("fpeit").setLevel(logging.ERROR)  # per-operation warnings are expected
    rng = random.Random(args.seed)
    ops = workloads.batch(args.workload, rng)
    pairs = list(zip(ops, workloads.prepare(ops)))
    reference = gate.load_reference(BENCH / "reference.json")
    work = BENCH / "_work" / str(os.getpid())
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "environment": environment(cap),
               "batch": [op.label for op in ops]}
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer is not None:
            details["hooks_missing"], restore = tracer.install()
            try:
                workloads.prepare(ops)  # traced set-up, counted in presets.config_s
            finally:
                restore()
        records, wall = run_batches(pairs, rng, args.seconds, work, tracer)
        rss = peak_rss_mb()
        for rec in records:
            if rec.error is None:
                try:
                    gate.check(rec.op, rec.config, rec.out, reference)
                except (gate.GateError, OSError, ValueError, KeyError) as exc:
                    rec.error = f"check: {type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [rec for rec in records if not rec.traced]
    times = [rec.seconds for rec in timed]
    ok = sum(rec.error is None for rec in timed)
    if tracer is not None:
        traced_s = sum(rec.seconds for rec in records if rec.traced)
        metrics = tracing.per_layer_metrics(tracer.spans, len(timed), sum(times), traced_s,
                                            fg_integral_probe())
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        details["setup_s_samples"] = setup_seconds(args.workload, args.seed)
        metrics = {"setup_s": statistics.median(details["setup_s_samples"]),
                   "ops_per_s": median_throughput(timed), "op_s_p50": statistics.median(times),
                   "peak_rss_mb": rss, "success_ratio": ok / len(timed)}
        units = dict(END_TO_END)
    details.update(loop_wall_s=wall, op_s_samples=len(times), operations=[
        {"label": r.op.label, "seconds": r.seconds, "traced": r.traced, "error": r.error}
        for r in records])

    failed = sum(rec.error is not None for rec in records)
    line = {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    results = BENCH / "_results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{stem}.json", "w") as fh:
        json.dump({**details, **line}, fh, indent=1)
    if tracer is not None:
        with open(results / f"spans-{stem}.jsonl", "w") as fh:
            for name, start, end, parent, op, info in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, **info}) + "\n")
    print(json.dumps({k: details[k] for k in ("workload", "seed", "environment", "op_s_samples")}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
