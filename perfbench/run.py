#!/usr/bin/env python3
"""Benchmark runner for spinaltri: one workload per run, every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
The workloads are `hull-large`, `foldlift-mid` and `random-small` (see
README.md).  A run runs every op of the workload once and then keeps cycling
through them for about `--seconds`, in one process with one thread, and
checks every op's answer by exact equality.

With `--trace 0` it prints the end-to-end metrics, with every time scaled to
a reference speed of the machine by `speed.Sampler`; with `--trace 1` it
runs passes in which every op runs untraced and then traced, and prints the
per-layer metrics of `tracer.Tracer` plus the tracing overhead, in raw time.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
The exit status is 0 when every op returned its expected answer, 1 when one
did not, and 1 or 2 without a result when the library cannot be imported or
the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from speed import Sampler
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
# Set-up is timed in fresh processes, half before and half after the timed
# loop, so that one slow phase of the machine does not cover all of them.
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
TRACE_METRICS = ("trace.overhead_ratio", "trace.coverage_ratio")


def import_library() -> None:
    """Import spinaltri from this checkout's src/ and nowhere else."""
    package = SRC / "spinaltri"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a spinaltri checkout")
    sys.path.insert(0, str(SRC))
    import spinaltri

    if Path(spinaltri.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported spinaltri from {spinaltri.__file__}, not {package}")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument(
        "--workload", required=True, choices=("hull-large", "foldlift-mid", "random-small")
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-probe",
        metavar="DIR",
        help="only set up (import, generate and write inputs to DIR), then print "
        "the monotonic clock; used to time set-up in fresh processes",
    )
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def check(op) -> bool:
    """Run one op; an exception or a wrong answer is a failure, reported on
    stderr and never propagated."""
    try:
        got = op.fn()
    except Exception:
        print(f"op {op.name} raised:", file=sys.stderr)
        traceback.print_exc()
        return False
    if got != op.expected:
        print(f"op {op.name}: got {got!r}, expected {op.expected!r}", file=sys.stderr)
        return False
    return True


def run_op(op, sampler: Sampler | None = None) -> tuple[bool, float, float]:
    """Run one op; return whether it passed, its wall s and its CPU s, scaled
    to the reference speed when a sampler is given."""
    if sampler is not None:
        return sampler.measure(lambda: check(op))
    wall0, cpu0 = time.perf_counter(), time.process_time()
    ok = check(op)
    return ok, time.perf_counter() - wall0, time.process_time() - cpu0


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure_setup(workload: str, seed: int, workdir: Path, probes: int) -> list[float]:
    """Set-up time of fresh processes: interpreter start, `import spinaltri`,
    seeded input generation and input JSON written, up to the first op.
    Each probe samples the machine's speed itself (see `main`), and its time,
    less that spent sampling, is scaled to the reference speed."""
    times = []
    for _ in range(probes):
        probe_dir = Path(tempfile.mkdtemp(prefix="probe", dir=workdir))
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--setup-probe",
            str(probe_dir),
        ]
        start = time.monotonic()
        done = subprocess.run(
            cmd, capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S
        )
        end, spent, scale = map(float, done.stdout.split()[-3:])
        times.append((end - start - spent) * scale)
    return times


def machine_context() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def end_to_end(ops, args, workdir: Path) -> tuple[dict, int, int, list[str]]:
    """Run every op once, then keep cycling through the ops in pass order,
    starting only those whose median so far fits in the time left, until
    none fits."""
    setup = measure_setup(args.workload, args.seed, workdir, SETUP_PROBES // 2)
    sampler = Sampler()
    scales: list[float] = []
    wall: list[list[float]] = [[] for _ in ops]
    cpu: list[list[float]] = [[] for _ in ops]
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    ran = True
    while ran:
        ran = False
        gc.collect()
        for k, op in enumerate(ops):
            if attempted >= len(ops):
                left = deadline - time.perf_counter()
                if statistics.median(wall[k]) > left:
                    continue
            ok, w, c = run_op(op, sampler)
            scales.append(sampler.factor())
            wall[k].append(w)
            cpu[k].append(c)
            attempted += 1
            failed += not ok
            ran = True
    setup += measure_setup(args.workload, args.seed, workdir, SETUP_PROBES - len(setup))
    # Each op counts once, by its median over the run, so that neither a
    # transient slowdown of the machine nor the unequal number of runs per
    # op shifts the mix.
    op_wall = [statistics.median(ws) for ws in wall]
    pass_wall = sum(op_wall)
    values = {
        "wall_s": pass_wall,
        "cpu_s": sum(statistics.median(cs) for cs in cpu),
        "ops_per_s": (attempted - failed) / attempted * len(ops) / pass_wall,
        "op_p50_ms": 1000 * statistics.median(op_wall),
        "op_p90_ms": 1000 * percentile(op_wall, 90),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"ops run: {attempted} over {len(ops)} ops, "
        f"{min(map(len, wall))} to {max(map(len, wall))} runs each; "
        f"latency percentiles over the {len(ops)} per-op medians",
        f"setup probes: {len(setup)}; s: " + ", ".join(f"{t:.4f}" for t in setup),
        "scale to the reference speed, over ops: median "
        f"{statistics.median(scales):.3f}, range {min(scales):.3f} to {max(scales):.3f}",
        f"failed_ops: {failed}/{attempted} = {failed / attempted:g}",
    ]
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, attempted, failed, notes


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer(ops, args) -> tuple[dict, int, int, list[str]]:
    """Run whole passes in which every op runs twice in a row, untraced and
    then traced: one pass, and then more while the last one fits in the time
    left."""
    passes = []  # (untraced wall s, traced wall s, tracer) per pass
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    last = 0.0
    while not passes or time.perf_counter() + last < deadline:
        pass_start = time.perf_counter()
        gc.collect()
        tracer = Tracer()
        plain = traced = 0.0
        for op in ops:
            ok, w, _ = run_op(op)
            plain += w
            failed += not ok
            with tracer.installed():
                ok, w, _ = run_op(op)
            traced += w
            failed += not ok
            attempted += 2
        passes.append((plain, traced, tracer))
        last = time.perf_counter() - pass_start

    # Calls and counters repeat in every traced pass; the times come from the
    # pass of median traced wall time, so that they add up within it, and the
    # overhead compares it with the untraced runs of the same ops made just
    # before, in the same phase of the machine.
    tracers = [t for _, _, t in passes]
    counts = tracers[0].deterministic()
    plain_wall, traced_wall, tracer = sorted(passes, key=lambda p: p[1])[(len(passes) - 1) // 2]
    values: dict[str, float] = dict(counts)
    for label in Tracer.labels():
        values[f"{label}.self_s"] = tracer.self_s[label]
    values["trace.overhead_ratio"] = traced_wall / plain_wall
    values["trace.coverage_ratio"] = tracer.total_self_s() / traced_wall
    notes = [
        f"passes, each op untraced then traced: {len(passes)} of {len(ops)} ops",
        f"median traced pass: wall {traced_wall:.3f} s, sum of layer self_s "
        f"{tracer.total_self_s():.3f} s; untraced wall {plain_wall:.3f} s",
    ]
    if any(t.deterministic() != counts for t in tracers[1:]):
        notes.append("WARNING: calls or counters differ between traced passes")
    top = sorted(Tracer.labels(), key=lambda k: -values[f"{k}.self_s"])[:10]
    notes.append(
        "largest self time shares: "
        + ", ".join(f"{k} {values[f'{k}.self_s'] / traced_wall:.1%}" for k in top)
    )
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        sampler = Sampler()
        sampler.start()
    import_library()
    import workloads

    if args.setup_probe:
        workloads.build(args.workload, args.seed, Path(args.setup_probe))
        end, spent = time.monotonic(), sampler.spent_wall
        sampler.stop()
        print(end, spent, sampler.factor())
        return 0

    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as tmp:
        workdir = Path(tmp)
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            metrics, attempted, failed, notes = per_layer(ops, args)
        else:
            metrics, attempted, failed, notes = end_to_end(ops, args, workdir)

    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, trace {args.trace}")
    print("machine: " + json.dumps(machine_context()))
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
