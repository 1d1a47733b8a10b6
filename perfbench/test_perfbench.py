"""Checks of the benchmark itself: tracing, failure accounting, determinism.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run

run.import_library()

import spinaltri  # noqa: E402
import spinaltri.lp  # noqa: E402
import spinaltri.polytope  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


def _ops(name: str, seed: int, tmp_path: Path):
    workdir = Path(tempfile.mkdtemp(dir=tmp_path))
    return workloads.build(name, seed, workdir), workdir


def test_traced_square_counts_one_lp_per_vertex():
    originals = {
        "lp": spinaltri.lp.lp_feasible,
        "make_polytope": spinaltri.make_polytope,
        "facets": spinaltri.polytope.Polytope.__dict__["facets"],
    }
    tracer = Tracer()
    with tracer.installed():
        # Bound by `from .lp import lp_feasible` in polytope: patched there too.
        assert spinaltri.polytope.lp_feasible.__wrapped__ is originals["lp"]
        assert spinaltri.make_polytope.__wrapped__ is originals["make_polytope"]
        spinaltri.make_polytope(SQUARE)
    assert tracer.calls["lp.lp_feasible"] == 4
    assert tracer.calls["polytope.make_polytope"] == 1
    assert tracer.counts["lp.rows"] == 4 * (3 + 1 + 2)  # 3 weights >= 0, sum, 2 coords
    assert spinaltri.polytope.lp_feasible is spinaltri.lp.lp_feasible
    assert spinaltri.lp.lp_feasible is originals["lp"]
    assert spinaltri.make_polytope is originals["make_polytope"]
    assert spinaltri.polytope.Polytope.__dict__["facets"] is originals["facets"]


def test_every_binding_site_of_a_traced_function_is_wrapped():
    targets = {}
    for mod_name, fns in LAYERS.items():
        module = sys.modules[f"spinaltri.{mod_name}"]
        for fn in fns:
            if hasattr(module, fn):
                targets[id(getattr(module, fn))] = getattr(module, fn)
    with Tracer().installed():
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "spinaltri":
                continue
            for attr, value in vars(module).items():
                assert id(value) not in targets or targets[id(value)] is not value, (
                    f"{name}.{attr} was not wrapped"
                )


def test_self_time_excludes_nested_spans():
    tracer = Tracer()
    with tracer.installed():
        p = spinaltri.make_polytope(SQUARE)
        spinaltri.pulling_triangulation(p)
    assert tracer.calls["polytope.facets"] >= 1
    assert all(v >= 0 for v in tracer.self_s.values())
    layers = tracer.per_layer()
    assert layers["triangulation.pulling_triangulation.cells"] == 2
    assert layers["polytope.facets.distinct_ratio"] <= 1


def test_sampler_scales_by_the_kernel_and_stops_its_timer():
    from fractions import Fraction

    assert speed.kernel() == speed.kernel() != 0
    assert isinstance(speed.kernel(), Fraction)
    sampler = speed.Sampler()
    # Long enough for the interval timer to fire inside the call.
    result, wall, cpu = sampler.measure(lambda: [speed.kernel() for _ in range(300)][-1])
    assert result == speed.kernel()
    assert len(sampler.samples) >= 3
    assert wall > 0 and cpu > 0
    mean = sum(speed.REFERENCE_S / t for t in sampler.samples) / len(sampler.samples)
    assert math.isclose(sampler.factor(), mean, rel_tol=1e-12)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_scaled_time_leaves_out_the_time_spent_sampling():
    sampler = speed.Sampler()
    start = time.perf_counter()
    _, wall, _ = sampler.measure(lambda: [speed.kernel() for _ in range(300)])
    raw = time.perf_counter() - start
    assert sampler.spent_wall > 0
    assert wall / sampler.factor() + sampler.spent_wall <= raw
    # 300 kernels read as about 300 reference kernel times, whatever the
    # machine's speed; the margin allows for its phases changing mid-call.
    assert 0.4 < wall / (300 * speed.REFERENCE_S) < 2.5


def test_wrong_answer_and_exception_are_counted_not_raised(tmp_path):
    ops, _ = _ops("random-small", 3, tmp_path)
    ops = ops[:4]
    assert all(run.run_op(op)[0] for op in ops)

    def boom():
        raise RuntimeError("deliberate")

    broken = list(ops)
    broken[1] = workloads.Op(ops[1].name, ops[1].fn, ("not", "the", "answer"))
    assert [run.run_op(op)[0] for op in broken].count(False) == 1  # failed_ops = 1/4
    broken[2] = workloads.Op("boom", boom, None)
    assert [run.run_op(op)[0] for op in broken].count(False) == 2


def test_seed_fixes_inputs_and_changes_only_seeded_workloads(tmp_path):
    def inputs(name, seed):
        _, workdir = _ops(name, seed, tmp_path)
        return json.loads((workdir / "inputs.json").read_text())

    for name in workloads.WORKLOADS:
        assert inputs(name, 11) == inputs(name, 11)
    assert inputs("hull-large", 11) == inputs("hull-large", 12)
    a, b = inputs("random-small", 11), inputs("random-small", 12)
    assert a["instances"] != b["instances"]
    a, b = inputs("foldlift-mid", 11), inputs("foldlift-mid", 12)
    assert a["instances"] == b["instances"]
    assert a["star_orders"] != b["star_orders"]


def test_traced_counts_repeat_exactly(tmp_path):
    results = []
    for _ in range(2):
        ops, _ = _ops("random-small", 5, tmp_path)
        tracer = Tracer()
        with tracer.installed():
            assert all(run.run_op(op)[0] for op in ops[:10])
        results.append(tracer.deterministic())
    assert results[0] == results[1]
    assert results[0]["triangulation.validate_detailed.reject_ratio"] > 0


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = list(Tracer().per_layer()) + list(run.TRACE_METRICS)
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
