"""Tests of the benchmark's own code: statistics, tracing, checks, and a
tiny configuration of every workload."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import bench
from spans import Tracer, tracing_overhead

ROOT = Path(__file__).resolve().parents[1]

TINY = (
    bench.Sweep("tiny_lasso", "lasso", cells=((2, 6, 24), (2, 4, 30)), trials=2, n1=32),
    bench.Sweep("tiny_bpdn", "bpdn", cells=((2, 6, 24), (2, 4, 30)), trials=2, n1=32),
    bench.Image("tiny_demo", matrix_free=False, q=12, m=60, iterations=5),
    bench.Image("tiny_matfree", matrix_free=True, q=12, m=60, iterations=5),
)


@pytest.fixture(scope="module")
def mcfli():
    return bench.import_mcfli()


def test_declared_metrics_and_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(bench.workloads())


@pytest.mark.parametrize(
    "n, expected", [(19, None), (20, 50.0), (99, 75.0), (100, 90.0), (120, 90.0),
                    (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert bench.tail_percentile(n) == expected
    if expected is not None:
        assert bench.beyond(n, expected) >= 10


def test_harrell_davis_percentile():
    samples = list(range(100, 0, -1))  # 1..100, unordered
    assert bench.percentile(samples, 50) == pytest.approx(50.5)  # symmetric
    assert 89.5 < bench.percentile(samples, 90) < 91.5
    assert bench.percentile([7.0], 90) == 7.0
    assert bench.percentile([3.0, 3.0, 3.0], 50) == pytest.approx(3.0)
    # a sample moving past its neighbour in a sparse tail moves the estimate
    # by a fraction of the gap, where the sample at one rank would jump
    tail = [1.0] * 90 + [float(v) for v in range(5, 15)]
    moved = [10.5 if v == 9.0 else v for v in tail]
    assert abs(bench.percentile(moved, 90) - bench.percentile(tail, 90)) < 0.5


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_child_spans():
    tracer = Tracer(clock=_fake_clock([0.0, 1.0, 4.0, 5.0, 9.0, 10.0]))
    inner = tracer.wrap("inner", lambda: None)

    def outer():
        inner()
        inner()

    tracer.wrap("outer", outer)()
    assert tracer.n("outer") == 1 and tracer.n("inner") == 2
    assert tracer.total("outer") == 10.0
    assert tracer.own("outer") == 3.0  # 10 minus the children's 3 + 4
    assert tracer.own("inner") == tracer.total("inner") == 7.0
    assert tracer.child("outer", "inner") == 7.0
    assert sum(tracer.self_time.values()) == tracer.total("outer")


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=_fake_clock([0.0, 2.0]))

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    assert tracer.n("boom") == 1 and tracer.total("boom") == 2.0
    assert tracer._stack == []


def test_install_restores_the_originals():
    owner = SimpleNamespace(f=lambda x: x + 1)
    original = owner.f
    tracer = Tracer()
    with tracer.installed([(owner, "f", "f", None)]):
        assert owner.f is not original and owner.f(1) == 2
    assert owner.f is original and tracer.n("f") == 1


def test_tracing_overhead_is_the_traced_minus_untraced_time():
    extra, share = tracing_overhead([1.0, 2.0], [1.5, 2.5])
    assert extra == pytest.approx(1.0)
    assert share == pytest.approx(1.0 / 3.0)


def _record(op, snr, success, wall=0.01):
    return {"op": op, "wall": wall, "error": None, "snr_db": snr,
            "success": success, "iterations": 10}


def test_sweep_cell_departing_from_reference_fails_its_trials():
    stub = SimpleNamespace(harness=SimpleNamespace(DEFAULT_THRESHOLD_DB=40.0))
    wl = bench.Sweep("s", "lasso", cells=((1, 6, 24), (2, 4, 30)), trials=2,
                     reference={"1,6,24": 2, "2,4,30": 1})
    passes = [{"wall": 0.04, "records": [
        _record((1, 6, 24, 0), 300.0, True), _record((1, 6, 24, 1), 300.0, True),
        _record((2, 4, 30, 0), 10.0, False), _record((2, 4, 30, 1), 12.0, False),
    ]}]
    problems = bench.check(wl, stub, passes)
    assert [r["failed"] for r in passes[0]["records"]] == [False, False, True, True]
    assert problems == ["cell (2, 4, 30): 0 successes, reference 1"]


def test_raising_nonfinite_and_irreproducible_operations_fail():
    stub = SimpleNamespace(harness=SimpleNamespace(DEFAULT_THRESHOLD_DB=40.0))
    wl = bench.Sweep("s", "lasso", cells=((1, 6, 24),), trials=3)
    raised = {"op": (1, 6, 24, 2), "wall": 0.01, "error": "ValueError: x"}
    passes = [
        {"wall": 0.03, "records": [_record((1, 6, 24, 0), 50.0, True),
                                   _record((1, 6, 24, 1), float("nan"), False), raised]},
        {"wall": 0.01, "records": [_record((1, 6, 24, 0), 51.0, True)]},
    ]
    bench.check(wl, stub, passes)
    assert [r["failed"] for p in passes for r in p["records"]] == [False, True, True, True]


def test_image_at_reference_seed_must_match_stored_snr():
    wl = bench.Image("i", matrix_free=True, reference_snr=16.80)
    passes = [{"wall": 1.0, "records": [_record(100, 16.90, True)]},
              {"wall": 1.0, "records": [_record(101, 16.90, True)]}]
    problems = bench.check(wl, None, passes)
    assert [p["records"][0]["failed"] for p in passes] == [True, False]
    assert len(problems) == 1


@pytest.mark.parametrize("wl", TINY, ids=[w.name for w in TINY])
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_tiny_workload_runs_and_reports_every_metric(mcfli, wl, trace):
    result = bench.run(wl, seed=3, seconds=0.0, trace=trace, mcfli=mcfli, setup_repeats=1)
    assert result["correct"], result["problems"]
    assert result["attempted"] == (2 if trace else 1) * len(wl.pass_ops(3, 0))
    line = json.loads(bench.summary_line(result, trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    names = [n for n, _ in (bench.PER_LAYER if trace else bench.END_TO_END)]
    assert list(line["metrics"]) == names
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    if not trace:
        timings = ("setup_s", "trials_per_s", "trial_p50_ms", "trial_p90_ms", "solve_s")
        assert all(line["metrics"][n]["value"] > 0 for n in timings)
        return
    layers = result["per_layer"]
    assert layers["trace.accounted_share"] == pytest.approx(1.0, abs=0.02)
    matrix_free = isinstance(wl, bench.Image) and wl.matrix_free
    assert (layers["sensing.as_matrix.calls"] == 0) == matrix_free
    assert (layers["sensing.srop_adjoint_s"] > 0) == matrix_free
    if isinstance(wl, bench.Sweep):
        other = "bpdn" if wl.solver == "lasso" else "lasso"
        assert layers[f"solvers.{wl.solver}.iterations"] > 0
        assert layers[f"solvers.{other}.iterations"] == 0
        assert layers["solvers.operator_norm.calls"] == result["attempted"] // 2
    else:
        assert layers["solvers.tv.iterations"] == wl.iterations


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_sweep_lasso",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
