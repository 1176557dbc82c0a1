"""Self-test of the benchmark: workloads at tiny size, the digest gate, the tracer.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import steadiness  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from triwalk.graph import Graph, brute_force_triangle  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
IGNORE = shutil.ignore_patterns("__pycache__", ".pytest_cache")


def run_bench(root: Path, workload: str, seed: int, trace: int, seconds: float = 0.3):
    return subprocess.run(
        [
            sys.executable,
            str(root / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--profile", "tiny",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("on_cover", [False, True])
def test_isolated_triangle_is_the_only_triangle(seed, on_cover):
    n = 96
    cover = workloads.finder_cover(n, seed)
    tri = workloads.pick_isolated(n, seed, cover, on_cover)
    g = workloads.isolated_triangle(n, seed, tri)
    assert brute_force_triangle(g) == tri
    adj = g.bool_matrix.astype(np.int64)
    assert np.trace(adj @ adj @ adj) == 6  # one triangle, counted 3! times
    a, b, c = tri
    for v, others in ((a, {b, c}), (b, {a, c}), (c, {a, b})):
        assert set(g.neighbors(v).tolist()) == others
    for x, y in ((a, b), (a, c), (b, c)):
        dense = np.array(g.bool_matrix)
        dense[x, y] = dense[y, x] = False
        assert brute_force_triangle(Graph(dense)) is None
    assert bool(set(tri) & set(cover.tolist())) == on_cover


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, seed=0, trace=trace)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }


def test_exact_counts_repeat_on_a_fixed_seed():
    counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in ("count", "ratio")]
    counts.remove("trace.overhead_ratio")
    first, second = (
        result_of(run_bench(ROOT, "walk-positive", steadiness.COUNT_SEED, 1))["metrics"] for _ in range(2)
    )
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


@pytest.mark.parametrize("slowdown", [1.0, 2.0])
def test_timed_loop_keeps_each_inputs_faster_run_scaled_by_the_reference(slowdown):
    class SlowedReference(worker.Reference):
        def __init__(self):
            pass

        def ms(self):
            return worker.REFERENCE_QUIET_MS * slowdown

    class Runner:
        def __init__(self):
            self.seen = set()

        def run(self, index):
            first = index not in self.seen
            self.seen.add(index)
            return slowdown * (index + (100 if first else 1))

    args = SimpleNamespace(start_index=10, seconds=0.0, min_trials=5, stop_at=time.monotonic() + 60)
    out = worker._timed_loop(Runner(), args, SlowedReference())
    assert out["executions"] == 10 and out["next_index"] == 15
    assert out["trial_ms"] == [11.0, 12.0, 13.0, 14.0, 15.0]
    assert out["wall_ms"] == [slowdown * t for t in out["trial_ms"]]


def test_tampered_digest_fails_the_run(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=IGNORE)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=IGNORE)
    digests_path = tmp_path / "perfbench" / "digests.json"
    table = json.loads(digests_path.read_text())
    table["tiny"]["walk-negative"][5] = "0" * 16
    digests_path.write_text(json.dumps(table))
    proc = run_bench(tmp_path, "walk-negative", seed=0, trace=0)
    assert proc.returncode == 1
    result = result_of(proc)
    # Input 5 runs once in each of the worker's two passes; both runs fail.
    assert result["correct"] is False and result["failed"] == 2
    assert result["metrics"]["success_rate"]["value"] < 1.0
    assert "digest" in proc.stderr


def test_bare_benchmark_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=IGNORE)
    proc = run_bench(tmp_path, "walk-negative", seed=1, trace=0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_restores_every_wrapped_attribute():
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in tracer.TARGETS]
    t = tracer.Tracer()
    t.counting = True
    with t:
        assert all(getattr(m, a) is not f for m, a, f in originals)
        for w in workloads.PROFILES["tiny"].values():
            for index in range(5):
                trial = w.trial(index, *workloads.trial_seeds(0, index))
                assert w.check(trial, trial.call()) is None
    assert all(getattr(m, a) is f for m, a, f in originals)
    ran = {name for name, ms in t.self_ms().items() if ms > 0}
    assert ran == set(tracer.SPAN_NAMES)
    assert t.counts["estimator.estimate_all_apexes.calls"] > 0
