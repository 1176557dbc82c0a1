"""triwalk benchmark: one workload per call, every output checked.

    python3 perfbench/run.py --workload walk-negative --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a traced run. The
last line of output is one JSON object with the keys correct, attempted,
failed and metrics. The exit status is 0 when every trial passed its
checks, 1 when some trial failed, and 2 when the benchmark could not run.

Each workload is a closed loop with one client and one thread. Timed runs
start PROCESSES worker processes one after the other; each pays its own
set-up (interpreter, ``import triwalk``, one untimed warm-up trial) and
then runs its inputs in two passes for its share of the seconds. An
input's trial time is the faster of its two runs. Every time is scaled by
a reference kernel timed next to it (see worker.py), so it reads as ms on
a quiet host however fast the shared host runs at that moment. Reporting
the median set-up over the processes, and pooling their inputs, keeps one
slow start from setting the figure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROCESSES = 7
# trial_ms.p90 needs at least 10 inputs above it.
MIN_TRIALS = 100
# Exact counts are taken over this many leading trials of a traced run, so
# they repeat bit for bit on a fixed seed whatever the run's speed.
COUNT_TRIALS = 20
# A run stops starting trials SETUP_ALLOWANCE_S per process past --seconds,
# even short of MIN_TRIALS, so a much slower program still reads as a
# measured regression. A worker still running TRIAL_ALLOWANCE_S after that
# is killed and the run exits 2.
SETUP_ALLOWANCE_S = 8.0
TRIAL_ALLOWANCE_S = 30.0
WORKLOADS = ("walk-negative", "cover-positive", "walk-positive", "campaigns")


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed trial)."""


def _worker(args, start_index: int, seconds: float, min_trials: int, trace: bool, stop_at: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--profile", args.profile,
        "--start-index", str(start_index),
        "--seconds", repr(seconds),
        "--min-trials", str(min_trials),
        "--trace", str(int(trace)),
        "--count-trials", str(COUNT_TRIALS if trace else 0),
    ]
    if trace:
        cmd += ["--trace-out", str(ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.json")]
    timeout = max(1.0, stop_at + TRIAL_ALLOWANCE_S - time.monotonic())
    cmd += ["--stop-at", repr(stop_at), "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ran past {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _finite(values: list[float]) -> list[float]:
    return [v for v in values if math.isfinite(v)]


def timed(args, stop_at: float) -> tuple[dict, int, list[str]]:
    results = []
    index = 0
    per_process = args.seconds / PROCESSES
    min_each = math.ceil(MIN_TRIALS / PROCESSES)
    for _ in range(PROCESSES):
        res = _worker(args, index, per_process, min_each, False, stop_at)
        results.append(res)
        index = res["next_index"]
    times = _finite([t for r in results for t in r["trial_ms"]])
    wall = _finite([t for r in results for t in r["wall_ms"]])
    executions = sum(r["executions"] for r in results)
    attempted = executions + PROCESSES  # every process also ran one warm-up trial
    failures = [f for r in results for f in r["failures"]]
    if len(times) < 2:
        raise BenchError("fewer than two trials completed")
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "trial_ms.p50": (statistics.median(times), "ms"),
        "trial_ms.p90": (statistics.quantiles(times, n=10, method="inclusive")[-1], "ms"),
        "trials_per_s": (executions / sum(r["busy_s"] for r in results), "1/s"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in results) / 1024.0, "MiB"),
        "success_rate": ((attempted - len(failures)) / attempted, "ratio"),
    }
    print(
        f"# {args.workload}: {len(times)} inputs, {executions} timed trials in {PROCESSES} processes, "
        f"{sum(r['timed_s'] for r in results):.2f} s timed"
        + (f"; stopped short of {MIN_TRIALS} inputs" if index < MIN_TRIALS else "")
    )
    print(
        f"# unscaled wall time: p50 {statistics.median(wall):.4g} ms, "
        f"reference kernel {statistics.median(r['reference_ms'] for r in results):.4g} ms"
    )
    return metrics, attempted, failures


def traced(args, stop_at: float) -> tuple[dict, int, list[str]]:
    res = _worker(args, 0, float(args.seconds), COUNT_TRIALS, True, stop_at)
    trials = res["next_index"]
    counts = res["counts"]
    self_ms = res["self_ms"]
    failures = res["failures"]
    plain = _finite(res["trial_ms"])
    with_trace = _finite(res["traced_trial_ms"])
    if not plain or not with_trace:
        raise BenchError("no trial completed")
    metrics = {f"{name}.self_ms": (ms / trials, "ms") for name, ms in self_ms.items()}

    def mean(key: str) -> float:
        n = counts.get(f"{key}.n", 0)
        return counts.get(f"{key}.sum", 0) / n if n else 0.0

    universe = counts.get("pairs.uncovered_pairs.universe", 0)
    metrics["graph.edges"] = (mean("graph.edges"), "count")
    metrics["pairs.cover_size"] = (mean("pairs.cover_size"), "count")
    metrics["pairs.uncovered_pairs.surviving_ratio"] = (
        counts.get("pairs.uncovered_pairs.selected", 0) / universe if universe else 0.0,
        "ratio",
    )
    for key in (
        "estimator.estimate_all_apexes.calls",
        "estimator.raw_probes",
        "estimator.empty_exits",
        "pipeline.exit.cover_search",
        "pipeline.exit.walk",
        "pipeline.exit.none",
    ):
        metrics[key] = (counts.get(key, 0), "count")
    metrics["trace.overhead_ratio"] = (
        statistics.median(with_trace) / statistics.median(plain),
        "ratio",
    )
    print(f"# {args.workload}: {trials} inputs run untraced and traced; counts over the first {COUNT_TRIALS}")
    return metrics, 2 * trials + 1, failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0, help="report digests are recorded for seed 0")
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", choices=("full", "tiny"), default="full", help="tiny: self-test sizes")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be non-negative")

    stop_at = time.monotonic() + args.seconds + SETUP_ALLOWANCE_S * (1 if args.trace else PROCESSES)
    try:
        metrics, attempted, failures = (traced if args.trace else timed)(args, stop_at)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
