"""Check that the benchmark is steady enough for its own bounds.

    python3 perfbench/steadiness.py

Runs SETS sets, one after the other. In each set, every workload runs
once per seed 1..RUNS, and for each end-to-end metric the distance between
the first and third quartiles of its RUNS values, as a share of their
median, is printed next to the metric's bound. After the last set, each
metric's median in the last set is compared with the first set's. Then
the traced benchmark runs twice on COUNT_SEED and the exact counts must be
equal.

Exits 1 if a spread exceeds its bound, if a median got worse by more than
its bound, or if an exact count differs. A benchmark comparison applies
the same rules, except that it does not hold setup_s's spread to its
bound; this check does.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10
SETS = 2
COUNT_SEED = 3
EXACT = (
    "graph.edges",
    "pairs.cover_size",
    "estimator.estimate_all_apexes.calls",
    "estimator.raw_probes",
    "estimator.empty_exits",
    "pipeline.exit.cover_search",
    "pipeline.exit.walk",
    "pipeline.exit.none",
)


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(number: int, names: list[str]) -> tuple[dict, bool]:
    """Medians per (workload, metric) of one set, and whether every gated spread held."""
    medians = {}
    ok = True
    for name in names:
        runs = []
        for seed in range(1, RUNS + 1):
            runs.append(bench(name, seed, 0))
            print(json.dumps({"set": number, "workload": name, "seed": seed, **runs[-1]}), flush=True)
        for metric in BENCHMARK["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            medians[name, metric["name"]] = statistics.median(values)
            s = spread(values)
            verdict = "ok" if s <= metric["bound"] / 3 else "within bound" if s <= metric["bound"] else "OVER"
            ok = ok and verdict != "OVER"
            print(f"set {number} {name:15s} {metric['name']:13s} median {medians[name, metric['name']]:12.5g} "
                  f"spread {s:.4f} bound {metric['bound']} {verdict}", flush=True)
    return medians, ok


def main() -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    sets = []
    ok = True
    for number in range(1, SETS + 1):
        medians, held = run_set(number, names)
        sets.append(medians)
        ok = ok and held
    for (name, metric_name), first in sets[0].items():
        metric = next(m for m in BENCHMARK["end_to_end"] if m["name"] == metric_name)
        change = sets[-1][name, metric_name] / first - 1
        worse = change if metric["better"] == "lower" else -change
        verdict = "ok" if worse <= metric["bound"] else "WORSE"
        ok = ok and verdict == "ok"
        print(f"set {SETS} vs 1 {name:15s} {metric_name:13s} change {change:+.4f} bound {metric['bound']} {verdict}")
    for name in names:
        first, second = (bench(name, COUNT_SEED, 1)["metrics"] for _ in range(2))
        differ = [k for k in EXACT if first[k] != second[k]]
        print(f"{name:15s} exact counts on seed {COUNT_SEED}: "
              + ("identical" if not differ else f"DIFFER in {differ}"), flush=True)
        ok = ok and not differ
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
