"""Time the all-apex estimator inside the finder's own trials.

For each n in SIZES and each seed in SEEDS, runs one whole trial
(``random_bipartite(n, seed)``, triangle-free so every level runs, then
``find_triangle``) REPEATS times. During each trial,
``triwalk.pipeline.estimate_all_apexes`` is wrapped to time every call
and keep its (outputs, probes), so the estimator is timed on exactly the
inputs the finder hands it. Per input the fastest repeat counts, for the
trial and for the estimator's summed call time. Prints one JSON object
per n: the median milliseconds over seeds, the estimator call count, and
a digest of every call's (outputs, probes), so two versions can be
checked for identical results as well as compared for speed.

    PYTHONPATH=src python bench/estimator.py
"""

from __future__ import annotations

import hashlib
import json
import statistics

import triwalk as tw
from timing import timed_calls
from triwalk import pipeline

SIZES = (448, 768, 2048)
SEEDS = range(5)
REPEATS = 3


def _trial(n: int, seed: int) -> tuple[float, list]:
    """Run one trial; return its ms and (ms, (outputs, probes)) per estimator call."""
    trial_ms, calls = timed_calls(
        lambda: tw.find_triangle(tw.random_bipartite(n, seed), tw.AlgoParams(seed=seed)),
        pipeline,
        ["estimate_all_apexes"],
    )
    return trial_ms, calls["estimate_all_apexes"]


def measure(n: int) -> dict:
    est_ms, trial_ms = [], []
    digest = hashlib.sha256()
    calls = 0
    for seed in SEEDS:
        runs = [_trial(n, seed) for _ in range(REPEATS)]
        trial_ms.append(min(ms for ms, _ in runs))
        est_ms.append(min(sum(ms for ms, _ in rec) for _, rec in runs))
        for _, (outputs, probes) in runs[0][1]:
            digest.update(outputs.tobytes() + str(probes).encode())
        calls += len(runs[0][1])
    return {
        "n": n,
        "estimator_ms": round(statistics.median(est_ms), 2),
        "trial_ms": round(statistics.median(trial_ms), 2),
        "estimator_calls": calls,
        "digest": digest.hexdigest()[:16],
    }


def main() -> None:
    print(json.dumps([measure(n) for n in SIZES]))


if __name__ == "__main__":
    main()
