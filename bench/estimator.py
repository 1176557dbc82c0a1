"""Time the all-apex estimator inside the finder's own trials.

For each n in SIZES and each seed in SEEDS, runs one whole trial
(``random_bipartite(n, seed)``, triangle-free so every level runs, then
``find_triangle``) REPEATS times. During each trial,
``triwalk.pipeline.estimate_all_apexes`` is wrapped to time every call
and keep its (outputs, probes), so the estimator is timed on exactly the
inputs the finder hands it. Its call time includes the plan's draws,
which the plan takes on first read inside the call. Per input the
fastest repeat counts, for the trial and for the estimator's summed call
time. Prints one JSON object per n: the median milliseconds over seeds,
the estimator call count, and a digest of every call's (outputs,
probes), so two versions can be checked for identical results as well as
compared for speed.

    PYTHONPATH=src python bench/estimator.py

``--closed`` instead times the estimator where nearly every surviving
pair has a common neighbour, the case the closed-pair pass cannot skip:
one ``verify_estimator_bounds`` trial per seed on each (family, n) in
CLOSED, with ``harness.estimate_all_apexes`` wrapped the same way. The
finder never reaches the estimator on these families; its cover search
finds a triangle first.

    PYTHONPATH=src python bench/estimator.py --closed
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys

import triwalk as tw
from timing import timed_calls
from triwalk import harness, pipeline

SIZES = (448, 768, 2048)
CLOSED = (("er:0.05", 2048), ("er:0.1", 512))
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


def _closed_trial(family: str, n: int, seed: int) -> tuple[float, list]:
    """One verify_estimator_bounds trial, timed like _trial."""
    params = tw.AlgoParams()
    trial_ms, calls = timed_calls(
        lambda: harness.verify_estimator_bounds(n, params.a, params.k, 1, family, seed),
        harness,
        ["estimate_all_apexes"],
    )
    return trial_ms, calls["estimate_all_apexes"]


def measure(n: int, family=None) -> dict:
    est_ms, trial_ms = [], []
    digest = hashlib.sha256()
    calls = 0
    for seed in SEEDS:
        if family is None:
            runs = [_trial(n, seed) for _ in range(REPEATS)]
        else:
            runs = [_closed_trial(family, n, seed) for _ in range(REPEATS)]
        trial_ms.append(min(ms for ms, _ in runs))
        est_ms.append(min(sum(ms for ms, _ in rec) for _, rec in runs))
        for _, (outputs, probes) in runs[0][1]:
            digest.update(outputs.tobytes() + str(probes).encode())
        calls += len(runs[0][1])
    return {
        **({} if family is None else {"family": family}),
        "n": n,
        "estimator_ms": round(statistics.median(est_ms), 2),
        "trial_ms": round(statistics.median(trial_ms), 2),
        "estimator_calls": calls,
        "digest": digest.hexdigest()[:16],
    }


def main(argv=()) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--closed", action="store_true")
    if parser.parse_args(argv).closed:
        print(json.dumps([measure(n, family) for family, n in CLOSED]))
    else:
        print(json.dumps([measure(n) for n in SIZES]))


if __name__ == "__main__":
    main(sys.argv[1:])
