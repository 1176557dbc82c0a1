"""Time the three first-triangle scans inside the finder's own trials.

For each input family in FAMILIES, each n in SIZES and each seed in
SEEDS, runs REPEATS trials. A trial generates the input afresh (so no
cached edge list carries over), then calls ``find_triangle`` with
``triwalk.pipeline.search_cover_triangles`` and
``_first_surviving_triangle_edge`` wrapped, and, on another fresh copy,
``naive_triples_baseline`` with ``triwalk.pipeline.brute_force_triangle``
wrapped. Per input the fastest repeat counts, for the ``find_triangle``
call and for each scan's summed call time. Prints one JSON object per
(family, n): the median milliseconds over seeds, each scan's call count
over the seeds, and a digest of every scan's result, so two versions can
be checked for identical results as well as compared for speed.

The families: ``bipartite`` is triangle-free, so every scan runs in full;
``er`` is ``erdos_renyi(n, 0.5)``, whose first cover vertex closes a
triangle; ``isolated`` is the bipartite base with one triangle whose
vertices avoid the finder's cover and have no other edge, built as the
benchmark's walk-positive workload builds it, so cover search misses and
the surviving-edge scan finds it.

    PYTHONPATH=src python bench/scans.py
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
from pathlib import Path

import triwalk as tw
from timing import timed_calls
from triwalk import pipeline

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import finder_cover, isolated_triangle, pick_isolated  # noqa: E402

SIZES = (448, 1024, 2048)
SEEDS = range(5)
REPEATS = 3

# Short name -> wrapped attribute of triwalk.pipeline. find_triangle calls
# the first two; naive_triples_baseline calls brute_force_triangle.
FINDER_SCANS = {"cover": "search_cover_triangles", "surviving": "_first_surviving_triangle_edge"}
SCANS = {**FINDER_SCANS, "brute": "brute_force_triangle"}


def _isolated(n: int, seed: int) -> tw.Graph:
    tri = pick_isolated(n, seed, finder_cover(n, seed), on_cover=False)
    return isolated_triangle(n, seed, tri)


FAMILIES = {
    "bipartite": tw.random_bipartite,
    "er": lambda n, seed: tw.erdos_renyi(n, 0.5, seed),
    "isolated": _isolated,
}


def _trial(family: str, n: int, seed: int) -> tuple[float, dict[str, list]]:
    """One trial: find_triangle ms, and (ms, result) per call of each scan."""
    make = FAMILIES[family]
    g = make(n, seed)
    trial_ms, calls = timed_calls(
        lambda: tw.find_triangle(g, tw.AlgoParams(seed=seed)), pipeline, FINDER_SCANS.values()
    )
    g = make(n, seed)
    _, brute = timed_calls(lambda: tw.naive_triples_baseline(g), pipeline, [SCANS["brute"]])
    calls.update(brute)
    return trial_ms, {short: calls[attr] for short, attr in SCANS.items()}


def measure(family: str, n: int) -> dict:
    trial_ms, scan_ms = [], {short: [] for short in SCANS}
    digest = hashlib.sha256()
    calls = dict.fromkeys(SCANS, 0)
    for seed in SEEDS:
        runs = [_trial(family, n, seed) for _ in range(REPEATS)]
        trial_ms.append(min(ms for ms, _ in runs))
        for short in SCANS:
            scan_ms[short].append(min(sum(ms for ms, _ in rec[short]) for _, rec in runs))
            digest.update(repr([result for _, result in runs[0][1][short]]).encode())
            calls[short] += len(runs[0][1][short])
    return {
        "family": family,
        "n": n,
        "trial_ms": round(statistics.median(trial_ms), 2),
        **{f"{short}_ms": round(statistics.median(ms), 2) for short, ms in scan_ms.items()},
        "calls": calls,
        "digest": digest.hexdigest()[:16],
    }


def main() -> None:
    print(json.dumps([measure(family, n) for family in FAMILIES for n in SIZES]))


if __name__ == "__main__":
    main()
