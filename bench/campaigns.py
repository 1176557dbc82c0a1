"""Time the harness campaigns and their memory, one child process a row.

Rows: the five calls that perfbench's ``campaigns`` workload rotates
through, at the sizes of its PROFILE (trials 0-4 of a run seeded SEED, one
a campaign kind), then ``verify_subset_cap(128, 16, N, config="er-half",
seed=0)`` for each N in CAP_TRIALS. Each row runs in its own spawned child
process, which times REPEATS calls. A row holds the median milliseconds,
the child's peak RSS (``ru_maxrss``) before the first call and after the
last, and the digest of every distinct report, so two versions can be
checked for identical reports as well as compared for speed and memory.

    PYTHONPATH=src python bench/campaigns.py
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import triwalk as tw
from timing import in_child, peak_rss_mib

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import PROFILES, report_digest, trial_seeds  # noqa: E402

PROFILE = "full"
SEED = 0
CAP_TRIALS = (4000, 20_000, 100_000)
REPEATS = 5


def _campaign_call(row: dict):
    """(function name, call) of a row: a perfbench trial index, or a subset-cap trial count."""
    if "index" in row:
        index = row["index"]
        trial = PROFILES[row["profile"]]["campaigns"].trial(index, *trial_seeds(SEED, index))
        return trial.expect, trial.call
    call = lambda: tw.verify_subset_cap(128, 16, row["trials"], config="er-half", seed=0)
    return "verify_subset_cap", call


def _child(row: dict, repeats: int) -> dict:
    """In the child: time ``repeats`` calls of the row's campaign."""
    name, call = _campaign_call(row)
    before = peak_rss_mib()
    times, digests = [], set()
    for _ in range(repeats):
        t0 = time.perf_counter()
        report = call()
        times.append((time.perf_counter() - t0) * 1000.0)
        digests.add(report_digest(report))
    return {
        **row,
        "call": name,
        "ms": round(statistics.median(times), 2),
        "peak_rss_mib_before": before,
        "peak_rss_mib": peak_rss_mib(),
        "digests": sorted(digests),
    }


def main() -> None:
    rows = [{"profile": PROFILE, "index": index} for index in range(5)]
    rows += [{"trials": trials} for trials in CAP_TRIALS]
    print(json.dumps([in_child(_child, row, REPEATS) for row in rows]))


if __name__ == "__main__":
    main()
