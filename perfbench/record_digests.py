"""Record the report digests that runs on the default seed are checked against.

    python3 perfbench/record_digests.py

Runs the first trials of every workload, in both profiles, on the default
seed, checks each one, and writes the first 16 hex digits of the sha256 of
each report's canonical JSON to digests.json. Run it only when a change is
meant to alter report bytes; any other change must leave the file as is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from worker import DIGESTS  # noqa: E402

# Enough trials to cover every trial a run can reach, with room for a
# program several times faster than today's.
TRIALS = {
    "full": {"walk-negative": 600, "cover-positive": 600, "walk-positive": 800, "campaigns": 2000},
    "tiny": {"walk-negative": 400, "cover-positive": 400, "walk-positive": 400, "campaigns": 400},
}


def record(profile: str, name: str, count: int) -> list[str]:
    workload = workloads.PROFILES[profile][name]
    out = []
    for index in range(count):
        trial = workload.trial(index, *workloads.trial_seeds(workloads.DEFAULT_SEED, index))
        report = trial.call()
        error = workload.check(trial, report)
        if error is not None:
            raise SystemExit(f"{profile}/{name} trial {index}: {error}")
        out.append(workloads.report_digest(report))
    return out


def main() -> None:
    table = {
        profile: {name: record(profile, name, count) for name, count in counts.items()}
        for profile, counts in TRIALS.items()
    }
    DIGESTS.write_text(json.dumps(table, indent=0) + "\n")


if __name__ == "__main__":
    main()
