"""What the benchmark under perfbench/ needs from the library.

The traced bench run wraps the library functions listed in
``perfbench/tracer.py`` by attribute name, and every run checks its first
trials' report bytes against ``perfbench/digests.json``. Both contracts
are checked here at the bench's tiny size, so that renaming a traced
function or moving a report byte fails the test suite, not only a bench
run.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

TRIALS = 20
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())["tiny"]


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _, _ in tracer.TARGETS],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_traced_attribute_resolves(module, attr):
    assert callable(getattr(module, attr, None))


@pytest.mark.parametrize("name", sorted(workloads.PROFILES["tiny"]))
def test_tiny_trials_match_recorded_digests(name):
    runner = workloads.Runner(
        workloads.PROFILES["tiny"][name], workloads.DEFAULT_SEED, DIGESTS[name]
    )
    for index in range(TRIALS):
        runner.run(index)
    assert runner.failures == []
