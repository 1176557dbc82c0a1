"""What the benchmark under perfbench/ needs from the library.

The traced bench run wraps the library functions listed in
``perfbench/tracer.py`` by attribute name, and every run checks its first
trials' report bytes against ``perfbench/digests.json``. Both contracts
are checked here at the bench's tiny size, so that renaming a traced
function or moving a report byte fails the test suite, not only a bench
run.
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from triwalk import AlgoParams, find_triangle, pipeline, random_bipartite
from triwalk.pairs import sample_cover

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


@pytest.mark.parametrize("n", [64, 448, 768])
def test_hand_mirrored_finder_draws_are_the_finders(n, monkeypatch):
    """perfbench's finder_cover and bench/run.py's finder_block rebuild
    find_triangle's cover and block draws by hand. Each must draw what the
    finder draws, or a bench row would build its block, or place its
    triangle, by a stale copy of the finder's seed split."""
    monkeypatch.syspath_prepend(str(PERFBENCH.parent))
    bench_run = importlib.import_module("bench.run")
    drawn = []
    uncovered_pairs = pipeline.uncovered_pairs

    def recording(g, cover, block):
        drawn.append((cover, block))
        return uncovered_pairs(g, cover, block)

    monkeypatch.setattr(pipeline, "uncovered_pairs", recording)
    for seed in range(5):
        cover = workloads.finder_cover(n, seed)
        assert np.array_equal(cover, sample_cover(n, AlgoParams().k, rng=pipeline._substream(seed, 0)))
        drawn.clear()
        # Triangle-free, so search_blocks draws its block from the seed.
        find_triangle(random_bipartite(n, seed), AlgoParams(seed=seed))
        [(finder_cover, block)] = drawn
        assert np.array_equal(finder_cover, cover)
        assert np.array_equal(bench_run.finder_block(n, seed), block)
