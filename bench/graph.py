"""Time the three graph generators against their random draw alone.

For each generator in GENERATORS, each n in SIZES and each seed in SEEDS,
runs REPEATS calls; per seed the fastest call counts. ``rng`` is
``rng.random((n, n))`` by itself, the draw that ``erdos_renyi`` consumes
(``random_bipartite`` and ``planted_instance`` draw a quarter of it).
After the timed calls, one more call per input runs under tracemalloc
for the most memory it held at once. Prints one JSON object per
(generator, n): the median milliseconds over seeds, the median peak MiB,
and for the generators a digest of every graph's packed rows, so two
versions can be checked for bit-identical graphs as well as compared for
speed.

    PYTHONPATH=src python bench/graph.py
"""

from __future__ import annotations

import hashlib
import json
import statistics
import tracemalloc

import numpy as np

import triwalk as tw
from timing import timed_calls
from triwalk import graph

SIZES = (448, 768, 1024, 2048, 4096)
SEEDS = range(3)
REPEATS = 3

GENERATORS = {
    "rng": lambda n, seed: np.random.default_rng([seed, graph._TAG_ER]).random((n, n)),
    "er": lambda n, seed: tw.erdos_renyi(n, 0.5, seed),
    "bipartite": tw.random_bipartite,
    "planted": tw.planted_instance,
}


def _peak_mib(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def measure(name: str, n: int) -> dict:
    make = GENERATORS[name]
    ms, peak = [], []
    digest = hashlib.sha256()
    for seed in SEEDS:
        ms.append(min(timed_calls(lambda: make(n, seed), graph, ())[0] for _ in range(REPEATS)))
        peak.append(_peak_mib(lambda: make(n, seed)))
        if name != "rng":
            digest.update(make(n, seed)._rows.tobytes())
    return {
        "generator": name,
        "n": n,
        "ms": round(statistics.median(ms), 2),
        "peak_mib": round(statistics.median(peak), 2),
        "digest": None if name == "rng" else digest.hexdigest()[:16],
    }


def main() -> None:
    print(json.dumps([measure(name, n) for n in SIZES for name in GENERATORS]))


if __name__ == "__main__":
    main()
