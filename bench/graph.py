"""Time graph construction: the generators, the user-input paths, one large run.

Generators: for each generator in GENERATORS, each n in SIZES and each
seed in SEEDS, runs REPEATS calls; per seed the fastest call counts.
``rng`` is ``rng.random((n, n))`` by itself, the draw that ``erdos_renyi``
consumes (``random_bipartite`` and ``planted_instance`` draw a quarter of
it).

User input: for each n in USER_SIZES and each seed, builds
``random_bipartite(n, seed)`` once, hands it to each constructor in
USER_INPUTS in the form that constructor takes (its bool matrix, its
edge list as Python pairs, or a file written by ``write_edge_list`` or
``write_packed``) and times the call the same way.

After the timed calls, one more call per input runs under tracemalloc
for the most memory it held at once. Prints one JSON list with one object
per (generator, n) and per (constructor, n): the median milliseconds over
seeds, the median peak MiB, and (except for ``rng``) a digest of every
graph's packed rows, so two versions can be checked for bit-identical
graphs as well as compared for speed.

    PYTHONPATH=src python bench/graph.py

``--large N`` instead writes ``random_bipartite(N, 0)`` with
``write_packed`` once and, in each of REPEATS fresh child processes whose
address space is capped with ``resource.setrlimit`` to LARGE_LIMIT_GIB,
reads it back with ``read_packed`` and runs one ``find_triangle``. Prints
one JSON object: every child's timings and peak RSS (``ru_maxrss``), one
row a repeat, and their medians.

    PYTHONPATH=src python bench/graph.py --large 16384
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import triwalk as tw
from timing import in_child, peak_rss_mib, timed_calls
from triwalk import graph

SIZES = (448, 768, 1024, 2048, 4096)
USER_SIZES = (768, 2048, 4096)
SEEDS = range(3)
REPEATS = 3
# The address-space cap of --large's child process.
LARGE_LIMIT_GIB = 3

GENERATORS = {
    "rng": lambda n, seed: np.random.default_rng([seed, graph._TAG_ER]).random((n, n)),
    "er": lambda n, seed: tw.erdos_renyi(n, 0.5, seed),
    "bipartite": tw.random_bipartite,
    "planted": tw.planted_instance,
}

# Each constructor's call on the inputs that user_inputs prepares.
USER_INPUTS = {
    "Graph(dense)": lambda inp: tw.Graph(inp["dense"]),
    "from_edges": lambda inp: tw.Graph.from_edges(inp["n"], inp["edges"]),
    "read_edge_list": lambda inp: tw.read_edge_list(inp["txt"]),
    "read_packed": lambda inp: tw.read_packed(inp["bin"]),
}


def _peak_mib(call) -> tuple[float, object]:
    """The most MiB that call() held at once, under tracemalloc, and its result."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1] / 2**20, result
    finally:
        tracemalloc.stop()


def _best_ms(call) -> float:
    return min(timed_calls(call, graph, ())[0] for _ in range(REPEATS))


def _row(key: str, name: str, n: int, ms: list, peak: list, digest) -> dict:
    return {
        key: name,
        "n": n,
        "ms": round(statistics.median(ms), 2),
        "peak_mib": round(statistics.median(peak), 2),
        "digest": None if digest is None else digest.hexdigest()[:16],
    }


def measure(name: str, n: int) -> dict:
    make = GENERATORS[name]
    ms, peak = [], []
    digest = None if name == "rng" else hashlib.sha256()
    for seed in SEEDS:
        ms.append(_best_ms(lambda: make(n, seed)))
        mib, g = _peak_mib(lambda: make(n, seed))
        peak.append(mib)
        if digest is not None:
            digest.update(g._rows.tobytes())
    return _row("generator", name, n, ms, peak, digest)


def user_inputs(n: int, seed: int, tmp: Path) -> dict:
    """random_bipartite(n, seed) in the form each of USER_INPUTS takes."""
    g = tw.random_bipartite(n, seed)
    eu, ev = g.edges()
    tw.write_edge_list(g, tmp / "g.txt")
    tw.write_packed(g, tmp / "g.bin")
    return {
        "n": n,
        "dense": g.bool_matrix,
        "edges": list(zip(eu.tolist(), ev.tolist())),
        "txt": tmp / "g.txt",
        "bin": tmp / "g.bin",
    }


def measure_user(n: int) -> list[dict]:
    ms = {name: [] for name in USER_INPUTS}
    peak = {name: [] for name in USER_INPUTS}
    digest = {name: hashlib.sha256() for name in USER_INPUTS}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            inp = user_inputs(n, seed, Path(tmp))
            for name, build in USER_INPUTS.items():
                ms[name].append(_best_ms(lambda: build(inp)))
                mib, g = _peak_mib(lambda: build(inp))
                peak[name].append(mib)
                digest[name].update(g._rows.tobytes())
    return [_row("constructor", name, n, ms[name], peak[name], digest[name]) for name in USER_INPUTS]


def _child_find(path: str) -> dict:
    """In the child: cap the address space, read the graph, run the finder."""
    limit_bytes = LARGE_LIMIT_GIB * 2**30
    resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))
    t0 = time.perf_counter()
    g = tw.read_packed(path)
    t1 = time.perf_counter()
    report = tw.find_triangle(g, tw.AlgoParams())
    t2 = time.perf_counter()
    return {
        "edges": g.edge_count,
        "outcome": report.outcome,
        "read_packed_ms": round((t1 - t0) * 1000.0, 1),
        "find_triangle_ms": round((t2 - t1) * 1000.0, 1),
        "peak_rss_mib": peak_rss_mib(),
    }


def large_run(n: int) -> dict:
    """find_triangle on random_bipartite(n, 0), read back from a packed file
    in REPEATS fresh capped children, one after another."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "g.bin")
        t0 = time.perf_counter()
        tw.write_packed(tw.random_bipartite(n, 0), path)
        write_ms = (time.perf_counter() - t0) * 1000.0
        repeats = [in_child(_child_find, path) for _ in range(REPEATS)]
    timings = ("read_packed_ms", "find_triangle_ms", "peak_rss_mib")
    return {
        "graph": f"random_bipartite({n}, 0)",
        "generate_and_write_packed_ms": round(write_ms, 1),
        "rlimit_as_gib": LARGE_LIMIT_GIB,
        "edges": repeats[0]["edges"],
        "outcome": repeats[0]["outcome"],
        **{key: statistics.median(row[key] for row in repeats) for key in timings},
        "repeats": [{key: row[key] for key in timings} for row in repeats],
    }


def main(argv=()) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--large", type=int, default=None, metavar="N")
    args = parser.parse_args(argv)
    if args.large is not None:
        print(json.dumps(large_run(args.large)))
        return
    rows = [measure(name, n) for n in SIZES for name in GENERATORS]
    rows += [row for n in USER_SIZES for row in measure_user(n)]
    print(json.dumps(rows))


if __name__ == "__main__":
    main(sys.argv[1:])
