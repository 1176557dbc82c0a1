"""Time the library inside real calls: one row table, one timing loop.

    PYTHONPATH=src python -m bench.run [GROUP]
    PYTHONPATH=src python -m bench.run --large 16384

Run from the repository root. GROUP is one of estimator, scans, pairs,
graph or campaigns; without it every group runs. ``--large N`` runs only
the large-graph rows of the graph group.

A row is one piece of work on ``seeds`` inputs (seeds 0, 1, ...). Per
input, ``build(*args, seed)`` prepares the input untimed and returns the
call, which runs ``repeats`` times. Before each repeat, and once after the
last, perfbench's reference kernel is timed; the input's scale is
perfbench's, ms at the quiet host's speed read from the median of those
readings. Per input the fastest repeat counts, raw and scaled; a row holds
the median over its inputs of both, and the median reference ms, so rows
from two runs can be ranked even when the host's speed drifts between
them.

A row's parts are library functions, ``module.name`` under ``triwalk``,
wrapped during the call to time and count every call they receive, on
exactly the inputs the library hands them. Every repeat's results, the
call's and its parts', are digested; if an input's repeats disagree, the
run names the row and exits 1. A row's digest covers all its inputs, so two
versions can be checked for identical results as well as compared for
speed.

A row's ``info`` reads facts off each input's result, such as a block's
size; the row holds the value its inputs share, else their median. A
child row runs the whole loop in a fresh spawned process, under an
``RLIMIT_AS`` cap of ``limit_gib`` when one is set, and reports the
child's peak RSS (VmHWM) before its first timed call and after its last.
A traced row runs each input once more under tracemalloc, for the most
MiB the call held at once.

The groups:

- estimator: ``find_triangle(random_bipartite(n, seed))`` (triangle-free,
  so every level runs) with ``estimate_all_apexes`` as a part; and one
  ``verify_estimator_bounds`` trial on each (family, n) in CLOSED, where
  nearly every surviving pair has a common neighbour, the case the
  closed-pair pass cannot skip.
- scans: ``find_triangle`` and ``naive_triples_baseline``, each on its own
  fresh copy of the input, with the three first-triangle scans as parts.
  ``bipartite`` is triangle-free, so every scan runs in full; ``er:0.5`` is
  ``erdos_renyi(n, 0.5)``, whose first cover vertex closes a triangle;
  ``isolated`` is the bipartite base with one triangle off the finder's
  cover, built as perfbench's walk-positive workload builds it, so cover
  search misses and the surviving-edge scan finds it.
- pairs: ``uncovered_pairs`` on the cover ``find_triangle`` draws and the
  block ``search_blocks`` draws when no surviving edge closes a triangle
  (on ``er:0.5`` the finder's cover search ends the run first, so the same
  draws stand in for a dense block); and ``cover_is_sparsifying`` over all
  of V in a capped child.
- graph: the generators (``rng`` is the uniform draw ``erdos_renyi``
  consumes, by itself) and the user-input constructors, each handed
  ``random_bipartite(n, seed)`` in the form it takes. ``--large N``
  writes ``random_bipartite(N, 0)`` with ``write_packed``, then reads it
  back and runs ``find_triangle`` in REPEATS capped children, one row a
  child.
- campaigns: the five calls perfbench's campaigns workload rotates through
  (trials 0-4 of its PROFILE at seed 0), then ``verify_subset_cap(128, 16,
  T)`` for each T in CAP_TRIALS, one child a row.

Prints one JSON object: ``machine`` (Python, numpy, its BLAS and thread
count, usable CPUs, the median reference ms) and ``rows``, each holding
the keys of ROW_KEYS.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import triwalk as tw
from perfbench.worker import Reference
from perfbench.workloads import PROFILES, finder_cover, isolated_triangle, pick_isolated, trial_seeds
from triwalk import graph, harness, pairs, pipeline

REPEATS = 3
# Inputs a row of each group runs on (seeds 0..count-1); the child rows of
# pairs and graph run on seed 0 only.
SEEDS = {"estimator": 5, "scans": 5, "pairs": 3, "graph": 3, "campaigns": 1}
ESTIMATOR_SIZES = (448, 768, 2048)
CLOSED = (("er:0.05", 2048), ("er:0.1", 512))
SCAN_SIZES = (448, 1024, 2048)
BLOCK_SIZES = (2048, 4096, 8192)
SPARSITY_N = 8192
GRAPH_SIZES = (448, 768, 1024, 2048, 4096)
USER_SIZES = (768, 2048, 4096)
PROFILE = "full"
CAP_TRIALS = (4000, 20_000, 100_000)
# The address-space cap of the sparsity and large-graph children.
LIMIT_GIB = 3

ROW_KEYS = (
    "group", "name", "n", "ms", "scaled_ms", "reference_ms", "parts",
    "peak_rss_mib", "rlimit_as_gib", "traced_mib", "info", "digest",
)


class BenchError(Exception):
    """A row that failed or whose repeats disagree; the run exits 1."""


@dataclass(frozen=True)
class Row:
    """One row of the table; module-level build and info, so it pickles into a child."""

    group: str
    name: str
    n: Optional[int]
    build: Callable
    args: tuple
    seeds: int
    repeats: int
    parts: tuple[str, ...] = ()
    info: Optional[Callable[[object], dict]] = None
    child: bool = False
    limit_gib: Optional[int] = None
    traced: bool = False

    def __str__(self) -> str:
        return f"{self.group} {self.name}" + ("" if self.n is None else f" n={self.n}")


def _row(group: str, name: str, n: Optional[int], build: Callable, *args, **fields) -> Row:
    fields = {"seeds": SEEDS[group], "repeats": REPEATS, **fields}
    return Row(group, name, n, build, args, **fields)


# -- the rows' calls -------------------------------------------------------

FAMILIES = {
    **{family: harness.parse_family(family) for family in ("bipartite", "er:0.5")},
    "isolated": lambda n, seed: isolated_triangle(
        n, seed, pick_isolated(n, seed, finder_cover(n, seed), on_cover=False)
    ),
}
SCAN_PARTS = (
    "pipeline.find_triangle",
    "pipeline.search_cover_triangles",
    "pipeline._first_surviving_triangle_edge",
    "pipeline.brute_force_triangle",
)
GENERATORS = {
    "rng": lambda n, seed: np.random.default_rng([seed, graph._TAG_ER]).random((n, n)),
    **{family: harness.parse_family(family) for family in ("er:0.5", "bipartite", "planted")},
}


def _written(write, read, g: tw.Graph, path: Path):
    write(g, path)
    return functools.partial(read, path)


# Each constructor's call on random_bipartite's graph, in the form it takes.
USER_INPUTS = {
    "Graph(dense)": lambda g, tmp: functools.partial(tw.Graph, g.bool_matrix),
    "from_edges": lambda g, tmp: functools.partial(
        tw.Graph.from_edges, g.n, list(zip(*(ends.tolist() for ends in g.edges())))
    ),
    "read_edge_list": lambda g, tmp: _written(tw.write_edge_list, tw.read_edge_list, g, tmp / "g.txt"),
    "read_packed": lambda g, tmp: _written(tw.write_packed, tw.read_packed, g, tmp / "g.bin"),
}


def _finder_trial(n: int, seed: int):
    return lambda: pipeline.find_triangle(tw.random_bipartite(n, seed), tw.AlgoParams(seed=seed))


def _closed_trial(family: str, n: int, seed: int):
    params = tw.AlgoParams()
    return lambda: harness.verify_estimator_bounds(n, params.a, params.k, 1, family, seed)


def _scan_trial(family: str, n: int, seed: int):
    make = FAMILIES[family]

    def call():
        report = pipeline.find_triangle(make(n, seed), tw.AlgoParams(seed=seed))
        return report, tw.naive_triples_baseline(make(n, seed))

    return call


def finder_block(n: int, algo_seed: int) -> np.ndarray:
    """The block search_blocks draws for AlgoParams(seed=algo_seed) on n
    vertices when no surviving edge closes a triangle: the first draw of
    find_triangle's third seed substream."""
    size = pipeline.block_size(n, pipeline.AlgoParams().a)
    return np.sort(pipeline._substream(algo_seed, 2).choice(n, size=size, replace=False))


def _block(family: str, n: int, seed: int):
    g = FAMILIES[family](n, seed)
    return functools.partial(pairs.uncovered_pairs, g, finder_cover(n, seed), finder_block(n, seed))


def _block_info(found: pairs.PairSet) -> dict:
    return {"block": int(found.verts.size), "surviving": round(len(found) / found.universe_size, 4)}


def _sparsity(n: int, seed: int):
    g = tw.erdos_renyi(n, 0.5, seed)
    return functools.partial(pairs.cover_is_sparsifying, g, tw.sample_cover(n, 0.5, seed=seed), 0.5)


def _sparsity_info(sparsifying: bool) -> dict:
    return {"sparsifying": sparsifying}


def _generate(name: str, n: int, seed: int):
    return functools.partial(GENERATORS[name], n, seed)


def _construct(name: str, n: int, tmp: str, seed: int):
    return USER_INPUTS[name](tw.random_bipartite(n, seed), Path(tmp))


def _write_large(n: int, path: str, seed: int):
    return functools.partial(tw.write_packed, tw.random_bipartite(n, seed), path)


def _large_find(path: str, seed: int):
    def call():
        g = graph.read_packed(path)
        return g.edge_count, pipeline.find_triangle(g, tw.AlgoParams())

    return call


def _large_info(result) -> dict:
    edges, report = result
    return {"edges": edges, "outcome": report.outcome}


def _campaign(profile: str, index: int, seed: int):
    return PROFILES[profile]["campaigns"].trial(index, *trial_seeds(seed, index)).call


def _subset_cap(trials: int, seed: int):
    return lambda: harness.verify_subset_cap(128, 16, trials, config="er-half", seed=seed)


# -- the row table -----------------------------------------------------------


def estimator_rows(tmp: Path) -> list[Row]:
    rows = [
        _row("estimator", "bipartite", n, _finder_trial, n, parts=("pipeline.estimate_all_apexes",))
        for n in ESTIMATOR_SIZES
    ]
    return rows + [
        _row("estimator", f"closed {family}", n, _closed_trial, family, n,
             parts=("harness.estimate_all_apexes",))
        for family, n in CLOSED
    ]


def scan_rows(tmp: Path) -> list[Row]:
    return [
        _row("scans", family, n, _scan_trial, family, n, parts=SCAN_PARTS)
        for family in FAMILIES
        for n in SCAN_SIZES
    ]


def pair_rows(tmp: Path) -> list[Row]:
    rows = [
        _row("pairs", f"block {family}", n, _block, family, n, info=_block_info)
        for n in BLOCK_SIZES
        for family in ("bipartite", "er:0.5")
    ]
    return rows + [
        _row("pairs", "sparsity er:0.5", SPARSITY_N, _sparsity, SPARSITY_N, seeds=1,
             info=_sparsity_info, child=True, limit_gib=LIMIT_GIB)
    ]


def graph_rows(tmp: Path) -> list[Row]:
    rows = [
        _row("graph", name, n, _generate, name, n, traced=True)
        for n in GRAPH_SIZES
        for name in GENERATORS
    ]
    return rows + [
        _row("graph", name, n, _construct, name, n, str(tmp), traced=True)
        for n in USER_SIZES
        for name in USER_INPUTS
    ]


def large_rows(n: int, tmp: Path) -> list[Row]:
    path = str(tmp / "large.bin")
    write = _row("graph", "write_packed", n, _write_large, n, path, seeds=1, repeats=1)
    find = _row(
        "graph", "large", n, _large_find, path, seeds=1, repeats=1,
        parts=("graph.read_packed", "pipeline.find_triangle"), info=_large_info,
        child=True, limit_gib=LIMIT_GIB,
    )
    return [write] + [find] * REPEATS


def campaign_rows(tmp: Path) -> list[Row]:
    rotation = PROFILES[PROFILE]["campaigns"]
    rows = [
        _row("campaigns", rotation.trial(index, *trial_seeds(0, index)).expect, None,
             _campaign, PROFILE, index, child=True)
        for index in range(5)
    ]
    return rows + [
        _row("campaigns", f"verify_subset_cap(128, 16, {trials})", None, _subset_cap, trials,
             child=True)
        for trials in CAP_TRIALS
    ]


GROUPS = {
    "estimator": estimator_rows,
    "scans": scan_rows,
    "pairs": pair_rows,
    "graph": graph_rows,
    "campaigns": campaign_rows,
}


# -- one timing loop, one digest, one child runner ----------------------------


def digest(value) -> str:
    """First 16 hex digits of a sha256 over ``value``: reports by their JSON,
    graphs by their packed rows, pair sets by universe and mask, arrays by
    dtype, shape and bytes, lists and tuples item by item, the rest by repr."""
    h = hashlib.sha256()

    def feed(v) -> None:
        if hasattr(v, "to_json"):
            h.update(v.to_json().encode())
        elif isinstance(v, tw.Graph):
            feed(v._rows)
        elif isinstance(v, pairs.PairSet):
            feed((v.verts, v.mask))
        elif isinstance(v, np.ndarray):
            h.update(f"{v.dtype}{v.shape}".encode() + np.ascontiguousarray(v).tobytes())
        elif isinstance(v, (list, tuple)):
            h.update(f"[{len(v)}".encode())
            for item in v:
                feed(item)
        else:
            h.update(repr(v).encode() + b";")

    feed(value)
    return h.hexdigest()[:16]


def peak_rss_mib() -> float:
    """This process's peak resident set size so far, in MiB.

    Read as VmHWM, the high-water mark of its own address space:
    ``ru_maxrss`` would carry the peak of the process that spawned it, which
    Linux keeps across fork and exec.
    """
    with open("/proc/self/status") as status:
        kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    return round(int(kib) / 1024, 1)


def timed_call(call: Callable[[], object], parts) -> tuple[float, object, dict[str, list]]:
    """Run ``call()`` with each part wrapped, then restore them.

    Returns the call's ms, its result and, per part, one (ms, result) pair
    for every call the part received, in call order. The wrappers look like
    the originals to their callers.
    """
    real = {}
    for part in parts:
        module, name = part.rsplit(".", 1)
        module = importlib.import_module(f"triwalk.{module}")
        real[part] = (module, name, getattr(module, name))
    calls: dict[str, list] = {part: [] for part in parts}

    def wrap(part, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            calls[part].append(((time.perf_counter() - t0) * 1000.0, result))
            return result

        return timed

    for part, (module, name, fn) in real.items():
        setattr(module, name, wrap(part, fn))
    try:
        t0 = time.perf_counter()
        result = call()
        ms = (time.perf_counter() - t0) * 1000.0
    finally:
        for module, name, fn in real.values():
            setattr(module, name, fn)
    return ms, result, calls


def _traced_mib(call: Callable[[], object]) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _median(values) -> float:
    return round(statistics.median(values), 3)


def _merged(values: list):
    """One info value over a row's inputs: the value they share, else their median."""
    return values[0] if all(v == values[0] for v in values) else statistics.median(values)


def measure(row: Row, kernel: Reference) -> dict:
    """Run the row's timing loop in this process, reading ``kernel`` beside
    its repeats; one dict with ROW_KEYS."""
    ms, scaled, refs, traced, digests, infos = [], [], [], [], [], []
    part_ms = {part: [] for part in row.parts}
    part_scaled = {part: [] for part in row.parts}
    calls = dict.fromkeys(row.parts, 0)
    for seed in range(row.seeds):
        call = row.build(*row.args, seed)
        if seed == 0:
            rss_before = peak_rss_mib()
        runs, input_refs = [], []
        for _ in range(row.repeats):
            input_refs.append(kernel.ms())
            runs.append(timed_call(call, row.parts))
        input_refs.append(kernel.ms())
        scale = kernel.scale(input_refs)
        refs += input_refs
        seen = {
            digest((result, [[out for _, out in recs[part]] for part in row.parts]))
            for _, result, recs in runs
        }
        if len(seen) > 1:
            raise BenchError(f"{row}: seed {seed}: repeats disagree ({', '.join(sorted(seen))})")
        digests += seen
        ms.append(min(run[0] for run in runs))
        scaled.append(ms[-1] * scale)
        for part in row.parts:
            best = min(sum(t for t, _ in recs[part]) for _, _, recs in runs)
            part_ms[part].append(best)
            part_scaled[part].append(best * scale)
            calls[part] += len(runs[0][2][part])
        if row.info is not None:
            infos.append(row.info(runs[0][1]))
        if row.traced:
            traced.append(_traced_mib(call))
    return {
        "group": row.group,
        "name": row.name,
        "n": row.n,
        "ms": _median(ms),
        "scaled_ms": _median(scaled),
        "reference_ms": _median(refs),
        "parts": {
            part: {"calls": calls[part], "ms": _median(part_ms[part]),
                   "scaled_ms": _median(part_scaled[part])}
            for part in row.parts
        },
        "peak_rss_mib": [rss_before, peak_rss_mib()] if row.child else None,
        "rlimit_as_gib": row.limit_gib,
        "traced_mib": _median(traced) if traced else None,
        "info": {key: _merged([info[key] for info in infos]) for key in (infos[0] if infos else ())},
        "digest": digest(digests),
    }


def _child(conn, row: Row) -> None:
    """In the child: cap the address space, run the row, send its dict or the error's text."""
    if row.limit_gib is not None:
        limit = row.limit_gib * 2**30
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    try:
        conn.send(measure(row, Reference()))
    except BenchError as exc:
        conn.send(str(exc))
    except Exception:
        conn.send(f"{row}: {traceback.format_exc()}")


def run_row(row: Row, kernel: Reference) -> dict:
    """The row's dict: measured here, or for a child row in a fresh spawned
    process with a kernel of its own."""
    if not row.child:
        return measure(row, kernel)
    ctx = get_context("spawn")
    receive, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(send, row))
    proc.start()
    send.close()
    try:
        out = receive.recv()
    except EOFError:
        out = None
    proc.join()
    if out is None:
        out = f"{row}: child exited with status {proc.exitcode}"
    if isinstance(out, str):
        raise BenchError(out)
    return out


# -- the run ---------------------------------------------------------------------


def _blas_threads() -> Optional[int]:
    """The thread count of the OpenBLAS numpy bundles, when it can be found.

    threadpoolctl is not a dependency, so it is asked of the library itself.
    """
    threads = None
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        get = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            threads = get()
    return threads


def machine(rows: list[dict]) -> dict:
    """The run header: interpreter, numpy and its BLAS, usable CPUs, median reference ms."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas["name"],
            "version": blas["version"],
            "threads": _blas_threads(),
            "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
        "cpus": len(os.sched_getaffinity(0)),
        "reference_ms": _median([row["reference_ms"] for row in rows]) if rows else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    selection = parser.add_mutually_exclusive_group()
    selection.add_argument("group", nargs="?", choices=GROUPS)
    selection.add_argument("--large", type=int, metavar="N")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        if args.large is not None:
            table = large_rows(args.large, Path(tmp))
        else:
            chosen = [args.group] if args.group else list(GROUPS)
            table = [row for group in chosen for row in GROUPS[group](Path(tmp))]
        try:
            kernel = Reference()
            rows = [run_row(row, kernel) for row in table]
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
    print(json.dumps({"machine": machine(rows), "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
