"""Time the cover's pair pruning: finder blocks, and the sparsity check over V.

Blocks: for each family in FAMILIES, each n in SIZES and each seed in
SEEDS, builds the input, the cover that ``find_triangle`` draws for
``AlgoParams(seed=seed)`` and the block that ``search_blocks`` draws when
no surviving edge closes a triangle, then times REPEATS calls of
``uncovered_pairs(g, cover, block)``; per seed the fastest call counts.
The finder reaches that block on ``bipartite``; on ``er:0.5`` its cover
search ends the run first, so the same draws stand in for a dense block.
Each row holds the median milliseconds over seeds, the block and cover
sizes, the surviving share of the block's pairs, and a digest of every
mask, so two versions can be checked for identical masks as well as
compared for speed.

Sparsity: in a child process whose address space is capped with
``resource.setrlimit`` to LIMIT_GIB, builds ``erdos_renyi(SPARSITY_N,
0.5, 0)`` and ``sample_cover(SPARSITY_N, 0.5, seed=0)`` and times REPEATS
calls of ``cover_is_sparsifying`` over all of V. The row holds the
fastest call, the answer, and the child's peak RSS (``ru_maxrss``) before
and after the calls.

The output also records the BLAS numpy uses and its thread count, which
the product in ``uncovered_pairs`` runs on.

    PYTHONPATH=src python bench/pairs.py
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import triwalk as tw
from timing import in_child, peak_rss_mib
from triwalk import pipeline

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import finder_cover  # noqa: E402

SIZES = (2048, 4096, 8192)
SEEDS = range(3)
REPEATS = 3
SPARSITY_N = 8192
# The address-space cap of the sparsity child.
LIMIT_GIB = 3

FAMILIES = {
    "bipartite": tw.random_bipartite,
    "er:0.5": lambda n, seed: tw.erdos_renyi(n, 0.5, seed),
}


def finder_block(n: int, algo_seed: int) -> np.ndarray:
    """The block search_blocks draws for AlgoParams(seed=algo_seed) on n
    vertices when no surviving edge closes a triangle: the first draw of
    find_triangle's third seed substream."""
    rng = np.random.default_rng(np.random.SeedSequence([algo_seed]).spawn(4)[2])
    size = pipeline.block_size(n, pipeline.AlgoParams().a)
    return np.sort(rng.choice(n, size=size, replace=False))


def blas_setting() -> dict:
    """numpy's BLAS, its thread count and the variables that set it.

    threadpoolctl is not a dependency, so the thread count is asked of the
    OpenBLAS that numpy bundles, when it can be found; else it is None.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*")):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            threads = get()
    return {
        "name": blas["name"],
        "version": blas["version"],
        "threads": threads,
        "cpus": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _best_ms(call) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = call()
        best = min(best, (time.perf_counter() - t0) * 1000.0)
    return best, result


def measure(family: str, n: int) -> dict:
    ms, surviving, digest = [], [], hashlib.sha256()
    for seed in SEEDS:
        g = FAMILIES[family](n, seed)
        cover, block = finder_cover(n, seed), finder_block(n, seed)
        best, pairs = _best_ms(lambda: tw.uncovered_pairs(g, cover, block))
        ms.append(best)
        surviving.append(len(pairs) / pairs.universe_size)
        digest.update(pairs.verts.tobytes())
        digest.update(np.packbits(pairs.mask).tobytes())
    return {
        "family": family,
        "n": n,
        "block": int(block.size),
        "cover": int(cover.size),
        "ms": round(statistics.median(ms), 2),
        "surviving": round(statistics.median(surviving), 4),
        "digest": digest.hexdigest()[:16],
    }


def _child_sparsity(n: int, repeats: int) -> dict:
    """In the child: cap the address space, build the input, time the check."""
    limit_bytes = LIMIT_GIB * 2**30
    resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))
    g = tw.erdos_renyi(n, 0.5, 0)
    cover = tw.sample_cover(n, 0.5, seed=0)
    before = peak_rss_mib()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = tw.cover_is_sparsifying(g, cover, 0.5)
        times.append((time.perf_counter() - t0) * 1000.0)
    return {
        "graph": f"erdos_renyi({n}, 0.5, 0)",
        "cover": int(cover.size),
        "ms": round(min(times), 1),
        "sparsifying": result,
        "peak_rss_mib_before": before,
        "peak_rss_mib": peak_rss_mib(),
        "rlimit_as_gib": LIMIT_GIB,
    }


def sparsity_run(n: int) -> dict:
    return in_child(_child_sparsity, n, REPEATS)


def main() -> None:
    print(json.dumps({
        "blas": blas_setting(),
        "blocks": [measure(family, n) for n in SIZES for family in FAMILIES],
        "sparsity": sparsity_run(SPARSITY_N),
    }))


if __name__ == "__main__":
    main()
