"""Surviving-pair machinery: cover sampling, pruned pair sets, sparsity checks.

A *cover* is a sampled vertex set whose neighborhoods prune pairs: the
pair {u, v} is *covered* when some cover vertex is adjacent to both u and
v (that vertex closes a triangle with any edge on {u, v}, so covered pairs
are handled by the preliminary search phase). The pairs of a subset Y that
survive pruning are the working set of everything downstream.

Pruning is one product. Let X hold the rows of Y restricted to the cover's
columns, as a float32 0/1 matrix; entry (u, v) of X X^T counts the cover
vertices adjacent to both u and v, so a pair survives exactly where its
entry is 0. The zero test is exact in any summation order and with any
BLAS thread count: an entry sums 0/1 products, a float sum of
non-negative terms is 0 only when every term is, and float32 holds every
count below 2^24 exactly. X X^T is taken in row tiles of at most
_PRODUCT_ENTRIES entries, so Y = V never holds an n x n matrix, and each
tile's upper triangle is read straight into the canonical pair order.

The headline property of a random cover of ~n^k log n draws is that, with
probability at least 1 - 1/n, every surviving pair has at most n^(1-k)
common neighbors, which caps the per-apex surviving-pair counts summed
over all apexes by |Y|^2 n^(1-k) for every Y. The pointwise property is
checked here (cover_is_sparsifying); the summed budget follows from it and
is not checked separately.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

import numpy as np

from ._checks import (
    _check_int, _check_real, _check_seed, _check_type, _checked_reals, _checked_vertices,
)
from .graph import Graph, _bool_rows, _common_counts


# Draw count for the sampled cover: ceil(3 * n^k * ln n), with replacement.
COVER_DRAW_FACTOR = 3.0
# Entries in the largest temporary of the cover-column product: a row tile
# of X X^T (4 MiB of float32), or the unpacked rows X is taken from. Over
# all of V, 2^20 ran the sparsity check 1.8x faster than 2^22 at n=2048
# and within 5% of the fastest of 2^19-2^22 at n=8192 (BENCH_pairs.json,
# "tile_entries").
_PRODUCT_ENTRIES = 1 << 20


@lru_cache(maxsize=64)
def _tri_indices(size: int) -> tuple[np.ndarray, np.ndarray]:
    iu, jv = np.triu_indices(size, k=1)
    iu = iu.astype(np.int32)
    jv = jv.astype(np.int32)
    iu.setflags(write=False)
    jv.setflags(write=False)
    return iu, jv


class PairSet:
    """A set of unordered vertex pairs over a fixed vertex universe.

    The universe is a sorted vertex array; its pairs are enumerated
    canonically (lexicographically, row-major over the upper triangle) and
    the set is a boolean mask over that enumeration. The fixed indexing
    makes uniform pair sampling O(1) per draw. Unchecked: ``verts`` holds
    sorted distinct checked ids and ``mask`` one bool a pair;
    uncovered_pairs builds them.
    """

    __slots__ = ("verts", "mask")

    def __init__(self, verts: np.ndarray, mask: np.ndarray):
        self.verts = verts
        self.mask = mask

    # -- universe geometry ----------------------------------------------

    @property
    def universe_size(self) -> int:
        """Number of pairs in the universe (selected or not)."""
        return self.mask.shape[0]

    def endpoint_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Global endpoint vertices (u, v) for every universe slot."""
        iu, jv = _tri_indices(self.verts.size)
        return self.verts[iu], self.verts[jv]

    # -- set behaviour ----------------------------------------------------

    def __len__(self) -> int:
        return int(self.mask.sum())

    def selected_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        pu, pv = self.endpoint_arrays()
        return pu[self.mask], pv[self.mask]

    def __repr__(self) -> str:
        return f"PairSet(|universe|={self.verts.size}, pairs={len(self)})"


def cover_draw_count(n: int, k: float) -> int:
    """How many with-replacement draws the sampled cover uses."""
    return math.ceil(COVER_DRAW_FACTOR * n**k * math.log(n))


def sample_cover(
    n: int,
    k: float,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Sample the cover: ceil(3 n^k ln n) uniform draws, deduplicated.

    Returns the sorted set of distinct sampled vertices; its size is at
    most the draw count.
    """
    _check_int("n", n, 2)
    _check_real("cover exponent k", k, "(0, 1)")
    if rng is None:
        if seed is None:
            raise ValueError("provide a seed or an rng")
        _check_seed(seed)
        rng = np.random.default_rng([seed, 0xC0])
    _check_type("rng", rng, np.random.Generator)
    draws = rng.integers(0, n, size=cover_draw_count(n, k))
    # The drawn vertices in order; a count over [0, n) is ~7x faster than
    # np.unique at a finder's few hundred draws.
    return np.flatnonzero(np.bincount(draws, minlength=n))


def _uncovered_tiles(g: Graph, cover: np.ndarray, verts: np.ndarray):
    """Yield (i, free) over row tiles of X X^T for the pairs of ``verts``.

    ``verts`` is sorted and duplicate-free, and ``cover`` holds checked ids.
    A tile covers rows i to i + t of X X^T and columns i on: free[r, c]
    says that no cover vertex is adjacent to both verts[i + r] and
    verts[i + c]. Its entries with c > r are the tile's pairs; read in
    row-major order they are the canonical slots of the pairs whose lower
    end is one of the tile's rows. Tiles grow as the columns shrink, up to
    _PRODUCT_ENTRIES entries each.
    """
    b, n = verts.size, g.n
    x = np.empty((b, cover.size), dtype=np.float32)
    step = max(1, _PRODUCT_ENTRIES // n)
    for i in range(0, b, step):
        # astype's bool-to-float cast is about 10x faster than assigning the
        # bools into x.
        x[i : i + step] = _bool_rows(g, verts[i : i + step])[:, cover].astype(np.float32)
    i = 0
    while i < b:
        w = b - i
        t = max(1, min(w, _PRODUCT_ENTRIES // w))
        yield i, x[i : i + t] @ x[i:].T == 0
        i += t


def uncovered_pairs(g: Graph, cover, within) -> PairSet:
    """Pairs of ``within`` that no cover vertex prunes.

    A pair is pruned exactly when both endpoints are neighbors of some
    cover vertex: when its entry of the cover-column product X X^T is
    positive (see the module docstring). The mask is read tile by tile
    from the product's upper triangle. An empty cover prunes nothing.
    Either set must be a 1-D list of integer ids in [0, n), else ValueError.
    Emulation-side bookkeeping: nothing is charged here; callers charge
    the quantum cost appropriate to their context.
    """
    _check_type("g", g, Graph)
    verts = np.unique(_checked_vertices(g.n, within))
    cover = _checked_vertices(g.n, cover)
    b = verts.size
    if cover.size == 0 or b < 2:
        return PairSet(verts, np.ones(b * (b - 1) // 2, dtype=bool))
    slots = []
    for _, free in _uncovered_tiles(g, cover, verts):
        t, w = free.shape
        slots.append(free[np.arange(w) > np.arange(t)[:, None]])
    return PairSet(verts, np.concatenate(slots))


def uncovered_pairs_at(g: Graph, cover, within, apex: int) -> PairSet:
    """Surviving pairs of ``within`` whose endpoints both neighbor ``apex``."""
    surviving = uncovered_pairs(g, cover, within)
    adj = g.bool_row(apex)
    pu, pv = surviving.endpoint_arrays()
    return PairSet(surviving.verts, surviving.mask & adj[pu] & adj[pv])


def cover_is_sparsifying(g: Graph, cover, k: float) -> bool:
    """Pointwise sparsity check over the whole vertex set.

    True iff every surviving pair of V has at most n^(1-k) common
    neighbors. This is the checkable surrogate for the summed budget over
    all subsets: by a counting argument it implies
    sum_w |surviving pairs of Y at apex w| <= |Y|^2 n^(1-k) for every Y.
    It walks the tiles of uncovered_pairs' product and counts common
    neighbours only for the pairs that survive, so no V-wide pair set is
    built. k must lie in (0, 1), as for sample_cover.
    """
    _check_type("g", g, Graph)
    _check_real("cover exponent k", k, "(0, 1)")
    cover = _checked_vertices(g.n, cover)
    limit = g.n ** (1.0 - k)
    for i, free in _uncovered_tiles(g, cover, np.arange(g.n)):
        # flatnonzero is about 10x faster than a 2-D nonzero.
        r, c = np.divmod(np.flatnonzero(free), free.shape[1])
        pair = c > r
        if (_common_counts(g, i + r[pair], i + c[pair]) > limit).any():
            return False
    return True


def subset_pair_cap(r: int, parent_size: int, parent_apex_pairs):
    """Cap on the apex pairs a random r-subset of a parent block retains.

    For B drawn uniformly among the r-subsets of a parent of size |A|, the
    joint event "B keeps a fixed parent pair" and "B's apex-pair count is
    at most this cap" has probability at least (r-1)^2 / (2 |A|^2). The cap
    is  8 (r-2)(r-3) / ((|A|-2)(|A|-3)) * x/3 + 16 r  with x the parent's
    apex-pair count; pass 3*estimate for x when substituting an estimator
    value for x/3. Accepts scalar or ndarray x.
    """
    _check_int("parent_size", parent_size, 4, math.inf)
    _check_int("subset size r", r, 4, parent_size)
    coeff = 8.0 * (r - 2) * (r - 3) / ((parent_size - 2) * (parent_size - 3))
    cap = coeff * _checked_reals("apex-pair count", parent_apex_pairs) / 3.0 + 16.0 * r
    return float(cap) if cap.ndim == 0 else cap
