"""Surviving-pair machinery: cover sampling, pruned pair sets, sparsity checks.

A *cover* is a sampled vertex set whose neighborhoods prune pairs: the
pair {u, v} is *covered* when some cover vertex is adjacent to both u and
v (that vertex closes a triangle with any edge on {u, v}, so covered pairs
are handled by the preliminary search phase). The pairs of a subset Y that
survive pruning are the working set of everything downstream.

Pruning ANDs packed words: each vertex of Y packs its cover neighbours 64
cover vertices to a word, and a pair is covered exactly when its ends'
words share a bit in some word. Row d - 1 of the (|Y| // 2, |Y|) offset
table holds the pairs {Y[i], Y[(i + d) mod |Y|]}: every pair, with no
lower triangle (offset |Y| / 2 twice when |Y| is even), each row a slice
of a doubled word array. A tile of rows ORs in a word at a time and stops
once all its pairs are covered, testing after 1, 2, 4, ... words; a dense
graph stops after the first, and later words are packed only when needed.

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
from numpy.lib.stride_tricks import as_strided

from ._checks import (
    _check_int, _check_real, _check_seed, _check_type, _checked_reals, _checked_vertices,
)
from .graph import Graph, _column_words, _common_counts


# Draw count for the sampled cover: ceil(3 * n^k * ln n), with replacement.
COVER_DRAW_FACTOR = 3.0
# Entries in a tile of the pair table; its OR accumulator and AND
# temporary hold one uint64 an entry, 96 KiB each, under glibc's 128 KiB
# default mmap threshold, so the campaigns' n = 256 never maps and unmaps
# them (BENCH_pairs.json, "packed_words").
_TILE_ENTRIES = 3 << 12


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
    return _distinct(n, rng.integers(0, n, size=cover_draw_count(n, k)))


def _distinct(n: int, ids: np.ndarray) -> np.ndarray:
    """The distinct ``ids`` in [0, n), sorted, as int64. A count over
    [0, n) is 2-8x faster than np.unique at a finder's few hundred ids,
    and np.unique imports numpy.ma, 0.6-1.6 MiB of RSS, on its first call."""
    return np.flatnonzero(np.bincount(ids, minlength=n))


def _uncovered_tiles(g: Graph, cover: np.ndarray, verts: np.ndarray):
    """Yield (d0, free) over row tiles of the offset table of ``verts``' pairs.

    ``verts`` is sorted and duplicate-free, and ``cover`` holds checked ids.
    With b = verts.size, row d - 1 of the (b // 2, b) table holds the pairs
    {verts[i], verts[(i + d) mod b]} (see the module docstring). A tile
    covers rows d0 on: free[r, i] says that no cover vertex is adjacent to
    both ends of the pair at row d0 + r, column i. Tiles hold up to
    _TILE_ENTRIES entries.
    """
    b = verts.size
    h = b // 2
    cover = np.sort(cover)
    # An empty cover packs to one zero word, so every tile has a first word.
    words = max(1, (cover.size + 63) // 64)
    x = np.zeros((words, b + h), dtype=np.uint64)
    # ends[k, d - 1] is x[k, d : d + b]: word k of the far ends of row d - 1.
    ends = as_strided(x[:, 1:], (words, h, b), (x.strides[0], 8, 8), writeable=False)
    step = max(1, _TILE_ENTRIES // b)
    acc = np.empty((min(step, h), b), dtype=np.uint64)
    tmp = np.empty_like(acc)
    packed = 0 if cover.size else words
    for d0 in range(0, h, step):
        t = min(step, h - d0)
        for k in range(words):
            if k == packed:  # the first word by itself, then all the rest
                packed = words if k else 1
                x[k:packed, :b] = _column_words(g, verts, cover[64 * k : 64 * packed])
                x[k:packed, b:] = x[k:packed, :h]
            np.bitwise_and(ends[k, d0 : d0 + t], x[k, :b], out=(tmp if k else acc)[:t])
            if k:
                acc[:t] |= tmp[:t]
            if k & (k + 1) == 0 or k == words - 1:  # after 1, 2, 4, ... words and the last
                free = acc[:t] == 0
                if not free.any():
                    break
        yield d0, free


@lru_cache(maxsize=64)
def _offset_slots(size: int) -> np.ndarray:
    """Per canonical pair slot of ``size`` vertices, its index in the offset table."""
    iu, jv = (a.astype(np.intp) for a in _tri_indices(size))
    d = jv - iu
    slots = np.where(2 * d > size, (size - d - 1) * size + jv, (d - 1) * size + iu)
    slots.setflags(write=False)
    return slots


def uncovered_pairs(g: Graph, cover, within) -> PairSet:
    """Pairs of ``within`` that no cover vertex prunes.

    A pair is pruned exactly when both endpoints are neighbors of some
    cover vertex: when its two ends' packed cover words share a bit (see
    the module docstring). The mask is read from the tiles' offset table
    in canonical order. An empty cover prunes nothing.
    Either set must be a 1-D list of integer ids in [0, n), else ValueError.
    Emulation-side bookkeeping: nothing is charged here; callers charge
    the quantum cost appropriate to their context.
    """
    _check_type("g", g, Graph)
    verts = _distinct(g.n, _checked_vertices(g.n, within))
    cover = _checked_vertices(g.n, cover)
    b = verts.size
    if cover.size == 0 or b < 2:
        return PairSet(verts, np.ones(b * (b - 1) // 2, dtype=bool))
    table = np.empty((b // 2, b), dtype=bool)
    for d0, free in _uncovered_tiles(g, cover, verts):
        table[d0 : d0 + free.shape[0]] = free
    return PairSet(verts, table.ravel()[_offset_slots(b)])


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
    It walks the tiles of uncovered_pairs' offset table and counts common
    neighbours only for the pairs that survive, so no V-wide pair set is
    built. k must lie in (0, 1), as for sample_cover.
    """
    _check_type("g", g, Graph)
    _check_real("cover exponent k", k, "(0, 1)")
    cover = _checked_vertices(g.n, cover)
    n = g.n
    limit = n ** (1.0 - k)
    for d0, free in _uncovered_tiles(g, cover, np.arange(n)):
        # flatnonzero is about 10x faster than a 2-D nonzero.
        r, u = np.divmod(np.flatnonzero(free), n)
        if (_common_counts(g, u, (u + d0 + r + 1) % n) > limit).any():
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
