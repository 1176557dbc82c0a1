"""Surviving-pair machinery: cover sampling, pruned pair sets, sparsity checks.

A *cover* is a sampled vertex set whose neighborhoods prune pairs: the
pair {u, v} is *covered* when some cover vertex is adjacent to both u and
v (that vertex closes a triangle with any edge on {u, v}, so covered pairs
are handled by the preliminary search phase). The pairs of a subset Y that
survive pruning are the working set of everything downstream.

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

from .graph import Graph, _anded_rows, _check_int, _checked_vertices, _fold_words, _is_real

__all__ = [
    "PairSet",
    "cover_draw_count",
    "sample_cover",
    "uncovered_pairs",
    "uncovered_pairs_at",
    "cover_is_sparsifying",
    "subset_pair_cap",
]

# Draw count for the sampled cover: ceil(3 * n^k * ln n), with replacement.
COVER_DRAW_FACTOR = 3.0


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
    makes uniform pair sampling O(1) per draw.
    """

    __slots__ = ("verts", "mask")

    def __init__(self, verts: np.ndarray, mask: np.ndarray):
        verts = np.asarray(verts, dtype=np.int64)
        if not np.all(np.diff(verts) > 0):
            raise ValueError("pair universe must be sorted and duplicate-free")
        if verts.size and verts[0] < 0:
            raise ValueError("pair universe holds a negative vertex id")
        expected = verts.size * (verts.size - 1) // 2
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (expected,):
            raise ValueError("mask does not match the pair universe size")
        self.verts = verts
        self.mask = mask

    # -- constructors ---------------------------------------------------

    @classmethod
    def full(cls, verts) -> "PairSet":
        verts = np.unique(np.asarray(verts, dtype=np.int64))
        size = verts.size * (verts.size - 1) // 2
        return cls(verts, np.ones(size, dtype=bool))

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
    if not _is_real(k) or not 0.0 < k < 1.0:
        raise ValueError("cover exponent k must lie in (0, 1)")
    if rng is None:
        if seed is None:
            raise ValueError("provide a seed or an rng")
        rng = np.random.default_rng([seed, 0xC0])
    draws = rng.integers(0, n, size=cover_draw_count(n, k))
    return np.unique(draws).astype(np.int64)


def _covered_mask(g: Graph, cover_words: np.ndarray, pu: np.ndarray, pv: np.ndarray) -> np.ndarray:
    """True where some cover vertex is adjacent to both endpoints."""
    out = np.empty(pu.shape[0], dtype=bool)
    for sl, common in _anded_rows(g._rows, pu, pv):
        common &= cover_words
        out[sl] = _fold_words(np.bitwise_or, common) != 0
    return out


def uncovered_pairs(g: Graph, cover, within) -> PairSet:
    """Pairs of ``within`` that no cover vertex prunes.

    A pair is pruned exactly when both endpoints are neighbors of some
    cover vertex. An empty cover prunes nothing. A vertex id outside
    [0, n) in either set raises ValueError. Emulation-side
    bookkeeping: nothing is charged here; callers charge the quantum cost
    appropriate to their context.
    """
    base = PairSet.full(_checked_vertices(g.n, within))
    cover = _checked_vertices(g.n, cover)
    if cover.size == 0 or base.universe_size == 0:
        return base
    pu, pv = base.endpoint_arrays()
    covered = _covered_mask(g, g.pack_set(cover), pu, pv)
    return PairSet(base.verts, ~covered)


def uncovered_pairs_at(g: Graph, cover, within, apex: int) -> PairSet:
    """Surviving pairs of ``within`` whose endpoints both neighbor ``apex``."""
    surviving = uncovered_pairs(g, cover, within)
    adj = g.bool_row(apex)
    pu, pv = surviving.endpoint_arrays()
    return PairSet(surviving.verts, surviving.mask & adj[pu] & adj[pv])


def common_neighbor_counts(g: Graph, pairs: PairSet) -> np.ndarray:
    """For each selected pair, the number of vertices adjacent to both ends."""
    pu, pv = pairs.selected_endpoints()
    counts = np.empty(pu.shape[0], dtype=np.int64)
    for sl, common in _anded_rows(g._rows, pu, pv):
        counts[sl] = _fold_words(np.add, np.bitwise_count(common), np.int64)
    return counts


def cover_is_sparsifying(g: Graph, cover, k: float) -> bool:
    """Pointwise sparsity check over the whole vertex set.

    True iff every surviving pair of V has at most n^(1-k) common
    neighbors. This is the checkable surrogate for the summed budget over
    all subsets: by a counting argument it implies
    sum_w |surviving pairs of Y at apex w| <= |Y|^2 n^(1-k) for every Y.
    """
    surv = uncovered_pairs(g, cover, np.arange(g.n))
    if len(surv) == 0:
        return True
    counts = common_neighbor_counts(g, surv)
    return bool(np.max(counts) <= g.n ** (1.0 - k))


def subset_pair_cap(r: int, parent_size: int, parent_apex_pairs):
    """Cap on the apex pairs a random r-subset of a parent block retains.

    For B drawn uniformly among the r-subsets of a parent of size |A|, the
    joint event "B keeps a fixed parent pair" and "B's apex-pair count is
    at most this cap" has probability at least (r-1)^2 / (2 |A|^2). The cap
    is  8 (r-2)(r-3) / ((|A|-2)(|A|-3)) * x/3 + 16 r  with x the parent's
    apex-pair count; pass 3*estimate for x when substituting an estimator
    value for x/3. Accepts scalar or ndarray x.
    """
    if parent_size <= 3:
        raise ValueError("parent block must have more than 3 vertices")
    if not 3 < r <= parent_size:
        raise ValueError("subset size must satisfy 3 < r <= parent size")
    coeff = 8.0 * (r - 2) * (r - 3) / ((parent_size - 2) * (parent_size - 3))
    cap = coeff * np.asarray(parent_apex_pairs, dtype=float) / 3.0 + 16.0 * r
    return float(cap) if cap.ndim == 0 else cap
