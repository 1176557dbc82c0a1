"""Sampling estimator for per-apex surviving-pair counts.

Given the surviving pairs of a block A (already known, so membership tests
are free) and an apex vertex w, the estimator approximates how many
surviving pairs have both endpoints adjacent to w, using only O(m log n)
adjacency probes against w:

1. Coarse screen: ceil(240 ln n) rounds, each drawing m pairs uniformly
   with replacement from all pairs of A and asking whether any drawn pair
   qualifies (survives pruning and both endpoints neighbor w).
2. If at most half the rounds saw a qualifying pair, output |pairs(A)| / m
   (the count is too small to estimate multiplicatively; this floor upper-
   bounds it up to a constant with high probability).
3. Otherwise refine: ceil(72 m ln n) single draws, counting qualifying
   ones; output qualifying_fraction * |pairs(A)|.

The randomness is a fixed draw plan per (block, m), shared by every apex,
which is what makes "the bounds hold for all apexes simultaneously for
most plans" a meaningful, testable event. The plan owns its generator and
draws each stage from it on first read, the screen always before the
refinement, so a run that reads no stage draws nothing and the arrays
never depend on which stage is read first. Guarantee over the plan draw:
with probability at least 1 - 3/n, for every apex w the output lies in
    [count(w) / 3,  1.5 * max(|A|(|A|-1)/(2m), count(w))].

Since the plan is shared, one pass scores every apex: a drawn pair (u, v)
qualifies exactly at the common neighbours of u and v. Adjacency probes
short-circuit, which gives the closed form
    probes(w) = S1 + F1(w) + [2 c1(w) > rounds] * (S3 + F3(w)),
with S1, S3 the surviving screen / refinement draws and F1(w), F3(w)
those of them whose first endpoint neighbours w. Only the total over
apexes reaches a report.

Both stages are scored by one function, with the draws as groups: c1
counts, per apex, the screen rounds holding a qualifying draw, and c2 the
qualifying refinement draws, each draw its own group. A stage is one
bincount of its draws: the surviving slots it drew, each weighted by its
hit count, give S (the hits' sum) and F summed over the apexes (the
hit-weighted degree of the slots' first endpoints; for stage 3 only
within the refined apexes). A pair whose endpoints have no common
neighbour (an open pair) qualifies at no apex, so the stage counts the
common neighbours of each surviving slot it drew once, and only when
some are closed takes the plan positions of their draws for
graph._apex_column_counts. Where the cover prunes the closed pairs, as
on random_bipartite inputs, a stage reads no draw one by one. The
refinement is drawn and scored only when some apex reaches stage 3;
otherwise every output is the floor, and with no surviving pair at all
no draw is read.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .graph import Graph, _apex_column_counts, _common_counts, _degrees
from .pairs import PairSet, _tri_indices


# Round count of the coarse screen: ceil(240 ln n).
SCREEN_ROUNDS_FACTOR = 240.0
# Draw count of the refinement stage: ceil(72 m ln n).
REFINE_DRAWS_FACTOR = 72.0


def screen_rounds(n: int) -> int:
    return math.ceil(SCREEN_ROUNDS_FACTOR * math.log(n))


def refine_draws(n: int, m: int) -> int:
    return math.ceil(REFINE_DRAWS_FACTOR * m * math.log(n))


def estimator_charge(n: int, m: int) -> int:
    """Charged query cost of one estimator run: ceil(m ln n)."""
    return math.ceil(m * math.log(n))


class SamplePlan:
    """The estimator's random draws, shared by every apex.

    The plan owns ``rng``: callers hand it a generator they never draw from
    again. Each stage's pair indices are drawn from it on first read of
    ``screen_draws`` or ``refine_draws``, the screen always first, so the
    arrays equal an eager draw of both stages at construction, two apexes
    evaluated against the same plan consume identical draws, and the whole
    run is a deterministic function of (plan, apex). Unchecked: callers
    pass n >= 2, m >= 1 and the universe size of the pair set the plan is
    scored against.
    """

    def __init__(self, n: int, m: int, pair_universe: int, rng: np.random.Generator):
        self.m = m
        self.rounds = screen_rounds(n)
        self.refine = refine_draws(n, m)
        self._universe = pair_universe
        self._rng = rng

    @cached_property
    def screen_draws(self) -> np.ndarray:
        return self._rng.integers(0, self._universe, size=(self.rounds, self.m))

    @cached_property
    def refine_draws(self) -> np.ndarray:
        self.screen_draws  # the screen comes first in the plan's stream
        return self._rng.integers(0, self._universe, size=self.refine)


class _ApexCounts(NamedTuple):
    """Every apex's estimator counters against one plan, and the probe total."""

    c1: np.ndarray
    refined: np.ndarray
    c2: np.ndarray
    outputs: np.ndarray
    probes: int


def _stage_counts(g: Graph, surviving: PairSet, draws: np.ndarray, within=None) -> tuple[np.ndarray, int]:
    """Score one stage's draws, a (groups, size) array of pair slots, for
    every apex: per apex, the groups holding a draw that qualifies there,
    as int64, and the stage's raw probes summed over the apexes (the ids
    ``within`` when given, else every vertex)."""
    hits = np.bincount(draws.ravel(), minlength=surviving.universe_size)
    slots = np.flatnonzero(surviving.mask & hits.astype(bool))
    hits = hits[slots]
    verts = surviving.verts
    iu, jv = _tri_indices(verts.size)
    first = iu[slots]
    # Every surviving draw is probed, closed or open: its first endpoint at
    # every apex, its second at the apexes the first neighbours.
    apexes = g.n if within is None else within.size
    probes = int(hits.sum()) * apexes + int(hits @ _degrees(g, verts, within)[first])
    # Only the draws of closed pairs can qualify at an apex.
    closed = slots[_common_counts(g, verts[first], verts[jv[slots]]) > 0]
    if closed.size == 0:
        return np.zeros(g.n, dtype=np.int64), probes
    is_closed = np.zeros(surviving.universe_size, dtype=bool)
    is_closed[closed] = True
    flat = draws.ravel()
    # Flat positions (group * size + column) of the closed draws.
    at = np.flatnonzero(is_closed[flat])
    drawn = flat[at]
    # One-draw groups merge nothing: count their pairs with no group.
    group = None if draws.shape[1] == 1 else at // draws.shape[1]
    return _apex_column_counts(g, verts[iu[drawn]], verts[jv[drawn]], group), probes


def _apex_counts(g: Graph, surviving: PairSet, plan: SamplePlan) -> _ApexCounts:
    """Run the estimator for every apex at once over the packed rows."""
    n, universe = g.n, surviving.universe_size
    zeros = np.zeros(n, dtype=np.int64)
    outputs = np.full(n, universe / plan.m)
    # An empty surviving set reads no draw of the plan.
    if not surviving.mask.any():
        return _ApexCounts(zeros, zeros.astype(bool), zeros, outputs, 0)
    # A screen round is one group of draws.
    c1, probes = _stage_counts(g, surviving, plan.screen_draws)
    refined = 2 * c1 > plan.rounds
    c2 = zeros
    if refined.any():
        # A refinement draw is its own group, probed at the refined apexes.
        c2, probes3 = _stage_counts(g, surviving, plan.refine_draws[:, None], np.flatnonzero(refined))
        outputs[refined] = c2[refined] * universe / plan.refine
        probes += probes3
    return _ApexCounts(c1, refined, c2, outputs, probes)


def estimate_all_apexes(g: Graph, surviving: PairSet, plan: SamplePlan) -> tuple[np.ndarray, int]:
    """Evaluate the estimator for every apex at once against one plan.

    Returns (outputs indexed by apex, total raw probes). Emulation-side
    helper: nothing is charged; the caller tallies the raw probes and owns
    the charged model (one estimator charge per apex enters the per-apex
    dispatch cost). Unchecked: ``plan`` must be drawn for
    ``surviving.universe_size`` pairs.
    """
    counts = _apex_counts(g, surviving, plan)
    return counts.outputs, counts.probes
