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
qualifies exactly at the common neighbours of u and v. c1 counts, per
apex, the rounds with a qualifying surviving draw, and c2 the qualifying
surviving refinement draws (graph._apex_column_counts, c1 with the rounds
as groups). Adjacency probes short-circuit, which gives the closed form
    probes(w) = S1 + F1(w) + [2 c1(w) > rounds] * (S3 + F3(w)),
with S1, S3 the surviving screen / refinement draws and F1(w), F3(w)
those of them whose first endpoint neighbours w. Only the total over
apexes reaches a report. A stage's terms are read off the surviving slots
it drew, each weighted by its hit count from one bincount of the stage's
draws: S is the hits' sum, and summed over w, F1 is the hit-weighted
degree of the slots' first endpoints and F3, over the refined apexes, the
hit-weighted |N(first endpoint) & refined|. The refinement draws (c2, S3,
F3) are scored only when some apex reaches stage 3; otherwise every
output is the floor, and with no surviving pair at all no draw is read.

A pair whose endpoints have no common neighbour (an open pair) qualifies
at no apex. So the screen counts the common neighbours of each surviving
slot it drew once, and only when some of them are closed does it find the
plan positions of those slots' draws, which c1 groups by round. Where the
cover prunes the closed pairs, as on random_bipartite inputs, the screen
reads no draw one by one: it is the bincount and one pass over the drawn
slots.
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


def _drawn_slots(surviving: PairSet, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The surviving slots among ``draws``, ascending, and how often each was drawn."""
    hits = np.bincount(draws.ravel(), minlength=surviving.universe_size)
    slots = np.flatnonzero(surviving.mask & hits.astype(bool))
    return slots, hits[slots]


def _stage_probes(g: Graph, verts: np.ndarray, first: np.ndarray, hits: np.ndarray, within=None) -> int:
    """Raw probes of one stage's surviving draws, summed over the apexes (the
    ids ``within`` when given, else every vertex): each draw probes its first
    endpoint at every apex, and its second at the apexes the first neighbours.
    ``first`` holds each drawn slot's first endpoint as an index into
    ``verts``, and ``hits`` how often the slot was drawn."""
    apexes = g.n if within is None else within.size
    return int(hits.sum()) * apexes + int(hits @ _degrees(g, verts, within)[first])


def _apex_counts(g: Graph, surviving: PairSet, plan: SamplePlan) -> _ApexCounts:
    """Run the estimator for every apex at once over the packed rows."""
    n, m = g.n, plan.m
    universe = surviving.universe_size
    zeros = np.zeros(n, dtype=np.int64)
    outputs = np.full(n, universe / m)
    floor = _ApexCounts(zeros, zeros.astype(bool), zeros, outputs, 0)
    # An empty surviving set reads no draw of the plan.
    if not surviving.mask.any():
        return floor

    slots, hits = _drawn_slots(surviving, plan.screen_draws)
    verts = surviving.verts
    iu, jv = _tri_indices(verts.size)
    first = iu[slots]
    # Every surviving draw is probed, closed or open.
    probes = _stage_probes(g, verts, first, hits)
    # Only the draws of closed pairs can qualify at an apex.
    closed = slots[_common_counts(g, verts[first], verts[jv[slots]]) > 0]
    if closed.size == 0:
        # Every apex screens to the floor; with no surviving draw, after
        # no probe at all.
        return floor._replace(probes=probes)
    is_closed = np.zeros(universe, dtype=bool)
    is_closed[closed] = True
    draws = plan.screen_draws.ravel()
    # Flat plan positions (round * m + column) of the closed draws; a
    # round's draws form one group.
    at = np.flatnonzero(is_closed[draws])
    drawn = draws[at]
    c1 = _apex_column_counts(g, verts[iu[drawn]], verts[jv[drawn]], group=at // m)
    refined = 2 * c1 > plan.rounds

    c2 = zeros
    # Refinement scores every surviving draw, with no closed-pair pass: it
    # runs only when some apex saw a closed draw in most rounds, which takes
    # a block dense in closed pairs, so the pass would add a gather and
    # skip little.
    if refined.any():
        draws3 = plan.refine_draws[surviving.mask[plan.refine_draws]]
        c2 = _apex_column_counts(g, verts[iu[draws3]], verts[jv[draws3]])
        outputs[refined] = c2[refined] * universe / plan.refine
        slots3, hits3 = _drawn_slots(surviving, plan.refine_draws)
        probes += _stage_probes(g, verts, iu[slots3], hits3, np.flatnonzero(refined))
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
