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

The randomness is a fixed draw plan materialized once per (block, m) from
one rng and shared by every apex, which is what makes "the bounds hold for
all apexes simultaneously for most plans" a meaningful, testable event.
Guarantee over the plan draw: with probability at least 1 - 3/n, for every
apex w the output lies in
    [count(w) / 3,  1.5 * max(|A|(|A|-1)/(2m), count(w))].

Since the plan is shared, one pass scores every apex: a drawn pair (u, v)
qualifies exactly at the common neighbours of u and v. c1 counts, per
apex, the rounds with a qualifying surviving draw, and c2 the qualifying
surviving refinement draws (graph._apex_column_counts, c1 with the rounds
as groups). Adjacency probes short-circuit, which gives the closed form
    probes(w) = S1 + F1(w) + [2 c1(w) > rounds] * (S3 + F3(w)),
with S1, S3 the surviving screen / refinement draws and F1(w), F3(w)
those of them whose first endpoint neighbours w. Only the total over
apexes reaches a report, and summed over w, F1 is the total degree of
the screen draws' first endpoints and F3, over the refined apexes, the
total of |N(first endpoint) & refined|: first-endpoint counts times the
block's degrees. The refinement draws (c2, S3, F3) are scored only when
some apex reaches stage 3; otherwise every output is the floor.

A pair whose endpoints have no common neighbour (an open pair) qualifies
at no apex. So the screen counts the common neighbours of each distinct
surviving pair it drew once, then scores only the draws of the other
(closed) pairs; the probe total still counts every surviving draw. Where
the cover prunes the closed pairs, as on random_bipartite inputs, no
screen draw is scored past that one pass.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .graph import Graph, QueryLedger, _apex_column_counts, _common_counts, _degrees
from .pairs import PairSet

__all__ = ["estimator_charge"]

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
    """The estimator's random draws, materialized once and shared by apexes.

    Both stages' pair indices are drawn eagerly at construction (the
    refinement draws exist in the plan whether or not a given apex reaches
    stage 3), so two apexes evaluated against the same plan consume
    identical draws and the whole run is a deterministic function of
    (plan, apex). Unchecked: callers pass n >= 2, m >= 1 and the universe
    size of the pair set the plan is scored against.
    """

    __slots__ = ("m", "rounds", "refine", "screen_draws", "refine_draws")

    def __init__(self, n: int, m: int, pair_universe: int, rng: np.random.Generator):
        self.m = m
        self.rounds = screen_rounds(n)
        self.refine = refine_draws(n, m)
        self.screen_draws = rng.integers(0, pair_universe, size=(self.rounds, m))
        self.refine_draws = rng.integers(0, pair_universe, size=self.refine)


class _ApexCounts(NamedTuple):
    """Every apex's estimator counters against one plan, and the probe total."""

    c1: np.ndarray
    refined: np.ndarray
    c2: np.ndarray
    outputs: np.ndarray
    probes: int


def _second_probes(g: Graph, first: np.ndarray, verts: np.ndarray, within=None) -> int:
    """Sum over apexes w of the draws whose first endpoint neighbours w: over
    draws, the first endpoint's degree (within the packed apex mask ``within``
    when given). ``first`` holds block vertices, so only their degrees are taken."""
    weights = np.bincount(first, minlength=g.n)[verts]
    return int(weights @ _degrees(g, verts, within))


def _apex_counts(g: Graph, surviving: PairSet, plan: SamplePlan) -> _ApexCounts:
    """Run the estimator for every apex at once over the packed rows."""
    n, m = g.n, plan.m
    pu, pv = surviving.endpoint_arrays()
    universe = surviving.universe_size
    # Flat plan positions (round * m + column) of the surviving screen draws.
    draws1 = plan.screen_draws.ravel()
    kept1 = np.flatnonzero(surviving.mask[draws1])
    zeros = np.zeros(n, dtype=np.int64)
    outputs = np.full(n, universe / m)
    if kept1.size == 0:
        # No draw lands in the surviving set: every apex screens to the
        # floor without a single adjacency probe.
        return _ApexCounts(zeros, zeros.astype(bool), zeros, outputs, 0)

    slots1 = draws1[kept1]
    verts = surviving.verts
    # Every surviving draw is probed, closed or open.
    probes = n * slots1.size + _second_probes(g, pu[slots1], verts)
    # Only the draws of closed pairs can qualify at an apex. Each distinct
    # drawn pair's common neighbours are counted once.
    closed = np.zeros(universe, dtype=bool)
    closed[slots1] = True
    distinct = np.flatnonzero(closed)
    closed[distinct] = _common_counts(g, pu[distinct], pv[distinct]) > 0
    closed1 = kept1[closed[slots1]]
    slots1 = draws1[closed1]  # a round's draws form one group
    c1 = _apex_column_counts(g, pu[slots1], pv[slots1], group=closed1 // m)
    refined = 2 * c1 > plan.rounds

    c2 = zeros
    # Refinement scores every surviving draw, with no closed-pair pass: it
    # runs only when some apex saw a closed draw in most rounds, which takes
    # a block dense in closed pairs, so the pass would add a gather and
    # skip little.
    if refined.any():
        slots3 = plan.refine_draws[surviving.mask[plan.refine_draws]]
        first3 = pu[slots3]
        c2 = _apex_column_counts(g, first3, pv[slots3])
        outputs[refined] = c2[refined] * universe / plan.refine
        within = g.pack_set(np.flatnonzero(refined))
        probes += int(refined.sum()) * slots3.size + _second_probes(g, first3, verts, within)
    return _ApexCounts(c1, refined, c2, outputs, probes)


def estimate_all_apexes(
    g: Graph,
    surviving: PairSet,
    plan: SamplePlan,
    ledger: Optional[QueryLedger] = None,
) -> tuple[np.ndarray, int]:
    """Evaluate the estimator for every apex at once against one plan.

    Returns (outputs indexed by apex, total raw probes). Emulation-side
    helper: raw probes are tallied on the ledger but nothing is charged;
    the caller owns the charged model (one estimator charge per apex
    enters the per-apex dispatch cost). Unchecked: ``plan`` must be drawn
    for ``surviving.universe_size`` pairs.
    """
    counts = _apex_counts(g, surviving, plan)
    if ledger is not None:
        ledger.add_raw(counts.probes)
    return counts.outputs, counts.probes
