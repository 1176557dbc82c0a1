"""End-to-end charged triangle finder and baseline algorithms.

The finder emulates, level by level, a quantum strategy built from plain
search, variable-cost search and subset walks, charging each level's query
budget while computing exact answers classically:

1. Sample a cover of ~n^k log n vertices and search for a triangle with a
   vertex in the cover (plain search over cover x all pairs). Covered
   pairs are thereby dealt with: afterwards every edge of every remaining
   triangle survives pruning.
2. Walk over the blocks (subsets of size ceil(n^a)) of the vertex set,
   looking for a block whose surviving pairs contain a triangle edge,
   while carrying the block's surviving pairs in the walk data structure.
   When the cover search found nothing, no cover vertex lies in a
   triangle, so neither an edge at the cover nor a covered edge (whose
   cover neighbour would close it) is a triangle edge (Le Gall, §3): the
   emulation then scans only the edges of G[V - C]. The block check's
   answer is that scan's hit, with no separate witness search: the
   witness block holds the hit edge, and with no hit in V no block holds
   a surviving triangle edge.
3. Per apex vertex w, estimate the block's surviving pairs at w, then walk
   over inner subsets of size ceil(n^(2a/3)) of the block; dispatch over
   apexes with variable-cost search.
4. Extract the triangle with one last search over the inner subset's
   surviving pairs at the apex, plus a completion search.

Charged totals live on a per-phase ledger. find_triangle charges and logs
each plain search itself (cover search, extraction, completion search),
so search_cover_triangles only scans; search_blocks and find_apex_witness
charge the walk phases. After each level find_triangle returns early
once the ledger's total exceeds the budget. With log factors disabled
(default) the charges use the power-law skeletons of the log-sized
quantities (cover size -> ceil(n^k), estimator run -> ceil(m)), so the
fitted exponent reads the power law; enabling log factors restores the
actual cover size, the estimator's ceil(m ln n), and the per-formula
ceil(ln .) repetition factors.

Failure injection (opt-in) suppresses witnesses at the configured stage
gates; it never fabricates, so reported triangles verify under any
injection. The stage functions only compute and charge: find_triangle
draws every gate from one stream, in stage order (the search gate on a
cover hit, the checker gate on the block check's witness, the walk gate on
the block walk's hit, the search gate at extraction). The checker gate
only clears the charge log's outer.check_witness_found: the subset walk's
success floor already accounts for checker error, so the walk gate (then
the search gate at extraction) decides a walk-path outcome. Drawing first,
the checker gate still moves the walk gate's draw.

find_triangle checks its arguments once. The stages it calls,
search_cover_triangles, search_blocks and find_apex_witness, are internal
and check nothing; their names are fixed by perfbench's tracer, which
wraps them in this module by name.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from math import comb
from typing import Optional

import numpy as np

from ._checks import _check_bool, _check_int, _check_real, _check_seed, _check_type
from .costs import (
    WalkCharge,
    grover_cost,
    log_multiplier,
    variable_search_cost,
    walk_cost,
    walk_cost_terms,
)
from .estimator import SamplePlan, estimate_all_apexes, estimator_charge
from .graph import (
    Graph, QueryLedger, Triangle, _first_closed_pair, brute_force_triangle, is_triangle,
)
from .pairs import PairSet, sample_cover, subset_pair_cap, uncovered_pairs, uncovered_pairs_at


PHASES = (
    "cover_search",
    "outer_setup",
    "outer_update",
    "outer_check_estimator",
    "inner_walk",
    "extraction",
    "final_search",
)


@dataclass(frozen=True)
class FailureInjection:
    """Per-stage success probabilities; None leaves a stage deterministic."""

    walk_success: Optional[float] = None
    check_success: Optional[float] = None
    search_success: Optional[float] = None

    def __post_init__(self):
        for name in ("walk_success", "check_success", "search_success"):
            if getattr(self, name) is not None:
                _check_real(name, getattr(self, name), "[0, 1]")


_NO_INJECTION = FailureInjection()


# find_triangle stops once the charged total exceeds this multiple of
# cost_envelope (times a polylog with log factors on).
BUDGET_MULTIPLIER = 10.0


@dataclass(frozen=True)
class AlgoParams:
    """Tuning of the charged finder.

    a sizes the outer blocks (ceil(n^a)); k sizes the cover exponent and
    the estimator sample count. Defaults a=3/4, k=1/2 make the top-level
    charge profile ~n^(5/4). log_factors multiplies each cost formula by
    its ceil(ln ...) repetition factor and charges the log-sized
    quantities at their actual size (sampled cover, estimator run); off
    by default, so fitted exponents read the power law. The guard keeps n
    large enough that the inner subset size exceeds 3, which the subset
    cap formula needs.
    """

    a: float = 0.75
    k: float = 0.5
    log_factors: bool = False
    failure_injection: Optional[FailureInjection] = None
    seed: int = 0
    n_min_guard: int = 64

    def __post_init__(self):
        _check_real("block exponent a", self.a, "(0, 1)")
        _check_real("cover exponent k", self.k, "(0, 1)")
        _check_bool("log_factors", self.log_factors)
        _check_seed(self.seed)
        _check_type("failure_injection", self.failure_injection, (FailureInjection, type(None)))
        _check_int("n_min_guard", self.n_min_guard, 0)


def block_size(n: int, a: float) -> int:
    return math.ceil(n**a)


def inner_size(n: int, a: float) -> int:
    return math.ceil(n ** (2.0 * a / 3.0))


def sample_size(n: int, k: float) -> int:
    return math.ceil(n**k)


def cost_envelope(n: int, a: float, k: float) -> float:
    """Closed-form charge envelope of the whole pipeline (no polylogs)."""
    return (
        n ** (1.0 + k / 2.0)
        + n ** (0.5 + a)
        + n ** (a + k)
        + n ** (1.0 - a / 2.0 + k)
        + n**1.5 * (n ** (k - a) + n ** (-a / 3.0) + n ** (-k / 2.0))
    )


def _substream(seed: int, index: int) -> np.random.Generator:
    """Generator of find_triangle's seed substream ``index``: the same stream
    as child ``index`` of SeedSequence([seed]).spawn(4), built on its own."""
    return np.random.default_rng(np.random.SeedSequence([seed], spawn_key=(index,)))


def _suppressed(p: Optional[float], rng: Optional[np.random.Generator]) -> bool:
    """True when a stage gate of success probability p suppresses a witness.

    None means no gate and no draw (an uninjected run passes no rng); a
    configured gate draws once from rng and suppresses with chance 1 - p.
    """
    return p is not None and rng.random() >= p


def _first_surviving_triangle_edge(
    g: Graph, cover, cover_negative: bool = False
) -> Optional[tuple[int, int, int]]:
    """Smallest uncovered triangle edge plus its smallest apex.

    The first edge, in canonical edge order, that has a common neighbour
    and none in the cover; found by an early-exit scan. With
    ``cover_negative`` (no cover vertex lies in a triangle) that is the
    first triangle edge of G[V - C], so only those edges are scanned.
    """
    if cover_negative:
        keep = np.ones(g.n, dtype=bool)
        keep[cover] = False
        rest = np.flatnonzero(keep)
        return _first_closed_pair(g, rest, within=rest)
    return _first_closed_pair(g, np.arange(g.n), exclude=cover)


def _fill_vertices(n: int, required: tuple[int, ...], size: int) -> np.ndarray:
    """required plus the smallest other vertices of [0, n), sorted, size in all."""
    required_arr = np.asarray(sorted(required), dtype=np.int64)
    rest = np.ones(n, dtype=bool)
    rest[required_arr] = False
    return np.sort(np.concatenate([required_arr, np.flatnonzero(rest)[: size - required_arr.size]]))


def _plain_search(
    ledger: QueryLedger, log: dict, phase: str, domain: int, log_factors: bool
) -> None:
    """Charge one plain search over domain to phase and log its domain."""
    ledger.charge(phase, grover_cost(domain, 1.0, log_factors))
    log[phase] = {"domain": domain, "t": 1.0}


def search_cover_triangles(g: Graph, cover) -> Optional[Triangle]:
    """Phase-one scan over (cover vertex, vertex pair) for a triangle.

    find_triangle charges the plain search over the product domain; this
    scan only computes its answer. Exact emulation returns the smallest
    cover vertex c in a triangle, closed by the smallest edge inside N(c):
    the first pair (c, x), with the cover as heads, whose rows share a
    vertex gives the smallest x of N(c) with a neighbour in N(c), and its
    lowest shared bit y lies above x (a smaller y would itself be such a
    vertex). The x that the pair stream skips, earlier cover vertices,
    have none: their pair with c was read first. The cover must be sorted
    and duplicate-free, as sample_cover returns it.
    """
    hit = _first_closed_pair(g, cover)
    return None if hit is None else Triangle(*sorted(hit))


def find_apex_witness(
    g: Graph,
    surviving: PairSet,
    ledger: QueryLedger,
    rng: np.random.Generator,
    *,
    r: int,
    m: int,
    log_factors: bool,
    charge_scale: float = 1.0,
) -> dict:
    """Charge the block check: do a block's surviving pairs hold a triangle edge?

    The block is surviving.verts, of size ceil(n^a); r is the inner subset
    size ceil(n^(2a/3)), which find_triangle has checked lies in
    [4, ceil(n^a)], and m the estimator sample count ceil(n^k).

    Charged model, per apex w:
      Q(w) = estimator charge
           + walk over inner subsets of size r with setup r, update 2,
             marked fraction at least (r-1)^2 / (2 |A|^2), and checking
             cost sqrt(cap(w)) where cap(w) is the subset pair cap with
             the estimate standing in for a third of the true count.
    The dispatch over apexes is charged sqrt(sum_w Q(w)^2); its estimator
    and walk shares, split pro rata by each component's linear mass so
    they add up to the total, go to the outer_check_estimator and
    inner_walk ledger phases, scaled by charge_scale (callers embedding
    this as a walk's checking step pass their amplification factor).

    The function only charges: estimator runs for every apex, planned from
    rng (handed to the plan, which owns it), execute on the raw side
    (their probes are added to the ledger's raw count), and only the
    dispatch total enters the charged model. The check's answer is
    search_blocks' scan hit, so no witness is searched here; the name is
    kept because perfbench's tracer wraps this function by it.

    Returns the entries of the charge log's outer record that it computes:
    check_total (the dispatch total), estimator_each (one estimator run's
    charge), and inner_subset_size and inner_eps (the inner walk's subset
    size r and marked fraction).
    """
    n = g.n
    bsize = surviving.verts.size

    plan = SamplePlan(n, m, surviving.universe_size, rng=rng)
    estimates, probes = estimate_all_apexes(g, surviving, plan)
    ledger.add_raw(probes)

    est_each = float(estimator_charge(n, m) if log_factors else m)
    caps = subset_pair_cap(r, bsize, 3.0 * estimates)
    eps = (r - 1) ** 2 / (2.0 * bsize**2)
    per_apex = est_each + walk_cost(
        WalkCharge(r, 2.0, np.sqrt(caps), r, eps), log_factors
    )
    total = variable_search_cost(per_apex, log_factors)
    est_share = total * (n * est_each / float(per_apex.sum()))
    walk_share = total - est_share
    ledger.charge("outer_check_estimator", charge_scale * est_share)
    ledger.charge("inner_walk", charge_scale * walk_share)
    return {
        "check_total": float(total),
        "estimator_each": float(est_each),
        "inner_subset_size": int(r),
        "inner_eps": float(eps),
    }


def search_blocks(
    g: Graph,
    cover,
    ledger: QueryLedger,
    plan_rng: np.random.Generator,
    seed: int,
    *,
    r: int,
    bsize: int,
    m: int,
    x_charge: int,
    log_factors: bool,
    cover_negative: bool = False,
) -> tuple[Optional[tuple[int, tuple[int, int]]], dict]:
    """Walk over blocks of size bsize = ceil(n^a), looking for a surviving triangle edge.

    find_triangle computes the sizes once: the block size, the inner subset
    size r and sample count m (passed on to find_apex_witness), and the
    cover's charge size x_charge, which its cover search also charges.
    Charges the walk's setup (block x cover loads), update and checking
    terms; the checking cost comes from one representative apex scan
    (find_apex_witness, estimator plan from plan_rng), run on the found
    witness block when one exists and otherwise on a block drawn from
    find_triangle's seed substream 2, built only then. Emulation reduces
    "some block's surviving pairs contain a triangle edge" to "the vertex
    set's surviving pairs contain a triangle edge" and returns the smallest such edge (u, v) with its smallest apex,
    as (apex, (u, v)); the witness block is the edge endpoints plus
    smallest-index fill. The block check's answer is that scan's hit: the
    witness block holds the hit edge, and with no hit in V no block holds
    one, so the log's check_witness_found equals witness_exists. Pass
    cover_negative=True only when no cover vertex lies in a triangle (the
    cover scan found nothing); the edge scan then skips every edge that
    touches the cover.
    """
    n = g.n
    eps_outer = bsize * (bsize - 1) / (n * (n - 1))

    hit = _first_surviving_triangle_edge(g, cover, cover_negative)
    if hit is not None:
        u, v, apex = hit
        block = _fill_vertices(n, (u, v), bsize)
    else:
        block = np.sort(_substream(seed, 2).choice(n, size=bsize, replace=False))

    surviving = uncovered_pairs(g, cover, block)
    check_scale = log_multiplier(bsize, log_factors) / math.sqrt(eps_outer)
    check_log = find_apex_witness(
        g, surviving, ledger, plan_rng, r=r, m=m, log_factors=log_factors,
        charge_scale=check_scale,
    )

    outer = WalkCharge(
        setup=bsize * x_charge,
        update=2.0 * x_charge,
        check=check_log["check_total"],
        r=bsize,
        eps=eps_outer,
    )
    term_setup, term_update, _ = walk_cost_terms(outer, log_factors)
    ledger.charge("outer_setup", term_setup)
    ledger.charge("outer_update", term_update)

    log = {
        "block_size": int(bsize),
        "eps": float(eps_outer),
        "setup": float(outer.setup),
        "update": float(outer.update),
        "cover_charge_size": int(x_charge),
        **check_log,
        "check_scale": float(check_scale),
        "witness_exists": hit is not None,
        "check_witness_found": hit is not None,
    }
    return (None if hit is None else (apex, (u, v))), log


def _canonical_json(blob: dict) -> str:
    """A report's JSON form: sorted keys, two-space indent, one final newline."""
    return json.dumps(blob, sort_keys=True, indent=2) + "\n"


@dataclass
class RunReport:
    """Outcome and full charge breakdown of one finder run.

    Raw probes count oracle-granular adjacency reads (estimator probes and
    explicit queries); bulk emulation scans are not metered. Serialized
    report files null out wall_ms so identical seeds reproduce
    byte-identical JSON; pass include_timing=True for the measured value.
    """

    n: int
    algo: str
    outcome: Optional[Triangle]
    charges: dict[str, float]
    raw_probes: int
    params: dict
    charge_log: dict
    stopped_early: bool = False
    wall_ms: float = 0.0

    @property
    def total(self) -> float:
        return sum(self.charges.values())

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "n": self.n,
            "algo": self.algo,
            "params": self.params,
            "outcome": {
                "found": self.outcome is not None,
                "vertices": list(self.outcome) if self.outcome is not None else None,
            },
            "charges": {k: float(v) for k, v in sorted(self.charges.items())},
            "total_charge": float(self.total),
            "raw_probes": int(self.raw_probes),
            "stopped_early": self.stopped_early,
            "charge_log": self.charge_log,
            "wall_ms": float(self.wall_ms) if include_timing else None,
        }

    def to_json(self, include_timing: bool = False) -> str:
        return _canonical_json(self.to_dict(include_timing))


def _params_dict(params: AlgoParams) -> dict:
    out = {
        "a": params.a,
        "k": params.k,
        "log_factors": params.log_factors,
        "seed": params.seed,
    }
    # Recorded only when configured, so uninjected reports keep their bytes.
    if params.failure_injection is not None:
        out["failure_injection"] = asdict(params.failure_injection)
    return out


def find_triangle(g: Graph, params: AlgoParams) -> RunReport:
    """Run the full charged pipeline on one graph.

    Deterministic given (graph, params): the seed drives the cover sample,
    the estimator plan, the representative block and any injection draws
    through split substreams, each built only when the run reads it. Stops
    early, reporting no triangle, if the charged total ever exceeds
    BUDGET_MULTIPLIER times the closed-form envelope (times ceil(ln n)^3
    when log factors are on); the stop never fires on honest inputs.
    """
    _check_type("g", g, Graph)
    _check_type("params", params, AlgoParams)
    n = g.n
    _check_int("graph size n", n, params.n_min_guard)
    r = inner_size(n, params.a)
    bsize = block_size(n, params.a)
    _check_int(f"inner subset size at n={n}, a={params.a}", r, 4, bsize)

    t0 = time.perf_counter()
    log_factors = params.log_factors
    seed = params.seed
    # Each substream is built where it is first read: the injection stream
    # only when injection is configured, the plan stream only on the walk
    # path, and the block stream (in search_blocks) only when its edge scan
    # finds no hit.
    inj = params.failure_injection or _NO_INJECTION
    rng_inj = None if params.failure_injection is None else _substream(seed, 3)

    ledger = QueryLedger()
    budget = BUDGET_MULTIPLIER * cost_envelope(n, params.a, params.k)
    if log_factors:
        # Three nested log-carrying levels (outer walk, apex dispatch,
        # inner walk) stack their repetition factors, so the budget's
        # polylog must too.
        budget *= max(1, math.ceil(math.log(n))) ** 3
    charge_log: dict = {"budget": float(budget)}

    def report(outcome: Optional[Triangle], stopped: bool = False) -> RunReport:
        if outcome is not None and not is_triangle(g, outcome):
            # Verification before emission; exact emulation never gets here.
            outcome = None
        return RunReport(
            n=n,
            algo="walk",
            outcome=outcome,
            charges={phase: ledger.charged.get(phase, 0.0) for phase in PHASES},
            raw_probes=ledger.raw_probes,
            params=_params_dict(params),
            charge_log=charge_log,
            stopped_early=stopped,
            wall_ms=(time.perf_counter() - t0) * 1000.0,
        )

    cover = sample_cover(n, params.k, rng=_substream(seed, 0))
    charge_log["cover_size"] = int(cover.size)
    # The cover's charge-side size: the sampled set with logs, its skeleton without.
    x_charge = len(cover) if log_factors else sample_size(n, params.k)
    _plain_search(ledger, charge_log, "cover_search", x_charge * comb(n, 2), log_factors)
    found = search_cover_triangles(g, cover)
    if ledger.total > budget:
        return report(None, stopped=True)
    if found is not None and not _suppressed(inj.search_success, rng_inj):
        return report(found)

    # A suppressed hit still puts a cover vertex in a triangle, so only a
    # negative scan lets the walk skip the edges at the cover.
    witness, outer_log = search_blocks(
        g,
        cover,
        ledger,
        plan_rng=_substream(seed, 1),
        seed=seed,
        r=r,
        bsize=bsize,
        m=sample_size(n, params.k),
        x_charge=x_charge,
        log_factors=log_factors,
        cover_negative=found is None,
    )
    charge_log["outer"] = outer_log
    if outer_log["check_witness_found"] and _suppressed(inj.check_success, rng_inj):
        outer_log["check_witness_found"] = False
    outer_log["suppressed"] = witness is not None and _suppressed(inj.walk_success, rng_inj)
    if ledger.total > budget:
        return report(None, stopped=True)
    if witness is None or outer_log["suppressed"]:
        return report(None)

    apex, pair = witness
    at_apex = uncovered_pairs_at(g, cover, _fill_vertices(n, pair, r), apex)
    _plain_search(ledger, charge_log, "extraction", max(1, len(at_apex)), log_factors)
    _plain_search(ledger, charge_log, "final_search", n * comb(bsize, 2), log_factors)
    if ledger.total > budget:
        return report(None, stopped=True)
    if _suppressed(inj.search_success, rng_inj):
        return report(None)
    return report(Triangle(*sorted((*pair, apex))))


def _baseline_report(
    g: Graph, algo: str, phase: str, charge: float, log_entry: dict, log_factors: bool, t0: float
) -> RunReport:
    """A baseline's one-phase report, its outcome the exact answer."""
    return RunReport(
        n=g.n,
        algo=algo,
        outcome=brute_force_triangle(g),
        charges={phase: charge},
        raw_probes=0,
        params={"a": None, "k": None, "log_factors": log_factors, "seed": None},
        charge_log={phase: log_entry},
        wall_ms=(time.perf_counter() - t0) * 1000.0,
    )


def naive_triples_baseline(g: Graph, log_factors: bool = False) -> RunReport:
    """Plain search over all vertex triples: charge sqrt(C(n,3))."""
    _check_type("g", g, Graph)
    _check_bool("log_factors", log_factors)
    _check_int("vertex count of a triple search", g.n, 3)
    t0 = time.perf_counter()
    domain = comb(g.n, 3)
    charge = grover_cost(domain, 1.0, log_factors)
    return _baseline_report(
        g, "naive", "triples_search", charge, {"domain": domain, "t": 1.0}, log_factors, t0
    )


def sparse_edges_baseline(g: Graph, log_factors: bool = False) -> RunReport:
    """Edge-count-aware baseline: charge n + sqrt(n m) for m true edges."""
    _check_type("g", g, Graph)
    _check_bool("log_factors", log_factors)
    t0 = time.perf_counter()
    m_edges = g.edge_count
    charge = (g.n + math.sqrt(g.n * m_edges)) * log_multiplier(g.n, log_factors)
    return _baseline_report(
        g, "edges", "edge_search", charge, {"edges": int(m_edges)}, log_factors, t0
    )
