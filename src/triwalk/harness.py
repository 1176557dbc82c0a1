"""Monte Carlo verification campaigns, scaling fits, and reporting.

Each campaign checks one probabilistic guarantee of the machinery at desk
scale and renders a self-contained report: the stored aggregates are
enough to recompute the verdict. Probability verdicts use a 5-sigma slack
below the guaranteed bound (sigma taken at the bound itself), with Wilson
intervals stored alongside for reference. Identical seeds reproduce
identical reports byte for byte.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from ._checks import _check_int, _check_real, _check_seed, _check_type, _checked_reals
from .estimator import SamplePlan, estimate_all_apexes
from .graph import (
    Graph,
    _apex_column_counts,
    brute_force_triangle,
    erdos_renyi,
    is_triangle,
    planted_instance,
    random_bipartite,
)
from .pairs import (
    cover_is_sparsifying,
    sample_cover,
    subset_pair_cap,
    uncovered_pairs,
    uncovered_pairs_at,
)
from .pipeline import (
    AlgoParams,
    FailureInjection,
    RunReport,
    _canonical_json,
    block_size,
    find_triangle,
    naive_triples_baseline,
    sample_size,
    sparse_edges_baseline,
)


VERDICT_Z = 5.0


def wilson_interval(successes: int, trials: int, z: float = VERDICT_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion; z must be a finite real > 0."""
    _check_int("trials", trials, 1, math.inf)
    _check_int("successes", successes, 0, trials)
    _check_real("z", z, "(0, inf)")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def sigma_pass_line(bound: float, trials: int, z: float = VERDICT_Z) -> float:
    """bound minus z standard deviations of a bound-rate binomial mean."""
    _check_real("bound", bound, "[0, 1]")
    _check_int("trials", trials, 1, math.inf)
    _check_real("z", z, "(0, inf)")
    return bound - z * math.sqrt(bound * (1.0 - bound) / trials)


def parse_family(spec: str) -> Callable[[int, int], Graph]:
    """The (n, seed) generator a CLI-style token names: er:p, bipartite, planted, ..."""
    _check_type("family", spec, str)
    if spec.startswith("er:"):
        p = float(spec.split(":", 1)[1])
        return lambda n, seed: erdos_renyi(n, p, seed)
    if spec == "bipartite":
        return random_bipartite
    if spec == "planted":
        return planted_instance
    if spec == "edgeless":
        return lambda n, seed: erdos_renyi(n, 0.0, seed)
    if spec == "complete":
        return lambda n, seed: erdos_renyi(n, 1.0, seed)
    raise ValueError(f"unknown graph family {spec!r}")


def _csv_text(header: Sequence, rows: Iterable[Sequence], summary: Iterable[Sequence]) -> str:
    """A report's CSV form: header, data rows, a blank row, (name, value) rows."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    writer.writerow([])
    writer.writerows(summary)
    return buf.getvalue()


@dataclass
class CampaignReport:
    """One verification campaign: config echo, per-trial outcomes, verdict."""

    campaign: str
    config: dict
    trials: int
    successes: int
    frequency: float
    bound: float
    pass_line: float
    wilson_low: float
    wilson_high: float
    verdict: bool
    per_trial: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @classmethod
    def from_counts(
        cls,
        campaign: str,
        config: dict,
        successes: int,
        trials: int,
        bound: float,
        per_trial: Optional[list] = None,
        extras: Optional[dict] = None,
        verdict: Optional[bool] = None,
    ) -> "CampaignReport":
        lo, hi = wilson_interval(successes, trials)  # checks the counts
        freq = successes / trials
        line = sigma_pass_line(bound, trials)
        return cls(
            campaign=campaign,
            config=config,
            trials=trials,
            successes=successes,
            frequency=freq,
            bound=bound,
            pass_line=line,
            wilson_low=lo,
            wilson_high=hi,
            verdict=(freq >= line) if verdict is None else verdict,
            per_trial=per_trial or [],
            extras=extras or {},
        )

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return _canonical_json(self.to_dict())

    def to_csv(self) -> str:
        summary = [
            ("frequency", self.frequency),
            ("bound", self.bound),
            ("pass_line", self.pass_line),
            ("verdict", int(self.verdict)),
        ]
        return _csv_text(("trial", "outcome"), enumerate(self.per_trial), summary)


def _trial_seeds(seed: int, count: int) -> Iterator[int]:
    """count trial seeds, spawned one at a time from SeedSequence([seed]).

    Each spawn(1) takes the next child, so the seeds equal those of one
    spawn(count), without holding every child before the first trial.
    """
    _check_seed(seed)
    root = np.random.SeedSequence([seed])
    return (int(root.spawn(1)[0].generate_state(1)[0]) for _ in range(count))


def verify_cover_sparsity(
    n: int,
    k: float,
    trials: int,
    family: str = "er:0.5",
    seed: int = 0,
) -> CampaignReport:
    """Sampled covers are sparsifying with frequency at least 1 - 1/n.

    Per trial: draw a graph from the family and a fresh cover, then check
    pointwise that every surviving pair of V has at most n^(1-k) common
    neighbors.
    """
    _check_int("trials", trials, 1)
    AlgoParams(k=k)  # the finder's bounds on the cover exponent
    fam = parse_family(family)
    outcomes = []
    for t_seed in _trial_seeds(seed, trials):
        g = fam(n, t_seed)
        cover = sample_cover(n, k, seed=t_seed)
        outcomes.append(bool(cover_is_sparsifying(g, cover, k)))
    return CampaignReport.from_counts(
        "cover_sparsity",
        {"n": n, "k": k, "trials": trials, "family": family, "seed": seed},
        sum(outcomes),
        trials,
        bound=1.0 - 1.0 / n,
        per_trial=[int(x) for x in outcomes],
    )


def verify_estimator_bounds(
    n: int,
    a: float,
    k: float,
    trials: int,
    family: str = "er:0.5",
    seed: int = 0,
) -> CampaignReport:
    """The estimator brackets every apex simultaneously, rate >= 1 - 3/n.

    Per trial: fix a graph, a cover and a random block of size ceil(n^a);
    compute the exact per-apex counts; run the estimator off one fresh
    plan; succeed iff for every apex w
        count(w)/3 <= estimate(w) <= 1.5 * max(|A|(|A|-1)/(2m), count(w)),
    with the finder's sample count m = ceil(n^k).
    """
    _check_int("trials", trials, 1)
    _check_int("n", n, 4)  # so the bound 1 - 3/n is positive
    AlgoParams(a=a, k=k)  # the finder's bounds on both exponents
    fam = parse_family(family)
    m = sample_size(n, k)
    bsize = block_size(n, a)
    outcomes = []
    rel = 1e-12
    for t_seed in _trial_seeds(seed, trials):
        g = fam(n, t_seed)
        rng = np.random.default_rng([t_seed, 0x3])
        cover = sample_cover(n, k, rng=rng)
        block = np.sort(rng.choice(n, size=bsize, replace=False))
        surviving = uncovered_pairs(g, cover, block)
        counts = _apex_column_counts(g, *surviving.selected_endpoints())  # exact
        plan = SamplePlan(n, m, surviving.universe_size, rng=rng)
        estimates, _ = estimate_all_apexes(g, surviving, plan)
        floor_ref = bsize * (bsize - 1) / (2.0 * m)
        upper = 1.5 * np.maximum(floor_ref, counts)
        ok = np.all(counts / 3.0 <= estimates * (1 + rel)) and np.all(
            estimates <= upper * (1 + rel)
        )
        outcomes.append(bool(ok))
    return CampaignReport.from_counts(
        "estimator_bounds",
        {
            "n": n,
            "a": a,
            "k": k,
            "m": m,
            "trials": trials,
            "family": family,
            "seed": seed,
        },
        sum(outcomes),
        trials,
        bound=1.0 - 3.0 / n,
        per_trial=[int(x) for x in outcomes],
    )


# Named configurations for the subset-cap campaign, each with the graph
# family it draws from. The campaign bound is distribution free, so any
# fixed configuration must satisfy it.
_SUBSET_CAP_FAMILIES = {"er-half": "er:0.5", "er-dense": "er:0.9", "edgeless": "edgeless"}
SUBSET_CAP_CONFIGS = tuple(_SUBSET_CAP_FAMILIES)


def _subset_cap_setup(config: str, size_a: int, seed: int):
    """Graph on size_a + 16 vertices, no cover, block [0, size_a), apex size_a."""
    if config not in SUBSET_CAP_CONFIGS:  # a dict lookup of a list raises TypeError
        raise ValueError(f"unknown subset-cap config {config!r}")
    g = parse_family(_SUBSET_CAP_FAMILIES[config])(size_a + 16, seed)
    block = np.arange(size_a)
    cover = np.array([], dtype=np.int64)
    return g, cover, block, size_a


# The most keys one batch of verify_subset_cap draws (256 trials at
# size_a=128), so the campaign's memory is fixed whatever its trial count.
_CAP_BATCH_KEYS = 1 << 15


def _smallest_keys(keys: np.ndarray, r: int) -> np.ndarray:
    """Per row of ``keys``, a mask of its r smallest keys, as argpartition picks them.

    A row's keys at most its r-th smallest are exactly r unless that key
    is tied, so one partition picks every untied row; a tied row holds more
    than r and goes back through argpartition, which breaks the tie.
    """
    in_b = keys <= np.partition(keys, r - 1, axis=1)[:, r - 1 : r]
    # Every row holds at least r, so a total of r a row means no row ties.
    if np.count_nonzero(in_b) != in_b.shape[0] * r:
        tied = np.flatnonzero(np.count_nonzero(in_b, axis=1) != r)
        picked = np.zeros((tied.size, keys.shape[1]), dtype=bool)
        np.put_along_axis(picked, np.argpartition(keys[tied], r - 1, axis=1)[:, :r], True, axis=1)
        in_b[tied] = picked
    return in_b


def verify_subset_cap(
    size_a: int,
    r: int,
    trials: int,
    config: str = "er-half",
    seed: int = 0,
) -> CampaignReport:
    """Random r-subsets keep a fixed pair and respect the pair cap.

    Fixes a graph, block A, apex and pair; samples B uniformly among the
    r-subsets of A; counts the joint event "pair inside B" and "B's apex
    pairs at most the cap from A's apex-pair count". The guaranteed lower
    bound is (r-1)^2 / (2 |A|^2).

    Each trial draws one uniform key per member of A, and B is the r
    members with keys at most the row's r-th smallest key, found by one
    partition of the batch; only a row tied at that key is picked by
    argpartition (_smallest_keys). Trials run in batches of at most
    _CAP_BATCH_KEYS keys, so memory stays fixed whatever ``trials`` is.
    The batch size never changes a report: ``Generator.random`` takes one
    64-bit output per key in C order, so any batching draws the same keys,
    and each row's pick reads only that row.

    For r <= 33 the cap's 16 r term alone is at least C(r, 2), the most
    apex pairs an r-subset can hold, so the cap never binds and the
    campaign tests only pair retention; the CLI default r=16 is such a
    run. Only r >= 34 can make the apex-pair count matter.
    """
    _check_int("size_a", size_a, 4)
    _check_int("r", r, 4, size_a)
    _check_int("trials", trials, 1)  # a float trials=inf would never end the loop
    g, cover, block, apex = _subset_cap_setup(config, size_a, seed)
    # With no cover every pair survives, so the apex pairs of a subset B are
    # the pairs of B's apex neighbours: C(d, 2) of them, d = |B & N(apex)|.
    assert cover.size == 0
    apex_count = len(uncovered_pairs_at(g, cover, block, apex))
    nbrs = np.flatnonzero(g.bool_row(apex)[block])  # positions in the block
    assert apex_count == math.comb(nbrs.size, 2)
    cap = subset_pair_cap(r, size_a, apex_count)

    rng = np.random.default_rng([seed, 0x4])
    probe = rng.choice(size_a, size=2, replace=False)
    v1, v2 = int(probe[0]), int(probe[1])

    hits = 0
    rows = max(1, _CAP_BATCH_KEYS // size_a)
    for done in range(0, trials, rows):
        in_b = _smallest_keys(rng.random((min(rows, trials - done), size_a)), r)
        keeps_pair = in_b[:, v1] & in_b[:, v2]
        d = in_b[:, nbrs].sum(axis=1)
        apex_pairs = d * (d - 1) // 2
        hits += int((keeps_pair & (apex_pairs <= cap)).sum())

    bound = (r - 1) ** 2 / (2.0 * size_a**2)
    return CampaignReport.from_counts(
        "subset_cap",
        {
            "size_a": size_a,
            "r": r,
            "trials": trials,
            "config": config,
            "seed": seed,
            "apex_pair_count": int(apex_count),
            "cap": float(cap),
            "probe_pair": [v1, v2],
        },
        hits,
        trials,
        bound=bound,
    )


@dataclass
class FitResult:
    """Least-squares fit of log(mean charge) against log(n)."""

    slope: float
    intercept: float
    r_squared: float
    points: list  # (n, mean, std, trials)
    algo: str = ""
    family: str = ""

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "points": [
                {"n": n, "mean": mean, "std": std, "trials": trials}
                for (n, mean, std, trials) in self.points
            ],
            "algo": self.algo,
            "family": self.family,
        }

    def to_json(self) -> str:
        return _canonical_json(self.to_dict())

    def to_csv(self) -> str:
        summary = [
            ("slope", self.slope),
            ("intercept", self.intercept),
            ("r_squared", self.r_squared),
        ]
        return _csv_text(("n", "mean", "std", "trials"), self.points, summary)


def fit_loglog(points: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """(slope, intercept, r^2) of a straight line through log-log points."""
    pts = _checked_reals("fit points", points, "(0, inf)")
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise ValueError("need at least two (x, y) points to fit")
    lx, ly = np.log(pts.T)
    design = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), residual, *_ = np.linalg.lstsq(design, ly, rcond=None)
    predicted = design @ np.array([slope, intercept])
    ss_res = float(np.sum((ly - predicted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


# The algorithms scaling_fit runs: the finder and the two baselines.
ALGOS = ("walk", "naive", "edges")


def _run_algo(algo: str, g: Graph, params: AlgoParams, seed: int) -> RunReport:
    """One run of ``algo``, which scaling_fit has checked is in ALGOS."""
    if algo == "walk":
        return find_triangle(g, replace(params, seed=seed))
    if algo == "naive":
        return naive_triples_baseline(g, params.log_factors)
    return sparse_edges_baseline(g, params.log_factors)


def scaling_fit(
    n_grid: Sequence[int],
    algo: str,
    trials_per_n: int,
    family: str = "er:0.5",
    params: Optional[AlgoParams] = None,
    seed: int = 0,
) -> FitResult:
    """Mean charged total per grid point, fitted on the log-log scale."""
    _check_type("n_grid", n_grid, (Sequence, np.ndarray))
    _check_int("scaling grid size", len(n_grid), 3)
    _check_int("trials_per_n", trials_per_n, 1)
    _check_seed(seed)
    if algo not in ALGOS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGOS}")
    params = AlgoParams() if params is None else params
    _check_type("params", params, AlgoParams)
    low = {"walk": params.n_min_guard, "naive": 3}.get(algo, 1)  # the least n a run takes
    for n in n_grid:
        _check_int("grid point n", n, low)
    fam = parse_family(family)
    points = []
    for idx, n in enumerate(n_grid):
        totals = []
        for t_seed in _trial_seeds(seed + idx, trials_per_n):
            g = fam(n, t_seed)
            totals.append(_run_algo(algo, g, params, t_seed).total)
        arr = np.asarray(totals)
        points.append((int(n), float(arr.mean()), float(arr.std()), trials_per_n))
    slope, intercept, r2 = fit_loglog([(n, mean) for n, mean, _, _ in points])
    return FitResult(slope, intercept, r2, points, algo=algo, family=family)


_MIX_FAMILIES = ("er:0.1", "er:0.5", "er:0.9", "bipartite", "planted")


def correctness_suite(
    max_n: int,
    cases: int,
    seed: int = 0,
    injection: Optional[FailureInjection] = None,
    planted_cases: int = 20,
    planted_n: int = 512,
) -> CampaignReport:
    """Finder versus ground truth over a mixed corpus.

    Small cases cycle through the families at sizes in [12, max_n] with
    guards relaxed; planted_cases large planted positives run at
    planted_n. With injection off the verdict is perfect agreement on
    triangle existence plus verification of every reported triangle. With
    injection on, the verdict is the detection rate on positives against
    the 2/3 floor with zero false positives on negatives.
    """
    params = AlgoParams(failure_injection=injection, n_min_guard=12)
    _check_seed(seed)
    _check_int("cases", cases, 0)
    _check_int("planted_cases", planted_cases, 0)
    if cases + planted_cases == 0:
        raise ValueError("the suite needs at least one case")
    if cases:
        _check_int("max_n", max_n, params.n_min_guard)
    if planted_cases:
        _check_int("planted_n", planted_n, params.n_min_guard)
    rng = np.random.default_rng([seed, 0x5])
    agree = 0  # runs whose answer matches the truth and verifies
    per_trial = []
    for i in range(cases + planted_cases):
        if i < cases:
            spec = _MIX_FAMILIES[i % len(_MIX_FAMILIES)]
            n = int(rng.integers(params.n_min_guard, max_n + 1))
        else:
            spec, n = "planted", planted_n
        t_seed = int(rng.integers(0, 2**31))
        g = parse_family(spec)(n, t_seed)
        report = find_triangle(g, replace(params, seed=t_seed))
        found = report.outcome is not None
        exists = brute_force_triangle(g) is not None
        agree += found == exists and (not found or is_triangle(g, report.outcome))
        per_trial.append({"n": g.n, "exists": exists, "found": found})
    total = len(per_trial)
    positives = sum(t["exists"] for t in per_trial)
    detected = sum(t["exists"] and t["found"] for t in per_trial)
    false_positives = sum(t["found"] and not t["exists"] for t in per_trial)

    config = {
        "max_n": max_n,
        "cases": cases,
        "planted_cases": planted_cases,
        "planted_n": planted_n,
        "seed": seed,
        "injection": None if injection is None else asdict(injection),
    }
    extras = {
        "agreement": agree,
        "total": total,
        "positives": positives,
        "detected": detected,
        "false_positives": false_positives,
        "detection_rate": (detected / positives) if positives else None,
    }
    if injection is None:
        campaign, successes, trials, bound = "correctness", agree, total, 1.0
        verdict = agree == total
    else:
        campaign, successes, trials, bound = "detection_floor", detected, max(positives, 1), 2 / 3
        line = sigma_pass_line(bound, positives) if positives else bound
        verdict = false_positives == 0 and (positives == 0 or detected / positives >= line)
    return CampaignReport.from_counts(
        campaign,
        config,
        successes,
        trials,
        bound=bound,
        per_trial=per_trial,
        extras=extras,
        verdict=verdict,
    )
