"""The benchmark's four workloads, built on the public ``triwalk`` API.

A trial is two steps: generate the input from the trial seed, then make
one library call. Each workload also says how to check a trial's report.
The library is always reached through module attributes looked up at call
time (``triwalk.pipeline.find_triangle``, ``triwalk.harness.scaling_fit``)
so that the traced run's wrappers see the bench's own calls too.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import triwalk.graph
import triwalk.harness
import triwalk.pairs
import triwalk.pipeline

from triwalk.graph import Graph, Triangle

# Seed-stream tag for the isolated-triangle vertices, so they stay
# independent of the bipartite base drawn from the same seed.
_TAG_ISOLATED = 0x17
# Report digests are recorded for this seed only.
DEFAULT_SEED = 0
# Seeds of the warm-up trial (index -1): fixed, so every process pays the
# same set-up.
WARMUP_SEED = 0x5EED


def trial_seeds(seed: int, index: int) -> tuple[int, int]:
    """(input seed, algorithm seed) of trial ``index`` of a run seeded ``seed``."""
    state = np.random.SeedSequence([seed, index]).generate_state(2)
    return int(state[0]), int(state[1])


def report_digest(report) -> str:
    """First 16 hex digits of the sha256 of a report's canonical JSON.

    Works for RunReport, CampaignReport and FitResult alike.
    """
    return hashlib.sha256(report.to_json().encode()).hexdigest()[:16]


def pick_isolated(n: int, seed: int, cover, on_cover: bool) -> Triangle:
    """The three vertices isolated_triangle(n, seed, ...) joins into a triangle.

    They avoid ``cover``, or with ``on_cover`` the first one is drawn from
    it and the other two from anywhere.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    rng = np.random.default_rng([seed, _TAG_ISOLATED])
    in_cover = np.zeros(n, dtype=bool)
    in_cover[cover] = True
    if on_cover:
        first = rng.choice(np.flatnonzero(in_cover))
        rest = rng.choice(np.delete(np.arange(n), first), size=2, replace=False)
        picked = np.concatenate([[first], rest])
    else:
        picked = rng.choice(np.flatnonzero(~in_cover), size=3, replace=False)
    a, b, c = (int(v) for v in np.sort(picked))
    return Triangle(a, b, c)


def isolated_triangle(n: int, seed: int, tri: Triangle) -> Graph:
    """A graph whose only triangle is ``tri``, whose vertices have no other edge.

    Starts from ``random_bipartite(n, seed)``, which is triangle-free,
    removes every edge of the three vertices and joins the three. Every
    other edge stays inside the bipartite base, so ``tri`` is the only
    triangle.
    """
    dense = np.array(triwalk.graph.random_bipartite(n, seed).bool_matrix)
    a, b, c = tri
    dense[[a, b, c], :] = False
    dense[:, [a, b, c]] = False
    for x, y in ((a, b), (a, c), (b, c)):
        dense[x, y] = dense[y, x] = True
    return Graph(dense)


def finder_cover(n: int, algo_seed: int) -> np.ndarray:
    """The cover find_triangle draws for AlgoParams(seed=algo_seed) on n vertices.

    find_triangle feeds its first seed substream to sample_cover. A change
    there changes report bytes too, and walk-positive's path check fails.
    """
    rng = np.random.default_rng(np.random.SeedSequence([algo_seed]).spawn(4)[0])
    return triwalk.pairs.sample_cover(n, triwalk.pipeline.AlgoParams().k, rng=rng)


@dataclass(frozen=True)
class Trial:
    """One generated input and what is needed to check the call on it."""

    graph: Optional[Graph]
    call: Callable[[], object]
    expect: object = None


def _no_plan(index: int, input_seed: int, algo_seed: int) -> None:
    return None


@dataclass(frozen=True)
class Workload:
    """A trial is planned untimed, then built and called timed; check returns an error or None.

    plan(index, input_seed, algo_seed) does the bench's own bookkeeping;
    make(index, input_seed, algo_seed, planned) generates the input and
    returns the library call.
    """

    name: str
    make: Callable[[int, int, int, object], Trial]
    check: Callable[[Trial, object], Optional[str]]
    plan: Callable[[int, int, int], object] = _no_plan

    def trial(self, index: int, input_seed: int, algo_seed: int) -> Trial:
        """Plan and make one trial, untimed."""
        return self.make(index, input_seed, algo_seed, self.plan(index, input_seed, algo_seed))


def exit_path(report) -> str:
    """Which level of the finder produced a RunReport's outcome."""
    if report.outcome is None:
        return "none"
    return "walk" if "outer" in report.charge_log else "cover_search"


def _find(g: Graph, algo_seed: int) -> Callable[[], object]:
    return lambda: triwalk.pipeline.find_triangle(g, triwalk.pipeline.AlgoParams(seed=algo_seed))


def walk_negative(n: int) -> Workload:
    def make(index: int, input_seed: int, algo_seed: int, planned) -> Trial:
        g = triwalk.graph.random_bipartite(n, input_seed)
        return Trial(g, _find(g, algo_seed))

    def check(trial: Trial, report) -> Optional[str]:
        if report.outcome is not None:
            return f"triangle {tuple(report.outcome)} reported on a bipartite graph"
        return None

    return Workload("walk-negative", make, check)


def cover_positive(n: int) -> Workload:
    def make(index: int, input_seed: int, algo_seed: int, planned) -> Trial:
        g = triwalk.graph.erdos_renyi(n, 0.5, input_seed)
        return Trial(g, _find(g, algo_seed))

    def check(trial: Trial, report) -> Optional[str]:
        if report.outcome is None:
            return "no triangle reported on G(n, 1/2)"
        if not triwalk.graph.is_triangle(trial.graph, report.outcome):
            return f"reported {tuple(report.outcome)} is not a triangle"
        if triwalk.graph.brute_force_triangle(trial.graph) is None:
            return "brute force finds no triangle where the finder found one"
        return None

    return Workload("cover-positive", make, check)


# Of every ten walk-positive trials, these place the triangle outside the
# finder's cover, so the run takes the walk path; the others put one
# triangle vertex in the cover, so the run exits at cover search. A fixed
# 30% mix keeps trial_ms.p90 on the walk path and trials_per_s free of the
# binomial spread a random placement would add.
WALK_SLOTS = (0, 3, 6)


def walk_positive(n: int) -> Workload:
    def plan(index: int, input_seed: int, algo_seed: int) -> tuple[Triangle, str]:
        walk = index % 10 in WALK_SLOTS
        tri = pick_isolated(n, input_seed, finder_cover(n, algo_seed), on_cover=not walk)
        return tri, "walk" if walk else "cover_search"

    def make(index: int, input_seed: int, algo_seed: int, planned) -> Trial:
        g = isolated_triangle(n, input_seed, planned[0])
        return Trial(g, _find(g, algo_seed), expect=planned)

    def check(trial: Trial, report) -> Optional[str]:
        tri, path = trial.expect
        if report.outcome != tri:
            return f"reported {report.outcome}, built {tuple(tri)}"
        if exit_path(report) != path:
            return f"exit path {exit_path(report)}, planned {path}"
        return None

    return Workload("walk-positive", make, check, plan)


@dataclass(frozen=True)
class CampaignSizes:
    """Parameters of the campaign rotation: the acceptance criteria's, with fewer trials."""

    sparsity_n: int
    sparsity_trials: int
    estimator_n: int
    estimator_trials: int
    cap_size_a: int
    cap_r: int
    cap_trials: int
    suite_max_n: int
    suite_cases: int
    suite_planted_cases: int
    suite_planted_n: int
    fit_grid: tuple[int, ...]
    fit_trials: int


def _check_campaign(report, trials: int) -> Optional[str]:
    if report.trials != trials:
        return f"campaign ran {report.trials} trials, asked for {trials}"
    if not 0 <= report.successes <= report.trials:
        return "campaign successes out of range"
    if report.per_trial and sum(report.per_trial) != report.successes:
        return "campaign per-trial outcomes disagree with its success count"
    return None


def campaigns(s: CampaignSizes) -> Workload:
    h = triwalk.harness
    rotation = (
        "verify_cover_sparsity",
        "verify_estimator_bounds",
        "verify_subset_cap",
        "correctness_suite",
        "scaling_fit",
    )

    def make(index: int, input_seed: int, algo_seed: int, planned) -> Trial:
        # Campaigns generate their own graphs from the seed they are given.
        kind = rotation[index % len(rotation)]
        seed = input_seed
        if kind == "verify_cover_sparsity":
            call = lambda: h.verify_cover_sparsity(
                s.sparsity_n, 0.5, s.sparsity_trials, family="er:0.5", seed=seed
            )
        elif kind == "verify_estimator_bounds":
            call = lambda: h.verify_estimator_bounds(
                s.estimator_n, 0.75, 0.5, s.estimator_trials, family="er:0.5", seed=seed
            )
        elif kind == "verify_subset_cap":
            config = h.SUBSET_CAP_CONFIGS[(index // len(rotation)) % len(h.SUBSET_CAP_CONFIGS)]
            call = lambda: h.verify_subset_cap(
                s.cap_size_a, s.cap_r, s.cap_trials, config=config, seed=seed
            )
        elif kind == "correctness_suite":
            call = lambda: h.correctness_suite(
                s.suite_max_n,
                s.suite_cases,
                seed=seed,
                planted_cases=s.suite_planted_cases,
                planted_n=s.suite_planted_n,
            )
        else:
            call = lambda: h.scaling_fit(
                list(s.fit_grid), "walk", s.fit_trials, family="er:0.5", seed=seed
            )
        return Trial(None, call, expect=kind)

    def check(trial: Trial, report) -> Optional[str]:
        kind = trial.expect
        if kind == "verify_cover_sparsity":
            return _check_campaign(report, s.sparsity_trials)
        if kind == "verify_estimator_bounds":
            return _check_campaign(report, s.estimator_trials)
        if kind == "verify_subset_cap":
            return _check_campaign(report, s.cap_trials)
        if kind == "correctness_suite":
            total = s.suite_cases + s.suite_planted_cases
            if not (report.verdict and report.extras["agreement"] == total == report.trials):
                return f"finder and brute force disagree: {report.extras}"
            return None
        if len(report.points) != len(s.fit_grid):
            return "scaling fit lost a grid point"
        if not (math.isfinite(report.slope) and all(p[1] > 0 for p in report.points)):
            return f"scaling fit is degenerate: slope {report.slope}"
        return None

    return Workload("campaigns", make, check)


class Runner:
    """Runs and checks trials of one workload; records failures.

    A trial fails on an exception, on a wrong answer, or, where a digest
    was recorded for its index, on a report whose digest differs.
    """

    def __init__(self, workload: Workload, seed: int, digests: list[str]):
        self.workload = workload
        self.seed = seed
        self.digests = digests
        self.failures: list[str] = []

    def run(self, index: int, tracer=None) -> float:
        """Run trial index (-1: warm-up) and check it; its wall time in ms, NaN on exception."""
        input_seed, algo_seed = (WARMUP_SEED, WARMUP_SEED) if index < 0 else trial_seeds(self.seed, index)
        make = self.workload.make
        try:
            planned = self.workload.plan(index, input_seed, algo_seed)
            t0 = time.perf_counter()
            if tracer is None:
                trial = make(index, input_seed, algo_seed, planned)
            else:
                tracer.trial = index
                trial = tracer.span(
                    "graph.generate",
                    make,
                    index,
                    input_seed,
                    algo_seed,
                    planned,
                    observe=tracer.observe_trial,
                )
            report = trial.call()
            elapsed = (time.perf_counter() - t0) * 1000.0
        except Exception:
            self.failures.append(f"trial {index}: {traceback.format_exc()}")
            return float("nan")
        error = self.workload.check(trial, report)
        if error is None and 0 <= index < len(self.digests) and report_digest(report) != self.digests[index]:
            error = "report digest differs from the one recorded for this seed"
        if error is not None:
            self.failures.append(f"trial {index}: {error}")
        return elapsed


# Full size is what the benchmark measures. Each size is the largest at
# which a trial averages about 60 ms on a quiet 2-core Xeon, so a run of
# run_seconds holds the 100 inputs, each run twice, that trial_ms.p90
# needs, even while other tenants slow the host twofold. Tiny is for the
# bench's self-test only.
PROFILES: dict[str, dict[str, Workload]] = {
    "full": {
        w.name: w
        for w in (
            walk_negative(448),
            cover_positive(1024),
            walk_positive(768),
            campaigns(
                CampaignSizes(
                    sparsity_n=256,
                    sparsity_trials=10,
                    estimator_n=256,
                    estimator_trials=20,
                    cap_size_a=128,
                    cap_r=16,
                    cap_trials=4000,
                    suite_max_n=64,
                    suite_cases=20,
                    suite_planted_cases=2,
                    suite_planted_n=512,
                    fit_grid=(128, 256, 512),
                    fit_trials=2,
                )
            ),
        )
    },
    "tiny": {
        w.name: w
        for w in (
            walk_negative(64),
            cover_positive(96),
            walk_positive(96),
            campaigns(
                CampaignSizes(
                    sparsity_n=48,
                    sparsity_trials=2,
                    estimator_n=64,
                    estimator_trials=2,
                    cap_size_a=32,
                    cap_r=8,
                    cap_trials=200,
                    suite_max_n=24,
                    suite_cases=5,
                    suite_planted_cases=1,
                    suite_planted_n=64,
                    fit_grid=(64, 80, 96),
                    fit_trials=1,
                )
            ),
        )
    },
}
