"""The finder and the campaigns call no numpy set operation.

np.unique and the set routines built on it sort their input: at finder
sizes that costs 2-10x a count or a boolean mask over [0, n), and
np.unique imports numpy.ma, 0.6-1.6 MiB of RSS, on its first call. Each
run here fails if any of them comes back onto its path.
"""

import numpy as np
import pytest

from triwalk import (
    AlgoParams,
    Triangle,
    correctness_suite,
    find_triangle,
    random_bipartite,
    scaling_fit,
    verify_cover_sparsity,
    verify_estimator_bounds,
    verify_subset_cap,
)

from test_pipeline import WALK_PATH_SEED, plant_only_graph

SET_OPS = ("unique", "setdiff1d", "isin", "intersect1d", "union1d")


@pytest.fixture(autouse=True)
def no_set_ops(monkeypatch):
    def refused(name):
        def call(*args, **kwargs):
            raise AssertionError(f"np.{name} called")

        return call

    for name in SET_OPS:
        monkeypatch.setattr(np, name, refused(name))


def test_walk_path_positive():
    report = find_triangle(plant_only_graph(), AlgoParams(seed=WALK_PATH_SEED))
    assert report.outcome == Triangle(61, 62, 63)
    assert report.charge_log["outer"]["check_witness_found"]


def test_bipartite_negative():
    # n = 448 runs every level: cover search, blocks, estimator and walk.
    report = find_triangle(random_bipartite(448, 0), AlgoParams(seed=0))
    assert report.outcome is None


@pytest.mark.parametrize(
    "campaign",
    [
        lambda: verify_cover_sparsity(48, 0.5, 2, family="er:0.5", seed=1),
        lambda: verify_estimator_bounds(64, 0.75, 0.5, 2, family="er:0.5", seed=1),
        lambda: verify_subset_cap(32, 8, 200, config="er-half", seed=1),
        lambda: correctness_suite(24, 5, seed=1, planted_cases=1, planted_n=64),
        lambda: scaling_fit([64, 80, 96], "walk", 1, family="er:0.5", seed=1),
    ],
    ids=["cover_sparsity", "estimator_bounds", "subset_cap", "correctness_suite", "scaling_fit"],
)
def test_campaign(campaign):
    campaign()
