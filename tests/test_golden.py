"""Golden report bytes: a kernel rewrite must not move a single byte.

Each case's sha256 digest was recorded from the per-apex reference
estimator. Criterion 8 only compares two runs of the same code; these
digests compare the current code with that reference, so an emulation
kernel that changes a charge, a probe count or an outcome fails here.
"""

import hashlib

import pytest
from test_pipeline import WALK_PATH_SEED, plant_only_graph

from triwalk import (
    AlgoParams,
    CostConfig,
    FailureInjection,
    find_triangle,
    random_bipartite,
    verify_estimator_bounds,
)


def _bipartite_run(n, seed, **kw):
    return lambda: find_triangle(random_bipartite(n, seed), AlgoParams(seed=seed, **kw)).to_json()


CASES = {
    "bipartite-128-s0": _bipartite_run(128, 0),
    "bipartite-128-s1": _bipartite_run(128, 1),
    "bipartite-128-s2": _bipartite_run(128, 2),
    "bipartite-448-s0": _bipartite_run(448, 0),
    "bipartite-448-s1": _bipartite_run(448, 1),
    "bipartite-448-s2": _bipartite_run(448, 2),
    "walk-path": lambda: find_triangle(
        plant_only_graph(), AlgoParams(seed=WALK_PATH_SEED)
    ).to_json(),
    "bipartite-256-log-factors": _bipartite_run(
        256, 4, cost_cfg=CostConfig(log_factors=True)
    ),
    "walk-path-check-gate": lambda: find_triangle(
        plant_only_graph(),
        AlgoParams(
            seed=WALK_PATH_SEED,
            failure_injection=FailureInjection(walk_success=0.75, check_success=2.0 / 3.0),
        ),
    ).to_json(),
    "estimator-bounds-256": lambda: verify_estimator_bounds(
        256, 0.75, 0.5, 4, family="bipartite", seed=3
    ).to_json(),
}

GOLDEN = {
    "bipartite-128-s0": "20d10a0be67ae6c93c11d7ee0c18d46c68140a518b74b7d9fe9a11c633e27bfa",
    "bipartite-128-s1": "e37c9d8710b9145fd2b6f54249a0e8f39e19f0a8b52e9dbb19bf508999701f21",
    "bipartite-128-s2": "23ec9927881833cf17f0bbacbc771c5a179dbb26315516d0fa1137b457d2247e",
    "bipartite-256-log-factors": "84f0b8790b214ce0b83e2c9e94aadada94940a74e1c635cbdbbf38458d9b98ac",
    "bipartite-448-s0": "5754945cbda7f7181095a3d216d1461dee3f311a83fb5cd95171e5a71b686fa9",
    "bipartite-448-s1": "8dc6cdf0b8431920a32b78f821900921c514c1e675f47d1379c5348490d2cc5b",
    "bipartite-448-s2": "2bc903c3e8a084b2ff28ad2a0acd7dbd6e4e123868e9d9d911e98d1531f3ef09",
    "estimator-bounds-256": "44884c36636e5336ad39fa3f39e521fd2a48dd296ae072a91ad4691577a8cbe8",
    "walk-path": "dfc9fc5930b9026d1f6bb08efcc18982cd2f71aba921342be267e5dd43dbbae2",
    "walk-path-check-gate": "88a9f2fadaaeca981974af5100aed950b67ebfe5cc4321c44e309ef7fa2851d1",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name):
    digest = hashlib.sha256(CASES[name]().encode()).hexdigest()
    assert digest == GOLDEN[name]
