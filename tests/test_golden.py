"""Golden report bytes: a kernel rewrite must not move a single byte.

Each case's sha256 digest was recorded before the code it guards was
rewritten: the first ten from the per-apex reference estimator, the stage
gate and baseline cases from the inline gates and the ledger-threaded
baselines, the dense, covered-edge and cover-avoiding cases from the
full-edge triangle scans, and the three subset-cap campaigns from the
pair-gather count of each subset's apex pairs, before it became a degree
count. The four injected runs were re-recorded with
``record_golden.py`` when reports began to record their failure
injection in ``params``. Criterion 8 only compares two runs of the same
code; these digests compare the current code with that reference, so an
emulation kernel or gate that changes a charge, a probe count, a draw or
an outcome fails here.
"""

import hashlib

import pytest
from test_pipeline import WALK_PATH_SEED, plant_only_graph

from triwalk import (
    AlgoParams,
    FailureInjection,
    correctness_suite,
    erdos_renyi,
    find_triangle,
    naive_triples_baseline,
    planted_instance,
    random_bipartite,
    sparse_edges_baseline,
    verify_estimator_bounds,
    verify_subset_cap,
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
    "bipartite-256-log-factors": _bipartite_run(256, 4, log_factors=True),
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
    # One case per stage gate not pinned above: the final search gate on the
    # walk path, and the cover search gate on positives.
    "walk-path-search-gate": lambda: find_triangle(
        plant_only_graph(),
        AlgoParams(seed=WALK_PATH_SEED, failure_injection=FailureInjection(search_success=0.5)),
    ).to_json(),
    # The gate's draw for this seed is about 0.029, so here it suppresses.
    "walk-path-search-gate-suppressed": lambda: find_triangle(
        plant_only_graph(),
        AlgoParams(seed=WALK_PATH_SEED, failure_injection=FailureInjection(search_success=0.02)),
    ).to_json(),
    "suite-all-gates": lambda: correctness_suite(
        32,
        10,
        seed=5,
        injection=FailureInjection(0.75, 2.0 / 3.0, 0.9),
        planted_cases=4,
        planted_n=64,
    ).to_json(),
    "naive-baseline-96": lambda: naive_triples_baseline(planted_instance(96, 2)).to_json(),
    # Triangle scans. Dense inputs exit at cover search; the gated sparse run
    # reaches the block walk with covered triangle edges ahead of the first
    # surviving one; the n=448 triangle avoids seed 91's cover, so only the
    # walk finds it; the baseline runs brute force on a positive.
    "er-1024-s0": lambda: find_triangle(erdos_renyi(1024, 0.5, 0), AlgoParams(seed=0)).to_json(),
    "er-1024-s1": lambda: find_triangle(erdos_renyi(1024, 0.5, 1), AlgoParams(seed=1)).to_json(),
    "er-128-covered-edges": lambda: find_triangle(
        erdos_renyi(128, 0.1, 0),
        AlgoParams(seed=0, failure_injection=FailureInjection(search_success=0.02)),
    ).to_json(),
    "walk-path-448": lambda: find_triangle(
        plant_only_graph(448, (226, 227, 233)), AlgoParams(seed=WALK_PATH_SEED)
    ).to_json(),
    "naive-baseline-er-256": lambda: naive_triples_baseline(erdos_renyi(256, 0.5, 1)).to_json(),
    "edges-baseline-96": lambda: sparse_edges_baseline(random_bipartite(96, 2)).to_json(),
    **{
        f"subset-cap-{config}": (
            lambda config=config: verify_subset_cap(128, 16, 4000, config=config, seed=404).to_json()
        )
        for config in ("er-half", "er-dense", "edgeless")
    },
}

GOLDEN = {
    "bipartite-128-s0": "20d10a0be67ae6c93c11d7ee0c18d46c68140a518b74b7d9fe9a11c633e27bfa",
    "bipartite-128-s1": "e37c9d8710b9145fd2b6f54249a0e8f39e19f0a8b52e9dbb19bf508999701f21",
    "bipartite-128-s2": "23ec9927881833cf17f0bbacbc771c5a179dbb26315516d0fa1137b457d2247e",
    "bipartite-256-log-factors": "84f0b8790b214ce0b83e2c9e94aadada94940a74e1c635cbdbbf38458d9b98ac",
    "bipartite-448-s0": "5754945cbda7f7181095a3d216d1461dee3f311a83fb5cd95171e5a71b686fa9",
    "bipartite-448-s1": "8dc6cdf0b8431920a32b78f821900921c514c1e675f47d1379c5348490d2cc5b",
    "bipartite-448-s2": "2bc903c3e8a084b2ff28ad2a0acd7dbd6e4e123868e9d9d911e98d1531f3ef09",
    "edges-baseline-96": "56e38db0d86ead856da101044fab162fdac55be22a093702e0cef4cb5c8a7cb7",
    "er-1024-s0": "eee10256120d03c4445b4bbfac6a7f7102017d100357ca7adee6ce4a47ad14fa",
    "er-1024-s1": "c0cc7da5e8132a408a969657a7ebd1e80b51f68f52320ec0717337238c6ab3ed",
    "er-128-covered-edges": "b02c635027900164709bb8fbc13ad515522a92604225779d21d46e99be598436",
    "estimator-bounds-256": "44884c36636e5336ad39fa3f39e521fd2a48dd296ae072a91ad4691577a8cbe8",
    "naive-baseline-96": "15f920ab330aef15ae498e9ccdab5db197b8fc3b3ad5bbbaf84f935d77f35307",
    "naive-baseline-er-256": "0292dda6e7e24c1f3b777261cab398a416196abba2b78fa57aa30d42c215627d",
    "suite-all-gates": "3aa80b1a6b1e33c6df57bd1773d46522b19ebd3e0d1586ae7855f35d7d66e524",
    "walk-path": "dfc9fc5930b9026d1f6bb08efcc18982cd2f71aba921342be267e5dd43dbbae2",
    "walk-path-448": "0ebd3c8c0f8369283b89acc60317b66e99f928b9a9b4a3eeb46c2025bc1bdd72",
    "walk-path-check-gate": "ddd3c5438e5c60135eaf94a2a811234c2407c91c7f334a71f4abbe775e33eac3",
    "walk-path-search-gate": "9bf1ce20c5325adfb45a083d78205c73cfda951893049f26eb20a99df0545b8d",
    "walk-path-search-gate-suppressed": "f8c6fd0987097c7207ee84771622c6fe0dff3595acb87b0dc69e335fd42418e1",
    "subset-cap-edgeless": "b4a8eac673c1e87168d6f58164a34819e14594ace3749c49ddb5ed451841f014",
    "subset-cap-er-dense": "e4780447fdd039d54fc52d92479636d378ff471d072aa13d0b8fd5075cc69e9b",
    "subset-cap-er-half": "b089c8bfab4ac9bfe512287cb487b4090eecf909a5479631027040e43e09ea0f",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name):
    digest = hashlib.sha256(CASES[name]().encode()).hexdigest()
    assert digest == GOLDEN[name]
