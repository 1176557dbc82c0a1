"""Surviving-pair machinery: pruning, sparsity checks, the subset cap."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwalk import (
    Graph,
    cover_is_sparsifying,
    erdos_renyi,
    sample_cover,
    subset_pair_cap,
    uncovered_pairs,
)
from triwalk import pairs
from triwalk.graph import _common_counts, _packed_ids
from triwalk.harness import parse_family
from triwalk.pairs import cover_draw_count, uncovered_pairs_at


def uncovered_by_double_loop(g, cover, within):
    """Independent oracle: explicit pair/cover loops."""
    out = set()
    within = sorted(int(v) for v in within)
    for u, v in itertools.combinations(within, 2):
        pruned = any(g.has_edge(x, u) and g.has_edge(x, v) for x in cover)
        if not pruned:
            out.add((u, v))
    return out


def small_graph(seed, n, p):
    return erdos_renyi(n, p, seed)


def pair_list(ps):
    """The selected pairs of a PairSet, in canonical order."""
    pu, pv = ps.selected_endpoints()
    return list(zip(pu.tolist(), pv.tolist()))


def assert_nested(inner, outer):
    """Every pair selected in inner is selected in outer, over one universe."""
    assert np.array_equal(inner.verts, outer.verts)
    assert not np.any(inner.mask & ~outer.mask)


def summed_budget_holds(g, cover, subset, k):
    """sum_w |surviving pairs of Y at apex w| <= |Y|^2 n^(1-k).

    The left side equals the total common-neighbour count over the
    surviving pairs of Y.
    """
    surv = uncovered_pairs(g, cover, subset)
    lhs = int(_common_counts(g, *surv.selected_endpoints()).sum())
    return lhs <= len(subset) ** 2 * g.n ** (1.0 - k)


class TestCoverSampling:
    def test_draw_counts(self):
        # ceil(3 * 16 * ln 256) = ceil(266.17) = 267
        assert cover_draw_count(256, 0.5) == 267
        for k in (0.1, 0.5, 0.9):
            assert cover_draw_count(2, k) == math.ceil(3 * 2**k * math.log(2))

    def test_set_size_capped_by_draws(self):
        cover = sample_cover(256, 0.5, seed=1)
        assert 0 < cover.size <= 267
        assert np.all(np.diff(cover) > 0)

    def test_deterministic(self):
        assert np.array_equal(sample_cover(64, 0.5, seed=3), sample_cover(64, 0.5, seed=3))

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            sample_cover(1, 0.5, seed=0)


class TestPairSet:
    """With no cover every pair of ``within`` survives: the full pair set."""

    G = erdos_renyi(8, 0.5, seed=0)

    def test_canonical_enumeration(self):
        ps = uncovered_pairs(self.G, [], [3, 1, 7])
        assert pair_list(ps) == [(1, 3), (1, 7), (3, 7)]
        assert ps.universe_size == 3 and len(ps) == 3

    def test_singleton_universe_is_empty(self):
        ps = uncovered_pairs(self.G, [], [4])
        assert ps.universe_size == 0 and len(ps) == 0

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            uncovered_pairs(self.G, [], [-1, 2, 5])


class TestVertexIdsInRange:
    """Every vertex set at a public boundary must lie in [0, n): -1 must not
    read as vertex n - 1, and n must not reach numpy as an IndexError."""

    N = 10

    @pytest.fixture
    def g(self):
        return erdos_renyi(self.N, 1.0, seed=0)

    @pytest.mark.parametrize("bad", [-1, N])
    def test_uncovered_pairs_cover(self, g, bad):
        with pytest.raises(ValueError, match="out of range"):
            uncovered_pairs(g, [0, bad], range(5))

    @pytest.mark.parametrize("bad", [-1, N])
    def test_uncovered_pairs_within(self, g, bad):
        with pytest.raises(ValueError, match="out of range"):
            uncovered_pairs(g, [], [0, 3, bad])

    @pytest.mark.parametrize("bad", [-1, N])
    @pytest.mark.parametrize("where", ["cover", "within", "apex"])
    def test_uncovered_pairs_at(self, g, bad, where):
        args = {"cover": [1], "within": [2, 3, 4], "apex": 5}
        args[where] = bad if where == "apex" else [*args[where], bad]
        with pytest.raises(ValueError, match="out of range"):
            uncovered_pairs_at(g, args["cover"], args["within"], args["apex"])

    @pytest.mark.parametrize("ids", [[1.7, 2], [True, False], np.array([0.0, 2.0])])
    @pytest.mark.parametrize("where", ["cover", "within"])
    def test_non_integer_ids_rejected(self, g, ids, where):
        # 1.7 once read as vertex 1.
        args = {"cover": [0], "within": [1, 2, 3], where: ids}
        with pytest.raises(ValueError, match="vertex ids must be integers"):
            uncovered_pairs(g, args["cover"], args["within"])

    def test_empty_id_lists_stay_legal(self, g):
        assert len(uncovered_pairs(g, [], [])) == 0
        assert len(uncovered_pairs(g, np.array([]), [0, 1])) == 1

    @pytest.mark.parametrize("bad", [-1, N])
    def test_cover_is_sparsifying(self, g, bad):
        with pytest.raises(ValueError, match="out of range"):
            cover_is_sparsifying(g, [bad], 0.5)


class TestUncoveredPairs:
    def test_empty_cover_keeps_everything(self):
        g = small_graph(0, 12, 0.5)
        surv = uncovered_pairs(g, [], range(12))
        assert len(surv) == surv.universe_size == 66

    def test_single_vertex_subset(self):
        g = small_graph(0, 8, 0.5)
        assert len(uncovered_pairs(g, [0], [3])) == 0

    def test_path_hand_case(self):
        # a-b-c with cover {b}: the pair {a,c} is pruned, edges survive.
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        surv = uncovered_pairs(g, [1], [0, 1, 2])
        assert pair_list(surv) == [(0, 1), (1, 2)]

    def test_apex_restriction_hand_cases(self):
        g = erdos_renyi(4, 1.0, seed=0)  # K4
        at = uncovered_pairs_at(g, [], [0, 1, 2], 3)
        assert len(at) == 3
        lonely = Graph.from_edges(5, [(0, 1)])
        assert len(uncovered_pairs_at(lonely, [], [0, 1, 2], 4)) == 0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(4, 24),
        p=st.sampled_from([0.2, 0.5, 0.8]),
        data=st.data(),
    )
    def test_matches_double_loop(self, seed, n, p, data):
        g = small_graph(seed, n, p)
        cover = data.draw(st.sets(st.integers(0, n - 1), max_size=6))
        within = data.draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=10))
        surv = uncovered_pairs(g, sorted(cover), sorted(within))
        assert set(pair_list(surv)) == uncovered_by_double_loop(g, cover, within)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000), apex=st.integers(0, 15))
    def test_nesting_invariants(self, seed, apex):
        g = small_graph(seed, 16, 0.5)
        within = range(2, 14)
        base = uncovered_pairs(g, [], within)
        surv = uncovered_pairs(g, [0, 1], within)
        at = uncovered_pairs_at(g, [0, 1], within, apex)
        assert_nested(at, surv)
        assert_nested(surv, base)

    def test_monotone_in_cover(self):
        g = small_graph(5, 20, 0.6)
        small = uncovered_pairs(g, [0, 1], range(20))
        large = uncovered_pairs(g, [0, 1, 2, 3, 4], range(20))
        assert_nested(large, small)


def covered_by_and(g, cover, verts):
    """Per-pair AND reference: per canonical pair of ``verts``, whether the
    two packed rows and the cover's bitmask share a bit."""
    iu, jv = np.triu_indices(verts.size, k=1)
    words = _packed_ids(g.n, cover)
    return (g._rows[verts[iu]] & g._rows[verts[jv]] & words).any(axis=1)


def sparsifying_by_and(g, cover, k):
    """Reference sparsity check: every surviving pair of V, counted in full."""
    verts = np.arange(g.n)
    iu, jv = np.triu_indices(g.n, k=1)
    free = ~covered_by_and(g, cover, verts)
    counts = np.bitwise_count(g._rows[iu[free]] & g._rows[jv[free]]).sum(axis=1)
    return bool((counts <= g.n ** (1.0 - k)).all())


FAMILIES = ["bipartite", "er:0.1", "er:0.5", "er:0.9", "planted", "edgeless", "complete"]


def oracle_cases(n, seed):
    """(graph, cover, within) triples: V and random blocks under empty,
    duplicated, sampled and full covers, on every family."""
    rng = np.random.default_rng(seed)
    covers = {
        "empty": np.array([], dtype=np.int64),
        "duplicated": np.repeat(rng.choice(n, size=4), 3),
        "sampled": sample_cover(n, 0.5, seed=seed),
        "full": np.arange(n),
    }
    withins = {"V": np.arange(n), "block": np.sort(rng.choice(n, size=n // 3, replace=False))}
    for family in FAMILIES:
        g = parse_family(family)(n, seed)
        for cname, cover in covers.items():
            for wname, within in withins.items():
                yield f"{family}/{cname}/{wname}", g, cover, within


class TestProductMask:
    """The cover-column product's mask against a per-pair AND of packed rows."""

    @pytest.mark.parametrize("entries", [None, 7, 300], ids=["one tile", "tiny tiles", "tiles"])
    @pytest.mark.parametrize("n", [13, 70, 130])
    def test_matches_per_pair_and(self, monkeypatch, n, entries):
        if entries is not None:
            monkeypatch.setattr(pairs, "_PRODUCT_ENTRIES", entries)
        for name, g, cover, within in oracle_cases(n, seed=n):
            surv = uncovered_pairs(g, cover, within)
            assert np.array_equal(surv.verts, within), name
            assert np.array_equal(surv.mask, ~covered_by_and(g, cover, within)), name

    @pytest.mark.parametrize("entries", [None, 7, 300], ids=["one tile", "tiny tiles", "tiles"])
    @pytest.mark.parametrize("k", [0.25, 0.5, 0.9])
    def test_sparsity_check_matches_full_count(self, monkeypatch, entries, k):
        if entries is not None:
            monkeypatch.setattr(pairs, "_PRODUCT_ENTRIES", entries)
        seen = set()
        for name, g, cover, within in oracle_cases(70, seed=3):
            if within.size == g.n:
                got = cover_is_sparsifying(g, cover, k)
                assert got == sparsifying_by_and(g, cover, k), name
                seen.add(got)
        assert seen == {True, False}

    def test_sparsity_check_holds_no_pair_set_of_v(self):
        # Gathering every pair of V took C(n, 2) int64 endpoints twice over,
        # 16 bytes a pair; the tiled product holds X and one tile at a time.
        n = 2048
        g = erdos_renyi(n, 0.5, seed=1)
        cover = sample_cover(n, 0.5, seed=2)
        tracemalloc.start()
        try:
            assert cover_is_sparsifying(g, cover, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < math.comb(n, 2) * 16 / 2


class TestSparsityChecks:
    def test_edgeless_always_sparsifying(self):
        g = erdos_renyi(32, 0.0, seed=0)
        assert cover_is_sparsifying(g, [], 0.5)

    def test_full_cover_sparsifies(self):
        # Any pair with a common neighbor is pruned by that very neighbor.
        g = small_graph(7, 32, 0.7)
        assert cover_is_sparsifying(g, range(32), 0.5)

    def test_star_leaf_pairs(self):
        # Star: leaf pairs share exactly one neighbor (the hub).
        g = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
        assert cover_is_sparsifying(g, [], k=0.5)  # n^(1-k) = sqrt(6) >= 1

    def test_dense_graph_with_empty_cover_fails(self):
        g = erdos_renyi(64, 1.0, seed=0)
        assert not cover_is_sparsifying(g, [], 0.5)

    def test_budget_trivial_subsets(self):
        g = small_graph(3, 16, 0.5)
        assert summed_budget_holds(g, [], [], 0.5)
        assert summed_budget_holds(g, [], [7], 0.5)

    def test_budget_full_cover(self):
        # A full cover prunes every pair with a common neighbour, so no apex
        # keeps a surviving pair.
        g = small_graph(4, 24, 0.6)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            subset = rng.choice(24, size=10, replace=False)
            assert all(len(uncovered_pairs_at(g, range(24), subset, w)) == 0 for w in range(24))
            assert summed_budget_holds(g, range(24), subset, 0.5)

    def test_budget_on_random_subsets(self):
        # Sampled covers keep the summed budget for almost all subsets.
        g = erdos_renyi(128, 0.5, seed=11)
        cover = sample_cover(128, 0.5, seed=12)
        rng = np.random.default_rng(13)
        good = sum(
            summed_budget_holds(g, cover, rng.choice(128, size=40, replace=False), 0.5)
            for _ in range(100)
        )
        assert good >= 99

    def test_budget_matches_definition_on_small_graph(self):
        # The per-apex restriction sizes sum to the common-neighbour total.
        g = small_graph(9, 14, 0.5)
        cover = [0, 3]
        subset = list(range(1, 11))
        lhs = sum(
            len(uncovered_pairs_at(g, cover, subset, w)) for w in range(g.n)
        )
        surv = uncovered_pairs(g, cover, subset)
        assert lhs == _common_counts(g, *surv.selected_endpoints()).sum() > 0
        holds = lhs <= len(subset) ** 2 * g.n ** 0.5
        assert summed_budget_holds(g, cover, subset, 0.5) == holds


class TestSubsetPairCap:
    def test_worked_example(self):
        assert subset_pair_cap(4, 6, 9) == pytest.approx(68.0)

    def test_zero_count_floor(self):
        for r in (5, 9, 30):
            assert subset_pair_cap(r, 40, 0) == pytest.approx(16.0 * r)

    def test_full_subset_simplifies(self):
        # r = |A|: coefficient collapses to 8/3.
        for x in (0.0, 7.0, 123.0):
            assert subset_pair_cap(12, 12, x) == pytest.approx(8.0 * x / 3.0 + 16 * 12)

    def test_vectorized(self):
        xs = np.array([0.0, 9.0, 18.0])
        caps = subset_pair_cap(4, 6, xs)
        assert caps == pytest.approx([64.0, 68.0, 72.0])

    def test_contract(self):
        with pytest.raises(ValueError):
            subset_pair_cap(3, 10, 1.0)
        with pytest.raises(ValueError):
            subset_pair_cap(11, 10, 1.0)
        with pytest.raises(ValueError):
            subset_pair_cap(4, 3, 1.0)
