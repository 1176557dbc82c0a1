"""The two-stage sampling estimator and its shared draw plan."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwalk import AlgoParams, Graph, erdos_renyi, random_bipartite
from triwalk import estimator as estimator_module
from triwalk import graph as graph_module
from triwalk import pipeline as pipeline_module
from triwalk.graph import _SCAN_CAP, _common_counts
from triwalk.estimator import (
    SamplePlan,
    _apex_counts,
    estimate_all_apexes,
    estimator_charge,
)
from triwalk.pairs import PairSet, sample_cover, uncovered_pairs
from triwalk.pipeline import block_size, sample_size

EMPTY = np.array([], dtype=np.int64)


def plan_rng(seed):
    """The rng a seeded plan draws from."""
    return np.random.default_rng([seed, 0xE5])


def make_case(n, p, seed, block):
    g = erdos_renyi(n, p, seed)
    surv = uncovered_pairs(g, EMPTY, block)
    return g, surv


def reference_apex(g, surv, plan, apex):
    """Per-apex estimator with explicit short-circuit probe counting.

    A draw outside the surviving set probes nothing; a surviving draw
    probes its first endpoint against the apex, and its second endpoint
    only when the first is adjacent. Returns (output, c1, c2, probes).
    """
    pu, pv = surv.endpoint_arrays()
    adj = g.bool_row(apex)
    member1 = surv.mask[plan.screen_draws]
    first_ok1 = member1 & adj[pu[plan.screen_draws]]
    qual1 = first_ok1 & adj[pv[plan.screen_draws]]
    c1 = int(qual1.any(axis=1).sum())
    probes = int(member1.sum()) + int(first_ok1.sum())
    if 2 * c1 <= plan.rounds:
        return surv.universe_size / plan.m, c1, None, probes
    member3 = surv.mask[plan.refine_draws]
    first_ok3 = member3 & adj[pu[plan.refine_draws]]
    c2 = int((first_ok3 & adj[pv[plan.refine_draws]]).sum())
    probes += int(member3.sum()) + int(first_ok3.sum())
    return c2 * surv.universe_size / plan.refine, c1, c2, probes


def kernel_runs(g, surv, plan):
    """Every apex's (output, c1, c2) from the all-apex kernel, and its probe total.

    c2 is None where the apex stays at the screen's floor, as in
    reference_apex.
    """
    counts = _apex_counts(g, surv, plan)
    runs = [
        (
            float(counts.outputs[w]),
            int(counts.c1[w]),
            int(counts.c2[w]) if counts.refined[w] else None,
        )
        for w in range(g.n)
    ]
    return runs, counts.probes


def reference_probes(g, surv, plan):
    """Raw probes of every apex's reference run, summed."""
    return sum(reference_apex(g, surv, plan, apex)[3] for apex in range(g.n))


def closed_surviving(g, surv):
    """Per surviving pair, in canonical order, whether its ends share a neighbour."""
    return _common_counts(g, *surv.selected_endpoints()) > 0


def all_open_case():
    """A triangle-free bipartite block under a cover of every vertex: every
    pair with a common neighbour is covered, so every surviving pair is open."""
    g = random_bipartite(64, seed=2)
    surv = uncovered_pairs(g, np.arange(64), np.arange(0, 64, 3))
    assert surv.mask.any() and not closed_surviving(g, surv).any()
    return g, surv


def assert_matches_reference(g, surv, plan):
    ref = [reference_apex(g, surv, plan, apex) for apex in range(g.n)]
    runs, probes = kernel_runs(g, surv, plan)
    assert runs == [r[:3] for r in ref]
    assert probes == sum(r[3] for r in ref)
    outputs, total = estimate_all_apexes(g, surv, plan)
    assert np.array_equal(outputs, [r[0] for r in ref])
    assert total == probes
    return ref


class TestPlan:
    def test_stage_sizes(self):
        plan = SamplePlan(256, 16, 100, rng=plan_rng(0))
        assert plan.rounds == math.ceil(240 * math.log(256))
        assert plan.refine == math.ceil(72 * 16 * math.log(256))
        assert plan.screen_draws.shape == (plan.rounds, 16)
        assert plan.refine_draws.shape == (plan.refine,)

    def test_deterministic(self):
        p1 = SamplePlan(64, 8, 50, rng=plan_rng(5))
        p2 = SamplePlan(64, 8, 50, rng=plan_rng(5))
        assert np.array_equal(p1.screen_draws, p2.screen_draws)
        assert np.array_equal(p1.refine_draws, p2.refine_draws)

    @pytest.mark.parametrize("refine_first", [False, True])
    def test_lazy_draws_equal_an_eager_draw(self, refine_first):
        # Whichever stage is read first, the arrays are the screen then the
        # refinement drawn eagerly from an identically seeded generator.
        plan = SamplePlan(64, 8, 50, rng=plan_rng(5))
        eager = plan_rng(5)
        screen = eager.integers(0, 50, size=(plan.rounds, 8))
        refine = eager.integers(0, 50, size=plan.refine)
        if refine_first:
            assert np.array_equal(plan.refine_draws, refine)
        assert np.array_equal(plan.screen_draws, screen)
        assert np.array_equal(plan.refine_draws, refine)

    def test_empty_surviving_set_reads_no_draw(self):
        rng = plan_rng(3)
        state = rng.bit_generator.state
        surv = PairSet(np.arange(8), np.zeros(28, dtype=bool))
        outputs, probes = estimate_all_apexes(
            Graph.from_edges(16, [(0, 1)]), surv, SamplePlan(16, 4, 28, rng=rng)
        )
        assert np.array_equal(outputs, np.full(16, 28 / 4)) and probes == 0
        assert rng.bit_generator.state == state

    def test_no_refinement_reads_only_the_screen(self):
        g, surv = all_open_case()
        rng, screen_only = plan_rng(7), plan_rng(7)
        plan = SamplePlan(64, 8, surv.universe_size, rng=rng)
        counts = _apex_counts(g, surv, plan)
        assert counts.probes > 0 and not counts.refined.any()
        screen_only.integers(0, surv.universe_size, size=(plan.rounds, 8))
        assert rng.bit_generator.state == screen_only.bit_generator.state


class TestEstimator:
    def test_isolated_apex_gets_floor(self):
        # Apex with no neighbors: no draw ever qualifies, stage-2 floor.
        # Every drawn pair survives (no cover), so each costs exactly one
        # probe: the first endpoint check fails and short-circuits.
        g = Graph.from_edges(10, [(0, 1), (1, 2), (2, 3)])
        surv = uncovered_pairs(g, EMPTY, np.arange(8))
        plan = SamplePlan(10, 3, surv.universe_size, rng=plan_rng(2))
        runs, probes = kernel_runs(g, surv, plan)
        output, c1, c2 = runs[9]
        assert c1 == 0 and c2 is None
        assert output == surv.universe_size / 3
        assert reference_apex(g, surv, plan, 9)[3] == plan.rounds * 3
        assert probes == reference_probes(g, surv, plan)

    def test_all_qualifying_is_exact(self):
        # Complete graph: every draw survives and neighbors the apex, so the
        # refinement counts every draw and the output collapses to the true
        # pair count.
        g = erdos_renyi(9, 1.0, seed=0)
        surv = uncovered_pairs(g, EMPTY, np.arange(8))
        plan = SamplePlan(9, 4, surv.universe_size, rng=plan_rng(11))
        runs, probes = kernel_runs(g, surv, plan)
        output, c1, c2 = runs[8]
        assert c1 == plan.rounds
        assert c2 == plan.refine
        assert output == 28.0
        # Short-circuit accounting: two probes per drawn pair in each stage.
        assert reference_apex(g, surv, plan, 8)[3] == 2 * plan.rounds * 4 + 2 * plan.refine
        assert probes == reference_probes(g, surv, plan)

    def test_output_closed_forms(self):
        for seed in range(6):
            g, surv = make_case(24, 0.5, seed, np.arange(12))
            plan = SamplePlan(24, 4, surv.universe_size, rng=plan_rng(seed))
            for output, _, c2 in kernel_runs(g, surv, plan)[0]:
                if c2 is None:
                    assert output == surv.universe_size / 4
                else:
                    assert output == c2 * surv.universe_size / plan.refine
                assert output >= 0

    def test_plan_shared_draws_across_apexes(self):
        # Every apex is scored against the same plan's draws, so two runs
        # off one plan are the same deterministic function of (plan, apex).
        g, surv = make_case(20, 0.6, 4, np.arange(10))
        plan = SamplePlan(20, 5, surv.universe_size, rng=plan_rng(1))
        assert kernel_runs(g, surv, plan) == kernel_runs(g, surv, plan)

    def test_probe_total_and_charge(self):
        # The probe total is the reference's; the charge is the caller's.
        g, surv = make_case(20, 0.6, 5, np.arange(10))
        plan = SamplePlan(20, 5, surv.universe_size, rng=plan_rng(1))
        _, probes = estimate_all_apexes(g, surv, plan)
        assert probes == reference_probes(g, surv, plan)
        assert estimator_charge(20, 5) == math.ceil(5 * math.log(20))

    def test_m_beyond_pair_universe_is_fine(self):
        # Draws are with replacement, so m may exceed the pair universe.
        g = erdos_renyi(12, 0.7, seed=1)
        surv = uncovered_pairs(g, EMPTY, np.arange(5))  # 10 pairs
        plan = SamplePlan(12, 25, surv.universe_size, rng=plan_rng(2))
        outputs, _ = estimate_all_apexes(g, surv, plan)
        assert np.all(outputs >= 0)

    def test_saturated_m_refines_near_exactly(self):
        # m as large as the pair universe: qualifying fractions concentrate
        # hard, so stage 3 lands within [x/2, 3x/2] around the true count.
        g = erdos_renyi(16, 1.0, seed=0)
        block = np.arange(8)
        surv = uncovered_pairs(g, EMPTY, block)
        m = surv.universe_size
        plan = SamplePlan(16, m, surv.universe_size, rng=plan_rng(3))
        output, _, c2 = kernel_runs(g, surv, plan)[0][12]
        true_count = 28  # all pairs of the block neighbor every apex in K16
        assert c2 is not None
        assert 0.5 * true_count <= output <= 1.5 * true_count


class TestKernelMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(4, 40),
        p=st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
        graph_seed=st.integers(0, 2**16),
        plan_seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_random_cases(self, n, p, graph_seed, plan_seed, data):
        g = erdos_renyi(n, p, graph_seed)
        block = data.draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=n))
        cover = data.draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
        surv = uncovered_pairs(g, sorted(cover), sorted(block))
        m = data.draw(st.integers(1, 2 * surv.universe_size + 3))
        plan = SamplePlan(n, m, surv.universe_size, rng=plan_rng(plan_seed))
        assert_matches_reference(g, surv, plan)

    @pytest.mark.parametrize("m", [1, 5, 40])
    def test_complete_graph_refines_every_apex(self, m):
        g = erdos_renyi(24, 1.0, seed=0)
        surv = uncovered_pairs(g, EMPTY, np.arange(8))  # 28 pairs
        ref = assert_matches_reference(g, surv, SamplePlan(24, m, 28, rng=plan_rng(m)))
        assert all(c2 is not None for _, _, c2, _ in ref)

    def test_every_surviving_pair_open(self):
        # No draw can qualify anywhere: every apex screens to the floor.
        g, surv = all_open_case()
        plan = SamplePlan(64, 8, surv.universe_size, rng=plan_rng(7))
        ref = assert_matches_reference(g, surv, plan)
        assert all(r[1:3] == (0, None) for r in ref)

    @pytest.mark.parametrize("seed", range(4))
    def test_open_and_closed_pairs_mixed(self, seed):
        g = erdos_renyi(48, 0.1, seed)
        surv = uncovered_pairs(g, [seed, 20 + seed], np.arange(24))
        closed = closed_surviving(g, surv)
        assert closed.any() and not closed.all()
        plan = SamplePlan(48, 5, surv.universe_size, rng=plan_rng(seed))
        assert_matches_reference(g, surv, plan)

    def test_refines_with_open_pairs_drawn(self):
        # Apexes 20-29 close every pair of 0-7; pairs at 8 or 9 are open.
        # 28 of the block's 45 pairs qualify at each of those apexes, so most
        # rounds of 4 draws see one and the apexes refine, while the screen
        # and refinement draws include open pairs.
        g = Graph.from_edges(30, [(u, w) for u in range(8) for w in range(20, 30)])
        surv = uncovered_pairs(g, EMPTY, np.arange(10))
        plan = SamplePlan(30, 4, surv.universe_size, rng=plan_rng(8))
        closed = closed_surviving(g, surv)  # no cover: one entry per universe slot
        assert not closed[plan.screen_draws].all() and not closed[plan.refine_draws].all()
        ref = assert_matches_reference(g, surv, plan)
        assert [w for w, r in enumerate(ref) if r[2] is not None] == list(range(20, 30))

    def test_tie_at_half_the_rounds_stays_at_floor(self):
        # Apex 6 closes pair slot 0 = (0, 1) but not slot 1 = (0, 2). Half
        # the rounds draw slot 0, so 2 * c1 == rounds: no majority, no refine.
        g = Graph.from_edges(7, [(0, 1), (0, 6), (1, 6)])
        surv = uncovered_pairs(g, EMPTY, np.arange(6))
        plan = SamplePlan(7, 1, surv.universe_size, rng=plan_rng(0))
        assert plan.rounds % 2 == 0
        plan.screen_draws[:] = 1
        plan.screen_draws[: plan.rounds // 2] = 0
        ref = assert_matches_reference(g, surv, plan)
        assert ref[6][1:3] == (plan.rounds // 2, None)

    def test_empty_surviving_set_exits_without_probes(self):
        g = erdos_renyi(30, 0.5, seed=2)
        surv = PairSet(np.arange(12), np.zeros(66, dtype=bool))
        plan = SamplePlan(30, 6, surv.universe_size, rng=plan_rng(1))
        ref = assert_matches_reference(g, surv, plan)
        assert all(r == (surv.universe_size / 6, 0, None, 0) for r in ref)

    def test_rounds_without_a_surviving_draw(self):
        # Whole runs of rounds that draw only a covered slot, at the start,
        # in the middle and at the end, give no draw to gather.
        g = erdos_renyi(40, 0.5, seed=3)
        surv = uncovered_pairs(g, [25, 30, 35], np.arange(20))
        covered = np.flatnonzero(~surv.mask)
        assert covered.size and surv.mask.any()
        plan = SamplePlan(40, 48, surv.universe_size, rng=plan_rng(4))
        rounds = plan.rounds
        # The first run alone holds more draws than two gather slices.
        assert rounds // 3 * 48 > 2 * _SCAN_CAP
        for lo, hi in ((0, rounds // 3), (rounds // 2, rounds // 2 + 80), (rounds - 5, rounds)):
            plan.screen_draws[lo:hi] = covered[0]
        assert np.count_nonzero(surv.mask[plan.screen_draws]) > 2 * _SCAN_CAP
        assert_matches_reference(g, surv, plan)

    def test_round_longer_than_a_gather_slice(self):
        # With m above _SCAN_CAP one round's surviving draws exceed a gather
        # slice; the round is gathered whole, never split across slices.
        g = erdos_renyi(8, 0.7, seed=1)
        surv = uncovered_pairs(g, EMPTY, np.arange(7))
        plan = SamplePlan(8, _SCAN_CAP + 37, surv.universe_size, rng=plan_rng(5))
        assert surv.mask[plan.screen_draws].sum(axis=1).min() > _SCAN_CAP
        assert_matches_reference(g, surv, plan)

    def test_column_counts_stay_exact_past_65535(self, monkeypatch):
        # Column counts sum in uint16 per gather slice, exact below 65,536
        # rows. On K16 every apex's count c2 exceeds 65,535 across the
        # refinement slices, and with m above _SCAN_CAP each screen slice
        # holds one round; no slice reaches _SCAN_CAP + 1 rows.
        seen = []
        count = graph_module._column_counts

        def recording(words, n):
            seen.append(words.shape[0])
            return count(words, n)

        monkeypatch.setattr(graph_module, "_column_counts", recording)
        g = erdos_renyi(16, 1.0, seed=0)
        surv = uncovered_pairs(g, EMPTY, np.arange(16))
        plan = SamplePlan(16, 500, surv.universe_size, rng=plan_rng(3))
        assert plan.refine >= 1 << 16
        ref = assert_matches_reference(g, surv, plan)
        assert min(r[2] for r in ref) >= 1 << 16
        plan = SamplePlan(16, _SCAN_CAP + 37, surv.universe_size, rng=plan_rng(5))
        assert_matches_reference(g, surv, plan)
        assert 1 in seen and max(seen) == _SCAN_CAP


def finder_case(block):
    """random_bipartite(448, 0) with find_triangle's cover, block size, m and
    plan stream at seed 0 (perfbench walk-negative's size), on one block:

    - "random": a block drawn as search_blocks draws it; about half its
      pairs survive, and the screen draws each surviving slot ~7 times.
    - "fill": the smallest ids plus the two largest, from the other side, as
      _fill_vertices builds it; only the pairs across the sides survive, a
      few percent of the block's.
    - "triangle": as "fill", with three vertices off the cover cut from the
      graph and joined into a triangle, and two of them in the block: the
      surviving pair of those two is the block's one closed pair, as on
      perfbench walk-positive.
    """
    n, seed = 448, 0
    params = AlgoParams(seed=seed)
    g = random_bipartite(n, seed)
    cover = sample_cover(n, params.k, rng=pipeline_module._substream(seed, 0))
    bsize = block_size(n, params.a)
    if block == "random":
        verts = np.sort(pipeline_module._substream(seed, 2).choice(n, size=bsize, replace=False))
    elif block == "fill":
        verts = pipeline_module._fill_vertices(n, (n - 2, n - 1), bsize)
    else:
        a, b, c = np.setdiff1d(np.arange(n), cover)[-3:]
        dense = np.array(g.bool_matrix)
        dense[[a, b, c], :] = dense[:, [a, b, c]] = False
        for x, y in ((a, b), (a, c), (b, c)):
            dense[x, y] = dense[y, x] = True
        g = Graph(dense)
        verts = pipeline_module._fill_vertices(n, (a, b), bsize)
    surv = uncovered_pairs(g, cover, verts)
    m = sample_size(n, params.k)
    return g, surv, SamplePlan(n, m, surv.universe_size, rng=pipeline_module._substream(seed, 1))


class TestFinderSizedBlocks:
    """The kernel against reference_apex at the finder's own sizes."""

    @pytest.mark.parametrize("block", ["random", "fill", "triangle"])
    def test_matches_reference(self, block):
        g, surv, plan = finder_case(block)
        hits = np.bincount(plan.screen_draws.ravel(), minlength=surv.universe_size)
        share = surv.mask.mean()
        if block == "random":
            assert 0.4 < share < 0.6 and hits[surv.mask].max() > 7
        else:
            assert 0 < share < 0.1
        ref = assert_matches_reference(g, surv, plan)
        assert closed_surviving(g, surv).sum() == int(block == "triangle")
        assert any(r[1] for r in ref) == (block == "triangle")
        assert all(r[2] is None for r in ref)


class TestUnreadWorkSkipped:
    """The kernel gathers only the draws of pairs with a common neighbour,
    in either stage, and scores the refinement draws only when some apex
    reaches stage 3."""

    def test_open_draws_are_not_gathered(self, monkeypatch):
        # Each distinct drawn pair is ANDed once to find it open; no draw row
        # is gathered after that and no column is counted. The case is built
        # first: its own closedness check gathers through the same kernel.
        g, surv = all_open_case()
        gathered, counted = [], []
        anded_rows = graph_module._anded_rows

        def recording_gather(rows, iu, iv, stops=None):
            gathered.append(iu.size)
            return anded_rows(rows, iu, iv, stops)

        monkeypatch.setattr(graph_module, "_anded_rows", recording_gather)
        monkeypatch.setattr(graph_module, "_column_counts", lambda *a: counted.append(a))
        plan = SamplePlan(64, 8, surv.universe_size, rng=plan_rng(7))
        drawn = plan.screen_draws[surv.mask[plan.screen_draws]]
        assert drawn.size > np.unique(drawn).size  # some pair is drawn twice
        counts = _apex_counts(g, surv, plan)
        assert sum(gathered) == np.unique(drawn).size
        assert counted == []
        assert not counts.c1.any() and not counts.refined.any()
        assert counts.probes == reference_probes(g, surv, plan)

    def test_open_refinement_draws_are_not_gathered(self, monkeypatch):
        # Hub 0 neighbours every right-side vertex, so the block's right-side
        # pairs are closed and its pairs across the sides are open. Apex 0
        # refines, and stage 3 gathers the refinement draws of closed pairs
        # only, in plan order; the open ones are scored by their slots.
        edges = [(0, v) for v in range(16, 32)] + [(u, 16 + u * 5 % 16) for u in range(1, 16)]
        g = Graph.from_edges(32, edges)
        surv = uncovered_pairs(g, EMPTY, np.r_[1:5, 16:28])
        pu, pv = surv.endpoint_arrays()
        closed = surv.mask & (_common_counts(g, pu, pv) > 0)
        plan = SamplePlan(32, 2, surv.universe_size, rng=plan_rng(0))
        draws = plan.refine_draws
        kept = draws[closed[draws]]
        assert 0 < kept.size < surv.mask[draws].sum()  # some surviving draws are open
        gathered = []
        anded_rows = graph_module._anded_rows

        def recording_gather(rows, iu, iv, stops=None):
            gathered.append((iu, iv))
            return anded_rows(rows, iu, iv, stops)

        monkeypatch.setattr(graph_module, "_anded_rows", recording_gather)
        counts = _apex_counts(g, surv, plan)
        assert np.array_equal(np.flatnonzero(counts.refined), [0])
        iu, iv = gathered[-1]  # stage 3's gather for c2
        assert np.array_equal(iu, pu[kept]) and np.array_equal(iv, pv[kept])
        monkeypatch.undo()
        assert_matches_reference(g, surv, plan)

    def scored_stages(self, monkeypatch, g, surv, plan):
        """One kernel run, with the draw arrays whose surviving slots it
        scored and the apexes each stage's probes were summed over (None:
        every vertex)."""
        scored, apexes = [], []
        stage_counts = estimator_module._stage_counts

        def recording_stage(g, surviving, draws, within=None):
            scored.append(draws)
            apexes.append(within)
            return stage_counts(g, surviving, draws, within)

        monkeypatch.setattr(estimator_module, "_stage_counts", recording_stage)
        return _apex_counts(g, surv, plan), scored, apexes

    def test_no_refined_apex_scores_only_the_screen(self, monkeypatch):
        g, surv = make_case(40, 0.2, 1, np.arange(10))
        plan = SamplePlan(40, 4, surv.universe_size, rng=plan_rng(1))
        counts, scored, apexes = self.scored_stages(monkeypatch, g, surv, plan)
        assert not counts.refined.any()
        assert "refine_draws" not in plan.__dict__  # never drawn
        assert len(scored) == 1 and scored[0] is plan.screen_draws
        assert apexes == [None]
        assert not counts.c2.any()
        assert counts.probes == reference_probes(g, surv, plan)
        ref = assert_matches_reference(g, surv, plan)
        assert all(c2 is None for _, _, c2, _ in ref)

    def test_refined_apexes_score_the_refinement_draws(self, monkeypatch):
        # 47 of the 48 apexes reach stage 3; the other stays at the floor.
        # Stage 3's probes are summed over the refined apexes only.
        g, surv = make_case(48, 0.6, 4, np.arange(16))
        plan = SamplePlan(48, 6, surv.universe_size, rng=plan_rng(4))
        counts, scored, apexes = self.scored_stages(monkeypatch, g, surv, plan)
        assert 0 < counts.refined.sum() < 48
        assert len(scored) == 2
        # A refinement draw is its own group: one column of the plan's draws.
        assert scored[0] is plan.screen_draws and scored[1].base is plan.refine_draws
        assert scored[1].shape == (plan.refine, 1)
        assert apexes[0] is None
        assert np.array_equal(apexes[1], np.flatnonzero(counts.refined))
        assert counts.probes == reference_probes(g, surv, plan)
        assert_matches_reference(g, surv, plan)


class TestEstimatorGuarantee:
    def test_bracket_holds_for_most_plans(self):
        # Mid-density graph, no pruning: the two-sided bracket should hold
        # for every apex simultaneously on a clear majority of plans.
        n, m = 32, 6
        g = erdos_renyi(n, 0.5, seed=21)
        block = np.arange(16)
        surv = uncovered_pairs(g, EMPTY, block)
        pu, pv = surv.selected_endpoints()
        adj = g.bool_matrix
        counts = np.zeros(n, dtype=np.int64)
        for u, v in zip(pu.tolist(), pv.tolist()):
            counts += adj[u] & adj[v]
        floor_ref = 16 * 15 / (2.0 * m)
        hits = 0
        trials = 40
        for seed in range(trials):
            plan = SamplePlan(n, m, surv.universe_size, rng=plan_rng(seed))
            outputs, _ = estimate_all_apexes(g, surv, plan)
            ok = np.all(counts / 3.0 <= outputs) and np.all(
                outputs <= 1.5 * np.maximum(floor_ref, counts)
            )
            hits += bool(ok)
        # Guarantee is 1 - 3/n ~ 0.906; allow 5-sigma Monte Carlo slack.
        bound = 1 - 3.0 / n
        sigma = math.sqrt(bound * (1 - bound) / trials)
        assert hits / trials >= bound - 5 * sigma
