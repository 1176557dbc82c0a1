"""The charged finder: phases, composition of charges, gates, baselines."""

import json
import math
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwalk import (
    AlgoParams,
    FailureInjection,
    Graph,
    QueryLedger,
    WalkCharge,
    brute_force_triangle,
    erdos_renyi,
    find_triangle,
    grover_cost,
    is_triangle,
    naive_triples_baseline,
    planted_instance,
    random_bipartite,
    sample_cover,
    sparse_edges_baseline,
    subset_pair_cap,
    uncovered_pairs,
    variable_search_cost,
    walk_cost,
)
from triwalk import pipeline as pipeline_module
from triwalk.estimator import SamplePlan, estimate_all_apexes
from triwalk.graph import Triangle
from triwalk.harness import fit_loglog
from triwalk.pipeline import (
    PHASES,
    block_size,
    cost_envelope,
    find_apex_witness,
    inner_size,
    sample_size,
    search_blocks,
    search_cover_triangles,
)

EMPTY = np.array([], dtype=np.int64)

# Seed whose sampled cover at n=64, k=1/2 misses vertices {61, 62, 63};
# with a triangle planted there and no other edges, phase one must miss
# and the walk path must carry the run.
WALK_PATH_SEED = 91


def plant_only_graph(n=64, triple=(61, 62, 63)):
    a, b, c = triple
    return Graph.from_edges(n, [(a, b), (a, c), (b, c)])


def block_args(seed):
    """Estimator-plan stream and block seed for a direct search_blocks call."""
    return np.random.default_rng([seed, 0xA9]), seed


def stage_sizes(n, params):
    """The sizes find_triangle hands search_blocks at n (log factors off,
    so the cover's charge size is its skeleton ceil(n^k))."""
    assert not params.log_factors
    m = sample_size(n, params.k)
    return dict(
        r=inner_size(n, params.a), bsize=block_size(n, params.a), m=m, x_charge=m,
        log_factors=False,
    )


def apex_witness_oracle(g, surviving):
    """Independent scan: smallest apex with a surviving edge pair at it."""
    best = None
    pu, pv = surviving.selected_endpoints()
    pairs = list(zip(pu.tolist(), pv.tolist()))
    for w in range(g.n):
        for u, v in pairs:
            if g.has_edge(u, v) and g.has_edge(u, w) and g.has_edge(v, w):
                best = (w, (u, v))
                break
        if best:
            break
    return best


class TestCoverSearch:
    def test_complete_graph_any_cover(self):
        g = erdos_renyi(4, 1.0, seed=0)
        for cover in ([0], [2], [1, 3]):
            tri = search_cover_triangles(g, np.array(cover))
            assert tri is not None and is_triangle(g, tri)
            assert min(cover) in tri

    def test_triangle_free_charges_anyway(self):
        # The finder charges the plain search over the cover's skeleton size
        # times the pairs, whatever the scan finds.
        g = random_bipartite(64, seed=1)
        params = AlgoParams(seed=2)
        assert search_cover_triangles(g, sample_cover(64, params.k, seed=2)) is None
        report = find_triangle(g, params)
        domain = sample_size(64, params.k) * comb(64, 2)
        assert report.charge_log["cover_search"] == {"domain": domain, "t": 1.0}
        assert report.charges["cover_search"] == grover_cost(domain, 1.0)

    def test_log_factors_use_actual_cover_size(self):
        g = random_bipartite(64, seed=1)
        report = find_triangle(g, AlgoParams(seed=2, log_factors=True))
        domain = report.charge_log["cover_size"] * comb(64, 2)
        assert report.charge_log["cover_search"]["domain"] == domain
        assert report.charges["cover_search"] == grover_cost(domain, 1.0, log_factors=True)

    def test_plant_out_of_reach(self):
        g = plant_only_graph()
        assert search_cover_triangles(g, np.array([0])) is None

    def test_lexicographically_smallest_hit(self):
        # Cover vertex 5 closes (0,1) and (2,3); vertex 4 closes only (2,3).
        g = Graph.from_edges(
            8, [(0, 1), (2, 3), (5, 0), (5, 1), (5, 2), (5, 3), (4, 2), (4, 3)]
        )
        tri = search_cover_triangles(g, np.array([4, 5]))
        assert tri == Triangle(2, 3, 4)

    def test_search_gate_suppression(self):
        # Every cover vertex of K64 lies in a triangle; a failing search gate
        # hides the hit, so the run goes on to the block walk.
        g = erdos_renyi(64, 1.0, seed=0)
        assert "outer" not in find_triangle(g, AlgoParams()).charge_log
        params = AlgoParams(failure_injection=FailureInjection(search_success=0.0))
        assert "outer" in find_triangle(g, params).charge_log


class TestApexWitness:
    @staticmethod
    def check_charge(g, surviving, params, ledger):
        sizes = stage_sizes(g.n, params)
        return find_apex_witness(
            g, surviving, ledger, block_args(params.seed)[0],
            r=sizes["r"], m=sizes["m"], log_factors=False,
        )

    def make(self, n, p, seed, cover_seed=None):
        g = erdos_renyi(n, p, seed)
        params = AlgoParams(seed=seed)
        cover = (
            sample_cover(n, params.k, seed=cover_seed)
            if cover_seed is not None
            else EMPTY
        )
        block = np.arange(block_size(n, params.a))
        surviving = uncovered_pairs(g, cover, block)
        return g, params, cover, block, surviving

    def recomputed_charge(self, g, block, surviving, params, charge):
        """Per-apex Q(w), the dispatch total and its estimator share, from
        estimate_all_apexes on the plan check_charge draws."""
        n = g.n
        m = sample_size(n, params.k)
        rng = block_args(params.seed)[0]
        estimates, _ = estimate_all_apexes(
            g, surviving, SamplePlan(n, m, surviving.universe_size, rng=rng)
        )
        r = charge["inner_subset_size"]
        per_apex = []
        for w in range(n):
            # Q(w): one estimator charge plus the subset-walk formula with
            # checking cost sqrt(cap(w)).
            cap = subset_pair_cap(r, block.size, 3.0 * estimates[w])
            wc = WalkCharge(
                setup=float(r), update=2.0, check=math.sqrt(cap), r=r, eps=charge["inner_eps"]
            )
            per_apex.append(charge["estimator_each"] + walk_cost(wc))
        per_apex = np.array(per_apex)
        total = variable_search_cost(per_apex)
        return total, total * (n * charge["estimator_each"] / per_apex.sum())

    def test_no_survivors_still_charges_floor(self):
        g, params, cover, block, surviving = self.make(64, 0.0, 1)
        ledger = QueryLedger()
        charge = self.check_charge(g, surviving, params, ledger)
        assert charge["check_total"] > 0
        total, est_share = self.recomputed_charge(g, block, surviving, params, charge)
        assert charge["check_total"] == total
        assert ledger.charged["outer_check_estimator"] == est_share
        assert ledger.charged["inner_walk"] == total - est_share

    def test_raw_probes_land_on_the_ledger(self):
        # The estimator's probes for the plan the check draws are the ledger's
        # raw count; the estimator itself charges nothing.
        g, params, cover, block, surviving = self.make(64, 0.5, 2)
        ledger = QueryLedger()
        self.check_charge(g, surviving, params, ledger)
        m = sample_size(64, params.k)
        plan = SamplePlan(64, m, surviving.universe_size, rng=block_args(params.seed)[0])
        _, probes = estimate_all_apexes(g, surviving, plan)
        assert probes > 0 and ledger.raw_probes == probes
        assert set(ledger.charged) == {"outer_check_estimator", "inner_walk"}

    def test_share_split_is_additive(self):
        g, params, cover, block, surviving = self.make(64, 0.5, 2, cover_seed=3)
        ledger = QueryLedger()
        charge = self.check_charge(g, surviving, params, ledger)
        charged = ledger.charged
        assert charged["outer_check_estimator"] + charged["inner_walk"] == charge["check_total"]

    def test_per_apex_matches_walk_formula(self):
        # The dispatch total over Q(w) must match, bit for bit, and the
        # ledger phases must carry its estimator / walk split.
        g, params, cover, block, surviving = self.make(64, 0.5, 4, cover_seed=5)
        ledger = QueryLedger()
        charge = self.check_charge(g, surviving, params, ledger)
        total, est_share = self.recomputed_charge(g, block, surviving, params, charge)
        assert charge["check_total"] == total
        assert ledger.charged["outer_check_estimator"] == est_share
        assert ledger.charged["inner_walk"] == total - est_share

    def test_charge_ratio_across_sizes(self):
        # Two-point growth of the dispatch charge between n=256 and n=1024
        # stays inside the expected envelope bracket.
        totals = {}
        for n in (256, 1024):
            g = erdos_renyi(n, 0.5, seed=2)
            params = AlgoParams(seed=4)
            cover = sample_cover(n, params.k, seed=5)
            block = np.arange(block_size(n, params.a))
            surviving = uncovered_pairs(g, cover, block)
            charge = self.check_charge(g, surviving, params, QueryLedger())
            totals[n] = charge["check_total"]
        assert 3.5 <= totals[1024] / totals[256] <= 7.5

    def test_checker_gate(self):
        # The walk's success floor already absorbs checker error, so a
        # failing checker gate clears the block check's witness but not the
        # walk-path outcome.
        params = AlgoParams(
            seed=WALK_PATH_SEED, failure_injection=FailureInjection(check_success=0.0)
        )
        report = find_triangle(plant_only_graph(), params)
        assert not report.charge_log["outer"]["check_witness_found"]
        assert report.outcome == Triangle(61, 62, 63)


class TestBlockWalk:
    def test_triangle_free_returns_none(self):
        g = random_bipartite(128, seed=3)
        params = AlgoParams(seed=7)
        cover = sample_cover(128, params.k, seed=8)
        ledger = QueryLedger()
        witness, log = search_blocks(
            g, cover, ledger, *block_args(params.seed), **stage_sizes(128, params)
        )
        assert witness is None and not log["witness_exists"]
        for phase in ("outer_setup", "outer_update", "outer_check_estimator", "inner_walk"):
            assert ledger.charged[phase] > 0

    def test_witness_block_contains_edge(self, monkeypatch):
        g = plant_only_graph()
        params = AlgoParams(seed=1)
        blocks = []
        real = pipeline_module.uncovered_pairs

        def recording(g, cover, block):
            blocks.append(block)
            return real(g, cover, block)

        monkeypatch.setattr(pipeline_module, "uncovered_pairs", recording)
        ledger = QueryLedger()
        witness, log = search_blocks(
            g, np.array([0]), ledger, *block_args(params.seed), **stage_sizes(64, params)
        )
        assert witness == (63, (61, 62))
        (block,) = blocks
        assert block.size == block_size(64, params.a)
        assert np.isin([61, 62], block).all()
        # smallest-index fill
        assert np.array_equal(block[:3], [0, 1, 2])
        # The inner subset extraction searches holds the edge and lies in the block.
        inner = pipeline_module._fill_vertices(64, (61, 62), inner_size(64, params.a))
        assert np.isin([61, 62], inner).all() and np.isin(inner, block).all()

    def test_fill_vertices(self):
        # The required vertices plus the smallest others, each vertex once.
        fill = pipeline_module._fill_vertices
        assert fill(64, (5, 2), 6).tolist() == [0, 1, 2, 3, 4, 5]
        assert fill(64, (60, 2), 6).tolist() == [0, 1, 2, 3, 4, 60]
        assert fill(6, (0, 5), 6).tolist() == [0, 1, 2, 3, 4, 5]

    def test_exact_marked_fraction(self):
        g = random_bipartite(256, seed=4)
        params = AlgoParams(seed=2)
        cover = sample_cover(256, 0.5, seed=9)
        _, log = search_blocks(
            g, cover, QueryLedger(), *block_args(params.seed), **stage_sizes(256, params)
        )
        assert log["eps"] == 64 * 63 / (256 * 255)
        assert log["eps"] == pytest.approx(0.061764, abs=1e-6)

    def test_outer_charges_match_formulas(self):
        g = random_bipartite(128, seed=5)
        params = AlgoParams(seed=3)
        cover = sample_cover(128, params.k, seed=6)
        ledger = QueryLedger()
        _, log = search_blocks(
            g, cover, ledger, *block_args(params.seed), **stage_sizes(128, params)
        )
        bsize = block_size(128, params.a)
        x_charge = sample_size(128, params.k)  # log factors off
        assert log["cover_charge_size"] == x_charge
        assert ledger.charged["outer_setup"] == bsize * x_charge
        amplify = 1.0 / math.sqrt(log["eps"])
        assert ledger.charged["outer_update"] == pytest.approx(
            amplify * math.sqrt(bsize) * 2 * x_charge
        )
        check_total = (
            ledger.charged["outer_check_estimator"] + ledger.charged["inner_walk"]
        )
        assert check_total == pytest.approx(amplify * log["check_total"])

    def test_walk_gate(self):
        for p, outcome in ((0.0, None), (1.0, Triangle(61, 62, 63))):
            params = AlgoParams(
                seed=WALK_PATH_SEED, failure_injection=FailureInjection(walk_success=p)
            )
            report = find_triangle(plant_only_graph(), params)
            assert report.charge_log["outer"]["suppressed"] == (outcome is None)
            assert report.outcome == outcome

    def test_walk_gate_rate(self):
        rng = np.random.default_rng(42)
        suppressed = sum(pipeline_module._suppressed(0.75, rng) for _ in range(400))
        sigma = math.sqrt(400 * 0.25 * 0.75)
        assert abs(suppressed - 100) <= 5 * sigma


class TestProvenTriangleFree:
    """A negative cover scan sends the block walk to the pruned scan of
    G[V - C], gated or not; a suppressed cover hit still puts a cover vertex
    in a triangle, so it keeps the exclude scan over all of V."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        scan = pipeline_module._first_surviving_triangle_edge

        def recording(g, cover, cover_negative=False):
            calls.append(cover_negative)
            return scan(g, cover, cover_negative)

        monkeypatch.setattr(pipeline_module, "_first_surviving_triangle_edge", recording)
        return calls

    def test_search_gate_on_a_negative_cover_scan_takes_the_pruned_scan(self, scans):
        g = random_bipartite(128, 0)
        plain = find_triangle(g, AlgoParams(seed=0))
        gated = find_triangle(
            g, AlgoParams(seed=0, failure_injection=FailureInjection(search_success=1.0))
        )
        assert scans == [True, True]
        assert gated.charges == plain.charges
        assert gated.raw_probes == plain.raw_probes

    def test_suppressed_cover_hit_takes_the_exclude_scan(self, scans):
        params = AlgoParams(failure_injection=FailureInjection(search_success=0.0))
        find_triangle(erdos_renyi(64, 1.0, seed=0), params)
        assert scans == [False]

    def test_walk_path_takes_the_pruned_scan(self, scans):
        report = find_triangle(plant_only_graph(), AlgoParams(seed=WALK_PATH_SEED))
        assert report.outcome == Triangle(61, 62, 63)
        assert report.charge_log["outer"]["check_witness_found"]
        assert scans == [True]


BLOCK_CHECK_FAMILIES = {
    "er-0.1": lambda seed: erdos_renyi(64, 0.1, seed),
    "er-0.5": lambda seed: erdos_renyi(64, 0.5, seed),
    "bipartite": lambda seed: random_bipartite(64, seed),
    "planted": lambda seed: planted_instance(64, seed),
    "plant-only": lambda seed: plant_only_graph(),
}


class TestBlockCheckAnswer:
    """The block check's answer is the block scan's hit: a hit edge is a
    closed uncovered pair inside the witness block, and with no hit in V no
    block holds one. The reference is the witness oracle over all of V."""

    @pytest.mark.parametrize("family", sorted(BLOCK_CHECK_FAMILIES))
    def test_check_answer_matches_the_oracle(self, family, monkeypatch):
        runs = []
        real = pipeline_module.search_blocks

        def spy(g, cover, *args, **kwargs):
            witness, log = real(g, cover, *args, **kwargs)
            runs.append((g, cover, dict(log)))
            return witness, log

        monkeypatch.setattr(pipeline_module, "search_blocks", spy)
        # A failing search gate sends every finder run to the block walk.
        inj = FailureInjection(search_success=0.0)
        for seed in range(3):
            g = BLOCK_CHECK_FAMILIES[family](seed)
            find_triangle(g, AlgoParams(seed=seed, failure_injection=inj))
            finder_cover = runs[-1][1]
            # The exclude scan, on the finder's own cover and a smaller random one.
            for cover in (finder_cover, sample_cover(64, 0.25, seed=100 + seed)):
                spy(g, cover, QueryLedger(), *block_args(seed), **stage_sizes(64, AlgoParams()))
        answers = set()
        for g, cover, log in runs:
            exists = apex_witness_oracle(g, uncovered_pairs(g, cover, np.arange(g.n))) is not None
            assert log["check_witness_found"] == log["witness_exists"] == exists
            answers.add(exists)
        # Bipartite inputs never hold a triangle; each other family reaches a hit.
        assert (True in answers) == (family != "bipartite")


class TestFindTriangle:
    @pytest.mark.parametrize("seed", [0, 91, 2**40 + 3])
    def test_substreams_are_the_spawned_children(self, seed):
        children = np.random.SeedSequence([seed]).spawn(4)
        for index, child in enumerate(children):
            built = pipeline_module._substream(seed, index).integers(0, 2**62, size=4)
            assert np.array_equal(built, np.random.default_rng(child).integers(0, 2**62, size=4))

    def test_substreams_are_built_only_where_read(self, monkeypatch):
        built = []
        real = pipeline_module._substream

        def recording(seed, index):
            built.append(index)
            return real(seed, index)

        monkeypatch.setattr(pipeline_module, "_substream", recording)
        find_triangle(erdos_renyi(64, 1.0, seed=0), AlgoParams())  # exits at the cover
        find_triangle(plant_only_graph(), AlgoParams(seed=WALK_PATH_SEED))  # the walk path
        inj = FailureInjection(walk_success=1.0)
        find_triangle(plant_only_graph(), AlgoParams(seed=WALK_PATH_SEED, failure_injection=inj))
        # The block stream only where the walk's edge scan finds no hit.
        find_triangle(random_bipartite(64, seed=0), AlgoParams())
        assert built == [0, 0, 1, 3, 0, 1, 0, 1, 2]

    def test_size_guard(self):
        g = erdos_renyi(32, 0.5, seed=0)
        with pytest.raises(ValueError):
            find_triangle(g, AlgoParams())

    def test_derived_size_guard(self):
        # At n=9, a=3/4 the inner subset size is 3, too small for the cap.
        g = erdos_renyi(9, 0.5, seed=0)
        with pytest.raises(ValueError):
            find_triangle(g, AlgoParams(n_min_guard=4))

    def test_edgeless_charges_all_negative_phases(self):
        g = erdos_renyi(64, 0.0, seed=0)
        report = find_triangle(g, AlgoParams(seed=1))
        assert report.outcome is None and not report.stopped_early
        for phase in (
            "cover_search",
            "outer_setup",
            "outer_update",
            "outer_check_estimator",
            "inner_walk",
        ):
            assert report.charges[phase] > 0
        assert report.charges["extraction"] == 0.0
        assert report.charges["final_search"] == 0.0
        assert set(report.charges) == set(PHASES)

    def test_agrees_with_ground_truth(self):
        for seed in range(6):
            for g in (
                erdos_renyi(64, 0.1, seed),
                erdos_renyi(64, 0.5, seed),
                random_bipartite(64, seed),
                planted_instance(64, seed),
            ):
                report = find_triangle(g, AlgoParams(seed=seed + 100))
                exists = brute_force_triangle(g) is not None
                assert (report.outcome is not None) == exists
                if report.outcome is not None:
                    assert is_triangle(g, report.outcome)

    @settings(max_examples=25, deadline=None)
    @given(
        graph_seed=st.integers(0, 10**6),
        run_seed=st.integers(0, 10**6),
        family=st.sampled_from(["er:0.2", "er:0.5", "er:0.8", "bipartite", "planted"]),
        n=st.integers(12, 48),
    )
    def test_agreement_property(self, graph_seed, run_seed, family, n):
        from triwalk.harness import parse_family

        g = parse_family(family)(n, graph_seed)
        report = find_triangle(g, AlgoParams(seed=run_seed, n_min_guard=12))
        exists = brute_force_triangle(g) is not None
        assert (report.outcome is not None) == exists
        if report.outcome is not None:
            assert is_triangle(g, report.outcome)

    def test_k4_padded_with_isolated_vertices(self):
        # A K4 among isolated vertices: caught in phase one whenever the
        # cover touches it, by the walk otherwise; always matches truth.
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        g = Graph.from_edges(64, edges)
        for seed in range(8):
            report = find_triangle(g, AlgoParams(seed=seed))
            assert report.outcome is not None
            assert is_triangle(g, report.outcome)
            assert set(report.outcome) <= {0, 1, 2, 3}

    def test_report_schema(self):
        g = planted_instance(64, seed=2)
        blob = json.loads(find_triangle(g, AlgoParams(seed=4)).to_json())
        assert set(blob) == {
            "n",
            "algo",
            "params",
            "outcome",
            "charges",
            "total_charge",
            "raw_probes",
            "stopped_early",
            "charge_log",
            "wall_ms",
        }
        assert set(blob["params"]) == {"a", "k", "log_factors", "seed"}
        assert set(blob["outcome"]) == {"found", "vertices"}
        assert blob["total_charge"] == pytest.approx(sum(blob["charges"].values()))

    def test_report_records_configured_gates_only(self):
        g = plant_only_graph()
        plain = find_triangle(g, AlgoParams(seed=WALK_PATH_SEED))
        assert "failure_injection" not in plain.params
        inj = FailureInjection(search_success=0.5)
        gated = find_triangle(g, AlgoParams(seed=WALK_PATH_SEED, failure_injection=inj))
        # This gate passes, so only the params block tells the runs apart.
        assert gated.outcome == plain.outcome and gated.charges == plain.charges
        blob = json.loads(gated.to_json())
        assert blob["params"]["failure_injection"] == {
            "walk_success": None,
            "check_success": None,
            "search_success": 0.5,
        }
        assert gated.to_json() != plain.to_json()

    def test_walk_path_extraction(self):
        g = plant_only_graph()
        report = find_triangle(g, AlgoParams(seed=WALK_PATH_SEED))
        assert report.outcome == Triangle(61, 62, 63)
        assert report.charges["extraction"] > 0
        assert report.charges["final_search"] > 0
        # completion: plain search over n * pairs(block)
        expected = grover_cost(64 * comb(block_size(64, 0.75), 2), 1.0)
        assert report.charges["final_search"] == expected

    def test_phase_charges_recompute_from_log(self):
        g = plant_only_graph()
        report = find_triangle(g, AlgoParams(seed=WALK_PATH_SEED))
        log = report.charge_log
        assert report.charges["cover_search"] == grover_cost(
            log["cover_search"]["domain"], 1.0
        )
        outer = log["outer"]
        assert report.charges["outer_setup"] == pytest.approx(outer["setup"])
        amplify = 1.0 / math.sqrt(outer["eps"])
        assert report.charges["outer_update"] == pytest.approx(
            amplify * math.sqrt(outer["block_size"]) * outer["update"]
        )
        assert report.charges["outer_check_estimator"] + report.charges[
            "inner_walk"
        ] == pytest.approx(outer["check_scale"] * outer["check_total"])
        assert report.charges["extraction"] == grover_cost(
            log["extraction"]["domain"], 1.0
        )
        assert report.charges["final_search"] == grover_cost(
            log["final_search"]["domain"], 1.0
        )
        assert report.total == pytest.approx(sum(report.charges.values()))

    def test_deterministic_reports(self):
        g = planted_instance(128, seed=7)
        r1 = find_triangle(g, AlgoParams(seed=9))
        r2 = find_triangle(g, AlgoParams(seed=9))
        assert r1.to_json() == r2.to_json()
        assert json.loads(r1.to_json())["wall_ms"] is None

    def test_non_default_exponents(self):
        # Other (a, k) choices keep every derived size legal at n=128 and
        # the run inside budget, on both positive and negative inputs.
        for a, k in ((0.6, 0.4), (0.8, 0.3), (0.7, 0.6)):
            params = AlgoParams(a=a, k=k, seed=5)
            pos = find_triangle(planted_instance(128, 3), params)
            neg = find_triangle(random_bipartite(128, 3), params)
            assert pos.outcome is not None and not pos.stopped_early
            assert neg.outcome is None and not neg.stopped_early

    def test_log_on_negatives_do_not_trip_budget(self):
        # Stacked repetition factors in the log-on model must stay inside
        # the budget's polylog headroom.
        g = random_bipartite(512, seed=1)
        report = find_triangle(g, AlgoParams(seed=2, log_factors=True))
        assert not report.stopped_early and report.outcome is None
        assert report.total < report.charge_log["budget"]

    @pytest.mark.parametrize("value", ["off", "on", 0, 1, None])
    def test_log_factors_must_be_bool(self, value):
        # A truthy non-bool such as "off" would turn log factors on and be
        # recorded verbatim in the report.
        with pytest.raises(ValueError, match="log_factors must be a bool"):
            AlgoParams(log_factors=value)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("a", "0.5", r"block exponent a must be a real number in \(0, 1\)"),
            ("k", "0.5", r"cover exponent k must be a real number in \(0, 1\)"),
            ("seed", 1.5, "seed must be an integer"),
            ("seed", True, "seed must be an integer"),
            ("seed", -1, "seed must be at least 0"),
        ],
    )
    def test_exponents_and_seed_are_checked_at_construction(self, field, value, message):
        # "0.5" once raised a bare TypeError; seeds 1.5 and -1 were accepted
        # and failed only inside find_triangle, in numpy's SeedSequence.
        with pytest.raises(ValueError, match=message):
            AlgoParams(**{field: value})

    @pytest.mark.parametrize("value", [0.5, {"walk_success": 0.5}, "off"])
    def test_failure_injection_must_be_a_failure_injection(self, value):
        # 0.5 once died with an AttributeError inside find_triangle.
        with pytest.raises(ValueError, match="failure_injection must be a FailureInjection"):
            AlgoParams(failure_injection=value)

    @pytest.mark.parametrize("gate", ["walk_success", "check_success", "search_success"])
    @pytest.mark.parametrize("value", [True, False, "x", 1j, float("nan"), -0.1, 1.5, 2])
    def test_gate_probability_must_be_a_real_in_unit_interval(self, gate, value):
        # True once read as a certain pass; "x" died with a bare TypeError.
        with pytest.raises(ValueError, match=rf"{gate} must be a real number in \[0, 1\]"):
            FailureInjection(**{gate: value})

    @pytest.mark.parametrize("value", [0, 1, 2 / 3, np.float64(0.5), np.float32(0.25)])
    def test_gate_probability_accepts_reals(self, value):
        assert FailureInjection(walk_success=value).walk_success == value

    def test_library_never_probes_through_query(self, monkeypatch):
        # Classical probes are counted in closed form; Graph.query is only
        # the one-pair oracle for callers.
        def forbidden(self, ledger, u, v):
            raise AssertionError("library code called Graph.query")

        monkeypatch.setattr(Graph, "query", forbidden)
        graphs = [
            random_bipartite(256, 0),
            erdos_renyi(64, 0.5, seed=3),
            plant_only_graph(),
            planted_instance(128, 2),
        ]
        for g in graphs:
            for log_factors in (False, True):
                report = find_triangle(
                    g, AlgoParams(seed=WALK_PATH_SEED, log_factors=log_factors)
                )
                truth = brute_force_triangle(g)
                assert (report.outcome is None) == (truth is None)
                if report.outcome is not None:
                    assert is_triangle(g, report.outcome)
                naive_triples_baseline(g, log_factors)
                sparse_edges_baseline(g, log_factors)

    def test_budget_stop(self, monkeypatch):
        g = erdos_renyi(64, 0.5, seed=3)
        # generous default budget never fires here
        normal = find_triangle(g, AlgoParams(seed=1))
        monkeypatch.setattr(pipeline_module, "BUDGET_MULTIPLIER", 1e-9)
        report = find_triangle(g, AlgoParams(seed=1))
        assert report.stopped_early and report.outcome is None
        assert not normal.stopped_early
        assert normal.total < normal.charge_log["budget"]

    @pytest.mark.parametrize(
        "stop, present, absent",
        [
            (0, {"cover_search"}, {"outer", "extraction", "final_search"}),
            (1, {"cover_search", "outer"}, {"extraction", "final_search"}),
            (2, {"cover_search", "outer", "extraction", "final_search"}, set()),
        ],
    )
    def test_budget_stop_at_each_check(self, monkeypatch, stop, present, absent):
        # A budget between two of the walk path's running totals stops the
        # run at the first budget check past it, with no triangle reported.
        g = plant_only_graph()
        params = AlgoParams(seed=WALK_PATH_SEED)
        charges = find_triangle(g, params).charges
        outer = ("outer_setup", "outer_update", "outer_check_estimator", "inner_walk")
        checks = [
            0.0,
            charges["cover_search"],
            charges["cover_search"] + sum(charges[phase] for phase in outer),
            sum(charges.values()),
        ]
        budget = (checks[stop] + checks[stop + 1]) / 2.0
        envelope = cost_envelope(g.n, params.a, params.k)
        monkeypatch.setattr(pipeline_module, "BUDGET_MULTIPLIER", budget / envelope)
        report = find_triangle(g, params)
        assert report.stopped_early and report.outcome is None
        assert present <= set(report.charge_log) and not absent & set(report.charge_log)
        assert report.total > report.charge_log["budget"] > checks[stop]

    def test_walk_path_checker_gate_draws_first(self, monkeypatch):
        # On the walk path the checker gate suppresses nothing, but it
        # draws before the walk gate and records the checker's witness.
        gates = []
        suppressed = pipeline_module._suppressed

        def recording(p, rng):
            gates.append(p)
            return suppressed(p, rng)

        monkeypatch.setattr(pipeline_module, "_suppressed", recording)
        report = find_triangle(
            plant_only_graph(),
            AlgoParams(
                seed=WALK_PATH_SEED,
                failure_injection=FailureInjection(walk_success=0.75, check_success=2.0 / 3.0),
            ),
        )
        assert gates == [2.0 / 3.0, 0.75]
        assert report.charge_log["outer"]["check_witness_found"]

    def test_no_false_positives_under_injection(self):
        inj = FailureInjection(walk_success=0.5, check_success=0.5, search_success=0.5)
        for seed in range(5):
            g = random_bipartite(64, seed)
            report = find_triangle(g, AlgoParams(seed=seed, failure_injection=inj))
            assert report.outcome is None


class TestBaselines:
    def test_naive_edgeless_charge(self):
        g = erdos_renyi(100, 0.0, seed=0)
        report = naive_triples_baseline(g)
        assert report.outcome is None
        assert report.total == grover_cost(comb(100, 3), 1.0)
        assert round(report.total, 1) == 402.1

    def test_naive_matches_ground_truth(self):
        for seed in range(5):
            g = erdos_renyi(48, 0.2, seed)
            report = naive_triples_baseline(g)
            assert report.outcome == brute_force_triangle(g)

    def test_edges_closed_forms(self):
        n = 60
        edgeless = sparse_edges_baseline(erdos_renyi(n, 0.0, seed=0))
        assert edgeless.total == pytest.approx(n)
        complete = sparse_edges_baseline(erdos_renyi(n, 1.0, seed=0))
        assert complete.total == pytest.approx(n + math.sqrt(n * comb(n, 2)))
        cycle = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        assert sparse_edges_baseline(cycle).total == pytest.approx(2 * n)

    @pytest.mark.parametrize("baseline", [naive_triples_baseline, sparse_edges_baseline])
    @pytest.mark.parametrize("value", ["off", "on", 0, 1, None])
    def test_log_factors_must_be_bool(self, baseline, value):
        # "off" once turned log factors on: on random_bipartite(64, 0) the
        # naive baseline charged 2,245.3 against 204.1 and recorded "off".
        with pytest.raises(ValueError, match="log_factors must be a bool"):
            baseline(random_bipartite(64, 0), value)

    def test_baseline_reports_serialize(self):
        report = naive_triples_baseline(erdos_renyi(20, 0.5, seed=1))
        blob = json.loads(report.to_json())
        assert blob["algo"] == "naive"
        assert blob["params"]["a"] is None


class TestEnvelope:
    def test_envelope_dominates_defaults(self):
        # Closed-form budget envelope leaves model charges clear headroom.
        for n in (64, 128, 512):
            g = erdos_renyi(n, 0.0, seed=0)
            report = find_triangle(g, AlgoParams(seed=2))
            assert report.total < 10 * cost_envelope(n, 0.75, 0.5)

    def test_envelope_shape(self):
        # At a=3/4, k=1/2 all exponents but one collapse onto 5/4.
        big = cost_envelope(4096, 0.75, 0.5)
        assert big == pytest.approx(6 * 4096**1.25 + 4096**1.125, rel=1e-12)
        assert inner_size(4096, 0.75) == 64

    def test_phase_slopes_match_envelope_terms(self):
        # On triangle-free inputs every phase up to the block check runs, and
        # each one's mean charge grows as its own term of cost_envelope.
        a, k = 0.75, 0.5
        terms = {
            "cover_search": 1.0 + k / 2.0,
            "outer_setup": a + k,
            "outer_update": 1.0 - a / 2.0 + k,
            "outer_check_estimator": 1.5 + k - a,
            "inner_walk": 1.5 - a / 3.0,
        }
        grid = (256, 512, 1024, 2048)
        means = {phase: [] for phase in terms}
        for n in grid:
            reports = [find_triangle(random_bipartite(n, s), AlgoParams(seed=s)) for s in range(3)]
            for phase in terms:
                means[phase].append(float(np.mean([r.charges[phase] for r in reports])))
        for phase, exponent in terms.items():
            slope, _, _ = fit_loglog(list(zip(grid, means[phase])))
            assert slope == pytest.approx(exponent, abs=0.05), phase
