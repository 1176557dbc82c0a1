"""Campaigns, fitting, and report plumbing."""

import json
import math
import signal
import tracemalloc

import numpy as np
import pytest

from triwalk import (
    FailureInjection,
    correctness_suite,
    scaling_fit,
    verify_cover_sparsity,
    verify_estimator_bounds,
    verify_subset_cap,
    wilson_interval,
)
from triwalk import harness
from triwalk.graph import _SCAN_CAP, _apex_column_counts
from triwalk.harness import SUBSET_CAP_CONFIGS, fit_loglog, parse_family, sigma_pass_line
from triwalk.pairs import sample_cover, uncovered_pairs, uncovered_pairs_at


def subset_cap_reference(size_a, r, trials, config, seed):
    """Per trial of verify_subset_cap: does B keep the probe pair, and how
    many apex pairs does B hold, counted by gathering both ends of every
    apex pair. Draws the campaign's random stream in its order, in
    2^14-trial chunks: any chunking draws the same keys, as
    test_batch_size_never_changes_the_report checks.
    """
    g, cover, block, apex = harness._subset_cap_setup(config, size_a, seed)
    pu, pv = uncovered_pairs_at(g, cover, block, apex).selected_endpoints()
    rng = np.random.default_rng([seed, 0x4])
    v1, v2 = rng.choice(size_a, size=2, replace=False)
    keeps, counts = [], []
    for start in range(0, trials, 1 << 14):
        batch = min(1 << 14, trials - start)
        keys = rng.random((batch, size_a))
        in_b = np.zeros((batch, size_a), dtype=bool)
        np.put_along_axis(in_b, np.argpartition(keys, r - 1, axis=1)[:, :r], True, axis=1)
        keeps.append(in_b[:, v1] & in_b[:, v2])
        counts.append((in_b[:, block[pu]] & in_b[:, block[pv]]).sum(axis=1))
    return np.concatenate(keeps), np.concatenate(counts)


def true_apex_counts_reference(g, surviving):
    """Per-apex surviving-pair counts, summing each pair's common-neighbour row."""
    counts = np.zeros(g.n, dtype=np.int64)
    pu, pv = surviving.selected_endpoints()
    adj = g.bool_matrix
    for u, v in zip(pu.tolist(), pv.tolist()):
        counts += adj[u] & adj[v]
    return counts


class TestStats:
    def test_wilson_basic_properties(self):
        lo, hi = wilson_interval(50, 100, z=1.96)
        assert 0.0 <= lo <= 0.5 <= hi <= 1.0
        assert (lo, hi) == pytest.approx((0.40383, 0.59617), abs=1e-4)

    def test_wilson_extremes(self):
        lo, hi = wilson_interval(0, 20)
        assert lo == 0.0 and hi < 1.0
        lo, hi = wilson_interval(20, 20)
        assert lo > 0.0 and hi == 1.0
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(8, 5)

    def test_pass_lines_match_expected_slack(self):
        # 5-sigma slack below the guaranteed rates at campaign scales.
        assert sigma_pass_line(1 - 1 / 256, 200) == pytest.approx(0.974, abs=1e-3)
        assert sigma_pass_line(1 - 3 / 256, 100) == pytest.approx(0.9345, abs=1e-3)
        assert sigma_pass_line(15**2 / (2 * 128**2), 100_000) == pytest.approx(
            0.005561, abs=1e-5
        )

    def test_fit_recovers_exact_power_law(self):
        points = [(n, 3.0 * n**1.5) for n in (64, 128, 256, 512)]
        slope, intercept, r2 = fit_loglog(points)
        assert slope == pytest.approx(1.5, abs=1e-12)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_loglog([(10, 1.0)])


class TestTrialSeeds:
    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**40])
    def test_seeds_are_those_of_one_spawn(self, seed):
        children = np.random.SeedSequence([seed]).spawn(50)
        expected = [int(child.generate_state(1)[0]) for child in children]
        assert list(harness._trial_seeds(seed, 50)) == expected

    def test_first_seed_holds_no_other_trials_seed(self):
        # Spawning every child up front held all 10^5 before the first trial.
        next(iter(harness._trial_seeds(0, 10)))  # imports and caches, untraced
        tracemalloc.start()
        try:
            next(iter(harness._trial_seeds(0, 10**5)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    def test_seed_is_checked_at_the_call(self):
        with pytest.raises(ValueError, match="seed"):
            harness._trial_seeds(-1, 3)


class TestFamilies:
    def test_tokens(self):
        for token in ("er:0.3", "bipartite", "planted", "edgeless", "complete"):
            g = parse_family(token)(16, 3)
            assert g.n == 16
        with pytest.raises(ValueError):
            parse_family("smallworld")

    def test_er_token_probability(self):
        assert parse_family("er:1.0")(6, 0).edge_count == 15


class TestSubsetCapSetup:
    # perfbench indexes SUBSET_CAP_CONFIGS, so its order is part of the API.
    FAMILY_TOKENS = {"er-half": "er:0.5", "er-dense": "er:0.9", "edgeless": "edgeless"}

    def test_config_order(self):
        assert SUBSET_CAP_CONFIGS == ("er-half", "er-dense", "edgeless")

    @pytest.mark.parametrize("config", SUBSET_CAP_CONFIGS)
    def test_graph_built_from_family_token(self, config):
        g, cover, block, apex = harness._subset_cap_setup(config, 20, 5)
        assert g == parse_family(self.FAMILY_TOKENS[config])(36, 5)
        assert cover.size == 0 and apex == 20
        assert np.array_equal(block, np.arange(20))

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError, match="unknown subset-cap config"):
            harness._subset_cap_setup("er:0.5", 20, 5)


class TestCoverSparsityCampaign:
    def test_edgeless_family_trivially_passes(self):
        report = verify_cover_sparsity(64, 0.5, 10, family="edgeless", seed=1)
        assert report.frequency == 1.0 and report.verdict

    def test_high_k_cover_is_nearly_everything(self):
        report = verify_cover_sparsity(64, 0.9, 10, family="er:0.5", seed=2)
        assert report.frequency == 1.0 and report.verdict

    @pytest.mark.parametrize("k", [0.0, 1.0, 1.5, -0.5])
    def test_exponent_outside_the_finders_bounds_rejected(self, k):
        with pytest.raises(ValueError, match=r"cover exponent k must be a real number in \(0, 1\)"):
            verify_cover_sparsity(64, k, 10)

    def test_report_is_self_contained(self):
        report = verify_cover_sparsity(64, 0.5, 10, family="er:0.5", seed=3)
        blob = json.loads(report.to_json())
        assert blob["successes"] == sum(blob["per_trial"])
        assert blob["frequency"] == blob["successes"] / blob["trials"]
        assert blob["verdict"] == (blob["frequency"] >= blob["pass_line"])


class TestEstimatorCampaign:
    def test_small_campaign_passes(self):
        report = verify_estimator_bounds(64, 0.75, 0.5, 10, family="er:0.5", seed=4)
        assert report.verdict
        assert report.bound == pytest.approx(1 - 3 / 64)

    def test_needs_reasonable_n(self):
        with pytest.raises(ValueError):
            verify_estimator_bounds(3, 0.75, 0.5, 5)

    @pytest.mark.parametrize(
        "a, k, message",
        [
            (1.5, 0.5, "block exponent a"),
            (0.0, 0.5, "block exponent a"),
            (0.75, 0.0, "cover exponent k"),
        ],
    )
    def test_exponents_outside_the_finders_bounds_rejected(self, a, k, message):
        with pytest.raises(ValueError, match=message):
            verify_estimator_bounds(64, a, k, 10)

    def test_sparse_family_probes_apexes(self, monkeypatch):
        # On er:0.5 at n=256 the cover prunes every pair, so criterion 3's
        # campaign never probes an apex. On er:0.1 pairs survive (a median
        # of about 379 a trial) and the screen probes them.
        probes = []
        real = harness.estimate_all_apexes

        def recording(g, surviving, plan):
            outputs, total = real(g, surviving, plan)
            probes.append(total)
            return outputs, total

        monkeypatch.setattr(harness, "estimate_all_apexes", recording)
        report = verify_estimator_bounds(256, 0.75, 0.5, 20, family="er:0.1")
        assert report.verdict
        assert len(probes) == 20 and max(probes) > 0

    def test_complete_family_prunes_everything(self):
        # In a complete graph any cover vertex outside a pair prunes it, so
        # the surviving set is empty, every apex screens to the floor, and
        # the bracket holds with certainty.
        report = verify_estimator_bounds(48, 0.75, 0.5, 10, family="complete", seed=5)
        assert report.frequency == 1.0 and report.verdict

    @pytest.mark.parametrize(
        "family, n, k, slices",
        [
            ("er:0.5", 40, None, 1),
            ("er:0.1", 64, 0.5, 1),
            ("er:0.9", 100, None, 2),
            ("bipartite", 130, 0.3, 2),
            ("er:0.05", 160, 0.5, 3),
        ],
    )
    def test_true_apex_counts_equal_the_pair_loop(self, family, n, k, slices):
        # The campaign's exact counts against a per-pair loop, across one to
        # three gather slices of surviving pairs.
        g = parse_family(family)(n, 7)
        cover = sample_cover(n, k, seed=7) if k is not None else np.array([], dtype=np.int64)
        surviving = uncovered_pairs(g, cover, np.arange(n))
        assert -(-len(surviving) // _SCAN_CAP) == slices
        counts = _apex_column_counts(g, *surviving.selected_endpoints())
        assert counts.dtype == np.int64
        assert np.array_equal(counts, true_apex_counts_reference(g, surviving))


class TestSubsetCapCampaign:
    def test_forced_inclusion_at_full_size(self):
        report = verify_subset_cap(16, 16, 500, config="er-half", seed=6)
        assert report.frequency == 1.0 and report.verdict

    def test_edgeless_matches_pair_inclusion_closed_form(self):
        size_a, r, trials = 64, 8, 20_000
        report = verify_subset_cap(size_a, r, trials, config="edgeless", seed=7)
        closed = r * (r - 1) / (size_a * (size_a - 1))
        sigma = math.sqrt(closed * (1 - closed) / trials)
        assert abs(report.frequency - closed) <= 5 * sigma
        assert report.verdict

    def test_configs_all_pass_at_reduced_scale(self):
        for config in ("er-half", "er-dense", "edgeless"):
            report = verify_subset_cap(128, 16, 5000, config=config, seed=8)
            assert report.verdict, config

    @pytest.mark.parametrize("config", SUBSET_CAP_CONFIGS)
    def test_degree_count_equals_pair_gather_reference(self, monkeypatch, config):
        # The real cap never binds on these configs, so force caps that do:
        # at each one the hits equal the reference's, subset by subset count.
        size_a, r, trials, seed = 64, 16, 20_000, 9
        keeps, counts = subset_cap_reference(size_a, r, trials, config, seed)
        for cap in sorted({*np.quantile(counts[keeps], [0.1, 0.5, 0.9]).astype(int), -1}):
            monkeypatch.setattr(harness, "subset_pair_cap", lambda *_: cap)
            report = verify_subset_cap(size_a, r, trials, config=config, seed=seed)
            assert report.successes == int((keeps & (counts <= cap)).sum())

    @pytest.mark.parametrize("r", [16, 128])
    @pytest.mark.parametrize("config", SUBSET_CAP_CONFIGS)
    def test_batch_size_never_changes_the_report(self, monkeypatch, config, r):
        # Generator.random takes one 64-bit output per key in C order, so
        # batches of one trial or of seven draw the default batches' keys.
        size_a, trials, seed = 128, 1000, 10
        default = verify_subset_cap(size_a, r, trials, config=config, seed=seed).to_json()
        for rows in (1, 7):
            monkeypatch.setattr(harness, "_CAP_BATCH_KEYS", rows * size_a)
            report = verify_subset_cap(size_a, r, trials, config=config, seed=seed)
            assert report.to_json() == default, rows

    def test_memory_is_fixed_whatever_the_trial_count(self):
        # Drawing up to 2^14 trials' keys at once peaked at 50 MiB traced.
        verify_subset_cap(128, 16, 10, config="er-half")  # imports and caches, untraced
        tracemalloc.start()
        try:
            verify_subset_cap(128, 16, 100_000, config="er-half")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_contract(self):
        with pytest.raises(ValueError):
            verify_subset_cap(3, 3, 10)
        with pytest.raises(ValueError):
            verify_subset_cap(16, 3, 10)
        with pytest.raises(ValueError):
            verify_subset_cap(16, 8, 10, config="moon")

    @pytest.mark.parametrize("trials", [math.inf, 2.5, True])
    def test_trials_must_be_a_positive_integer(self, trials):
        # trials=inf once passed the positivity check and never returned.
        def hung(signum, frame):
            raise AssertionError(f"verify_subset_cap(trials={trials}) ran past 5 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            with pytest.raises(ValueError, match="trials must be an integer"):
                verify_subset_cap(32, 8, trials)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class TestScalingFit:
    def test_grid_contract(self):
        with pytest.raises(ValueError):
            scaling_fit([128, 256], "naive", 2)
        with pytest.raises(ValueError):
            scaling_fit([32, 64, 128], "walk", 1)

    @pytest.mark.parametrize(
        "grid, algo, message",
        [
            # "wlak" once generated erdos_renyi(4096) before it was rejected.
            ([4096, 4097, 4098], "wlak", "unknown algorithm 'wlak'"),
            # The naive baseline once ran at n=64 and 128 before it refused n=2.
            ([64, 128, 2], "naive", "grid point n must be at least 3"),
        ],
    )
    def test_bad_grid_or_algo_is_rejected_before_any_graph(self, monkeypatch, grid, algo, message):
        built = []
        monkeypatch.setattr(harness, "erdos_renyi", lambda *args: built.append(args))
        with pytest.raises(ValueError, match=message):
            scaling_fit(grid, algo, 1)
        assert built == []

    def test_naive_slope_analytic(self):
        fit = scaling_fit([128, 256, 512], "naive", 2, family="er:0.5", seed=0)
        assert 1.49 <= fit.slope <= 1.51
        assert fit.r_squared > 0.9999

    def test_walk_fit_shape(self):
        fit = scaling_fit([64, 128, 256], "walk", 2, family="er:0.5", seed=0)
        assert len(fit.points) == 3
        assert fit.points[0][3] == 2
        assert fit.algo == "walk"

    def test_csv_and_json_forms(self):
        fit = scaling_fit([128, 256, 512], "naive", 1, family="edgeless", seed=0)
        blob = json.loads(fit.to_json())
        assert [p["n"] for p in blob["points"]] == [128, 256, 512]
        lines = fit.to_csv().splitlines()
        assert lines[0] == "n,mean,std,trials"

    def test_full_pipeline_slope_on_triangle_free_inputs(self):
        # Triangle-free inputs never stop at the cover search, so every
        # trial charges the whole walk profile; its exponent sits near the
        # dominant 5/4 term as well.
        fit = scaling_fit([128, 256, 512], "walk", 3, family="bipartite", seed=2)
        assert 1.15 <= fit.slope <= 1.35

    def test_edges_baseline_slopes(self):
        # The n + sqrt(n m) form approaches exponent 3/2 from below on
        # quadratic-m families; the additive n term still drags the default
        # grid's measured slope a few hundredths under it.
        closed = [(n, n + n * math.sqrt(n - 1) / 2) for n in (2**14, 2**15, 2**16, 2**17, 2**18)]
        slope, _, _ = fit_loglog(closed)
        assert 1.49 <= slope <= 1.51
        measured = scaling_fit(
            [128, 256, 512, 1024], "edges", 2, family="er:0.5", seed=1
        )
        assert 1.42 <= measured.slope <= 1.50


class TestCorrectnessSuite:
    def test_small_mixed_corpus_agrees(self):
        report = correctness_suite(48, 30, seed=0, planted_cases=2, planted_n=128)
        assert report.verdict
        assert report.extras["agreement"] == report.extras["total"] == 32
        assert report.extras["false_positives"] == 0

    def test_injection_mode_reports_detection(self):
        inj = FailureInjection(walk_success=0.75, check_success=2 / 3)
        report = correctness_suite(
            32, 5, seed=1, injection=inj, planted_cases=20, planted_n=128
        )
        assert report.campaign == "detection_floor"
        assert report.extras["false_positives"] == 0
        assert report.extras["detection_rate"] >= report.pass_line

    @pytest.mark.parametrize(
        "max_n, cases, planted_cases, message",
        [
            (32, 0, 0, "at least one case"),
            (32, -3, 20, "cases must be at least 0"),
            (32, 5, -1, "planted_cases must be at least 0"),
            (5, 5, 0, "max_n must be at least 12"),
        ],
    )
    def test_bad_counts_rejected(self, max_n, cases, planted_cases, message):
        with pytest.raises(ValueError, match=message):
            correctness_suite(max_n, cases, planted_cases=planted_cases)

    def test_max_n_unread_without_small_cases(self):
        report = correctness_suite(5, 0, planted_cases=1, planted_n=64)
        assert report.extras["total"] == 1

    def test_planted_n_unread_without_planted_cases(self):
        report = correctness_suite(16, 1, planted_cases=0, planted_n=5)
        assert report.extras["total"] == 1

    def test_deterministic_reports(self):
        a = correctness_suite(32, 10, seed=5, planted_cases=2, planted_n=64)
        b = correctness_suite(32, 10, seed=5, planted_cases=2, planted_n=64)
        assert a.to_json() == b.to_json()
