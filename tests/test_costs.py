"""Cost algebra identities and the emulated search combinators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwalk import (
    CostConfig,
    QueryLedger,
    WalkCharge,
    charged_grover,
    charged_walk_decide,
    grover_cost,
    variable_search_cost,
    walk_cost,
)

LOG_ON = CostConfig(log_factors=True)


class TestGroverCost:
    def test_single_item_is_t(self):
        assert grover_cost(1, 5.0) == 5.0

    def test_square_domain(self):
        assert grover_cost(100, 2.0) == pytest.approx(20.0)

    def test_zero_eval_cost(self):
        for m in (1, 7, 1000):
            assert grover_cost(m, 0.0) == 0.0

    def test_linear_in_t(self):
        base = grover_cost(37, 1.3)
        assert grover_cost(37, 2.6) == pytest.approx(2 * base)

    def test_log_multiplier(self):
        # ceil(ln 100) = 5
        assert grover_cost(100, 2.0, LOG_ON) == pytest.approx(100.0)
        # ln 1 = 0 floors to 1
        assert grover_cost(1, 3.0, LOG_ON) == 3.0

    def test_leading_constant(self):
        cfg = CostConfig(leading_constant=2.5)
        assert grover_cost(16, 1.0, cfg) == pytest.approx(10.0)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_leading_constant_must_be_positive_and_finite(self, value):
        with pytest.raises(ValueError):
            CostConfig(leading_constant=value)

    def test_contract(self):
        with pytest.raises(ValueError):
            grover_cost(0, 1.0)
        with pytest.raises(ValueError):
            grover_cost(4, -1.0)


class TestVariableSearchCost:
    def test_single(self):
        assert variable_search_cost([7.0]) == 7.0

    def test_pythagorean(self):
        assert variable_search_cost([3.0, 4.0]) == pytest.approx(5.0)

    def test_equal_entries_match_plain_search(self):
        for cfg in (CostConfig(), LOG_ON):
            for m, t in ((1, 2.0), (9, 0.5), (64, 3.0)):
                assert variable_search_cost([t] * m, cfg) == pytest.approx(
                    grover_cost(m, t, cfg)
                )

    def test_contract(self):
        with pytest.raises(ValueError):
            variable_search_cost([])
        with pytest.raises(ValueError):
            variable_search_cost([1.0, -2.0])


class TestWalkCost:
    def test_setup_only(self):
        assert walk_cost(WalkCharge(7.0, 0.0, 0.0, r=1, eps=1.0)) == 7.0

    def test_worked_example(self):
        charge = WalkCharge(10.0, 2.0, 5.0, r=9, eps=0.25)
        assert walk_cost(charge) == pytest.approx(32.0)

    def test_monotone_in_eps(self):
        eps_grid = np.linspace(0.01, 1.0, 100)
        costs = [walk_cost(WalkCharge(3.0, 2.0, 7.0, r=16, eps=float(e))) for e in eps_grid]
        assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_monotone_in_components(self):
        base = WalkCharge(3.0, 2.0, 7.0, r=16, eps=0.1)
        ref = walk_cost(base)
        assert walk_cost(WalkCharge(4.0, 2.0, 7.0, r=16, eps=0.1)) >= ref
        assert walk_cost(WalkCharge(3.0, 2.5, 7.0, r=16, eps=0.1)) >= ref
        assert walk_cost(WalkCharge(3.0, 2.0, 8.0, r=16, eps=0.1)) >= ref
        assert walk_cost(WalkCharge(3.0, 2.0, 7.0, r=25, eps=0.1)) >= ref

    def test_contract(self):
        with pytest.raises(ValueError):
            WalkCharge(1.0, 1.0, 1.0, r=0, eps=0.5)
        with pytest.raises(ValueError):
            WalkCharge(1.0, 1.0, 1.0, r=4, eps=0.0)
        with pytest.raises(ValueError):
            WalkCharge(1.0, 1.0, 1.0, r=4, eps=1.5)
        with pytest.raises(ValueError):
            WalkCharge(-1.0, 1.0, 1.0, r=4, eps=0.5)


class TestChargedGrover:
    def test_finds_unique_item(self):
        ledger = QueryLedger()
        item = charged_grover(range(100), lambda x: x == 37, 1.0, ledger, "p")
        assert item == 37
        assert ledger.charged["p"] == grover_cost(100, 1.0)

    def test_single_failing_item_charges_t(self):
        ledger = QueryLedger()
        assert charged_grover([4], lambda x: False, 2.5, ledger, "p") is None
        assert ledger.charged["p"] == 2.5

    def test_all_satisfying_returns_first(self):
        ledger = QueryLedger()
        assert charged_grover(range(10, 20), lambda x: True, 1.0, ledger, "p") == 10

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            charged_grover([], lambda x: True, 1.0, QueryLedger(), "p")

    @settings(max_examples=50)
    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=30, unique=True),
        st.sets(st.integers(0, 50)),
    )
    def test_emulation_exact(self, domain, good):
        ledger = QueryLedger()
        domain = sorted(domain)
        found = charged_grover(domain, lambda x: x in good, 1.0, ledger, "p")
        matches = [x for x in domain if x in good]
        assert found == (matches[0] if matches else None)


class TestChargedWalkDecide:
    def test_no_marked_state(self):
        ledger = QueryLedger()
        charge = WalkCharge(5.0, 1.0, 2.0, r=4, eps=0.5)
        assert charged_walk_decide(charge, False, None, ledger, "w") is None
        assert ledger.charged["w"] == walk_cost(charge)

    def test_witness_passes_through(self):
        ledger = QueryLedger()
        charge = WalkCharge(5.0, 1.0, 2.0, r=4, eps=0.5)
        assert charged_walk_decide(charge, True, ("x",), ledger, "w") == ("x",)

    def test_missing_witness_rejected(self):
        with pytest.raises(ValueError):
            charged_walk_decide(
                WalkCharge(1.0, 1.0, 1.0, r=4, eps=0.5), True, None, QueryLedger(), "w"
            )

    def test_ledger_matches_formula_bit_for_bit(self):
        charge = WalkCharge(3.7, 1.2, 9.4, r=11, eps=0.37)
        ledger = QueryLedger()
        charged_walk_decide(charge, False, None, ledger, "w")
        assert ledger.charged["w"] == walk_cost(charge)

    def test_injection_suppression_rate(self):
        # Suppression probability 1/4 over 10^4 trials: 2500 +/- 5 sigma.
        charge = WalkCharge(1.0, 1.0, 1.0, r=4, eps=0.5)
        rng = np.random.default_rng(123)
        suppressed = 0
        trials = 10_000
        for _ in range(trials):
            out = charged_walk_decide(
                charge, True, "tri", QueryLedger(), "w", failure_prob=0.25, rng=rng
            )
            suppressed += out is None
        sigma = math.sqrt(trials * 0.25 * 0.75)
        assert abs(suppressed - 2500) <= 5 * sigma

    def test_injection_never_fabricates(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            out = charged_walk_decide(
                WalkCharge(1.0, 1.0, 1.0, r=4, eps=0.5),
                False,
                None,
                QueryLedger(),
                "w",
                failure_prob=0.9,
                rng=rng,
            )
            assert out is None
