"""Cost algebra identities."""

import numpy as np
import pytest

from triwalk import (
    WalkCharge,
    grover_cost,
    variable_search_cost,
    walk_cost,
)


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
        assert grover_cost(100, 2.0, log_factors=True) == pytest.approx(100.0)
        # ln 1 = 0 floors to 1
        assert grover_cost(1, 3.0, log_factors=True) == 3.0

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
        for log_factors in (False, True):
            for m, t in ((1, 2.0), (9, 0.5), (64, 3.0)):
                assert variable_search_cost([t] * m, log_factors) == pytest.approx(
                    grover_cost(m, t, log_factors)
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

    @pytest.mark.parametrize("log_factors", [False, True])
    def test_array_check_is_elementwise_scalar_cost(self, log_factors):
        checks = np.sqrt(np.array([0.0, 1.0, 2.5, 17.0, 1e6]))
        vec = walk_cost(WalkCharge(11, 2.0, checks, r=11, eps=0.37), log_factors)
        scalar = [
            walk_cost(WalkCharge(11, 2.0, float(c), r=11, eps=0.37), log_factors)
            for c in checks
        ]
        assert vec.shape == checks.shape
        assert all(v == s for v, s in zip(vec, scalar))

    def test_array_check_with_a_negative_entry_rejected(self):
        with pytest.raises(ValueError, match=r"walk check costs must be real numbers in \[0, inf\)"):
            WalkCharge(1.0, 1.0, np.array([1.0, -0.5, 2.0]), r=4, eps=0.5)
