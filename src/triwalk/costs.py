"""Charged quantum cost algebra.

The emulator computes exact classical answers while charging a ledger the
query budget the corresponding quantum routine is granted. These are the
three formulas it charges through:

* plain search over m items, t oracle queries per evaluation:  t * sqrt(m)
* search with heterogeneous per-item costs t_s:                sqrt(sum t_s^2)
* walk over the r-subsets of a ground set, with setup / update / checking
  costs S, U, C and marked-fraction lower bound eps:
      S + (1 / sqrt(eps)) * (sqrt(r) * U + C)

Each formula takes a ``log_factors`` switch. Off (the default), the
formulas are the bare power laws, so fitted exponents read them directly;
on, each is multiplied by its ceil(ln ...) repetition factor, for
sensitivity studies. Charged values are real-valued throughout: square
roots are never rounded, which keeps scaling fits free of staircase
artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import _check_bool, _check_int, _check_real, _check_type, _checked_reals

__all__ = [
    "WalkCharge",
    "log_multiplier",
    "grover_cost",
    "variable_search_cost",
    "walk_cost",
    "walk_cost_terms",
]


@dataclass(frozen=True)
class WalkCharge:
    """Inputs to the subset-walk cost formula.

    setup/update/check are per-operation query costs; r is the walked
    subset size; eps is an a priori lower bound on the marked fraction
    whenever any marked state exists. check may be an array of checking
    costs, one per walk, which makes the check term and walk_cost
    elementwise.
    """

    setup: float
    update: float
    check: float | np.ndarray
    r: int
    eps: float

    def __post_init__(self):
        _check_real("walk setup cost", self.setup, "[0, inf)")
        _check_real("walk update cost", self.update, "[0, inf)")
        _checked_reals("walk check costs", self.check)
        _check_int("subset size r", self.r, 1)
        _check_real("eps", self.eps, "(0, 1]")


def log_multiplier(base: float, log_factors: bool) -> float:
    """ceil(ln base), floored at 1, when log factors are on; else 1."""
    _check_bool("log_factors", log_factors)
    if not log_factors:
        return 1.0
    return float(max(1, math.ceil(math.log(base))))


def grover_cost(m: int, t: float, log_factors: bool = False) -> float:
    """Charged cost of searching m items at t queries per evaluation."""
    _check_int("domain size m", m, 1)
    _check_real("per-evaluation cost t", t, "[0, inf)")
    return t * math.sqrt(m) * log_multiplier(m, log_factors)


def variable_search_cost(costs, log_factors: bool = False) -> float:
    """Charged cost of search with per-item costs: sqrt of the sum of squares."""
    arr = _checked_reals("per-item costs", costs)
    if arr.size == 0:
        raise ValueError("variable-cost search needs a nonempty cost list")
    return math.sqrt(float(np.sum(arr * arr))) * log_multiplier(arr.size, log_factors)


def walk_cost_terms(
    charge: WalkCharge, log_factors: bool = False
) -> tuple[float, float, float | np.ndarray]:
    """Setup / update / check contributions whose sum is walk_cost.

    Exposed separately so pipelines can attribute each term to its own
    ledger phase while summing bit-identically to the total.
    """
    _check_type("charge", charge, WalkCharge)
    scale = log_multiplier(charge.r, log_factors)
    amplify = 1.0 / math.sqrt(charge.eps)
    return (
        scale * charge.setup,
        scale * amplify * math.sqrt(charge.r) * charge.update,
        scale * amplify * charge.check,
    )


def walk_cost(charge: WalkCharge, log_factors: bool = False) -> float | np.ndarray:
    """Charged cost of a subset walk: S + (1/sqrt(eps)) (sqrt(r) U + C)."""
    t_setup, t_update, t_check = walk_cost_terms(charge, log_factors)
    return t_setup + t_update + t_check
