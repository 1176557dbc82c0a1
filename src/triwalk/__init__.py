"""Charged-cost emulation of walk-based triangle finding.

The package classically emulates a quantum triangle-finding strategy built
from plain search, variable-cost search and Johnson-style subset walks: it
computes exact answers while charging a per-phase ledger the query budget
the quantum routines are granted, verifies the underlying sampling and
concentration guarantees by Monte Carlo, and fits charged-cost scaling
exponents against baselines.
"""

from .costs import (
    WalkCharge,
    grover_cost,
    variable_search_cost,
    walk_cost,
)
from .graph import (
    Graph,
    QueryLedger,
    Triangle,
    brute_force_triangle,
    erdos_renyi,
    is_triangle,
    planted_instance,
    planted_triple,
    random_bipartite,
    read_edge_list,
    read_packed,
    write_edge_list,
    write_packed,
)
from .harness import (
    CampaignReport,
    FitResult,
    correctness_suite,
    scaling_fit,
    verify_cover_sparsity,
    verify_estimator_bounds,
    verify_subset_cap,
    wilson_interval,
)
from .pairs import (
    cover_is_sparsifying,
    sample_cover,
    subset_pair_cap,
    uncovered_pairs,
)
from .pipeline import (
    AlgoParams,
    FailureInjection,
    RunReport,
    find_triangle,
    naive_triples_baseline,
    sparse_edges_baseline,
)

__version__ = "0.1.0"
