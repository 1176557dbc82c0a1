"""Bad ids, counts and amounts at the public boundary raise ValueError.

Each case once raised a bare TypeError, IndexError or OverflowError, or
was silently accepted: a negative vertex id read the last row, a float
count ran as its integer part, a bool count as 1, and a NaN charge made
the ledger's total never exceed a budget. Every call must raise within a
time bound, before any campaign work starts.
"""

import math
import signal

import numpy as np
import pytest

from triwalk import (
    QueryLedger,
    correctness_suite,
    random_bipartite,
    sample_cover,
    scaling_fit,
    verify_cover_sparsity,
    verify_estimator_bounds,
    verify_subset_cap,
    wilson_interval,
)

G = random_bipartite(64, 0)

BAD_CALLS = {
    # Graph vertex ids.
    "has_edge float id": lambda: G.has_edge(0, 1.5),
    "has_edge bool id": lambda: G.has_edge(True, 0),
    "has_edge str id": lambda: G.has_edge("0", 1),
    "query float id": lambda: G.query(QueryLedger(), 0, 1.5),
    "neighbors -1": lambda: G.neighbors(-1),
    "neighbors n": lambda: G.neighbors(64),
    "bool_row n": lambda: G.bool_row(64),
    "bool_row float id": lambda: G.bool_row(2.0),
    # Campaign counts.
    "cover sparsity trials inf": lambda: verify_cover_sparsity(64, 0.5, math.inf),
    "cover sparsity trials bool": lambda: verify_cover_sparsity(64, 0.5, True),
    "estimator trials float": lambda: verify_estimator_bounds(64, 0.75, 0.5, 1.5),
    "estimator trials bool": lambda: verify_estimator_bounds(64, 0.75, 0.5, True),
    "correctness cases float": lambda: correctness_suite(64, 1.5, planted_cases=0),
    "correctness cases bool": lambda: correctness_suite(64, True, planted_cases=0),
    "correctness planted_cases bool": lambda: correctness_suite(64, 0, planted_cases=True),
    "correctness max_n inf": lambda: correctness_suite(math.inf, 2, planted_cases=0),
    "correctness planted_n float": lambda: correctness_suite(64, 0, planted_cases=1, planted_n=64.5),
    "scaling trials_per_n float": lambda: scaling_fit([64, 80, 96], "walk", 1.5),
    "scaling trials_per_n bool": lambda: scaling_fit([64, 80, 96], "walk", True),
    "subset cap r float": lambda: verify_subset_cap(128, 16.5, 10),
    "subset cap size_a float": lambda: verify_subset_cap(128.0, 16, 10),
    # Silent accepts.
    "wilson trials float": lambda: wilson_interval(1, 1.5),
    "wilson trials inf": lambda: wilson_interval(1, math.inf),
    "wilson successes bool": lambda: wilson_interval(True, 1),
    "wilson successes float": lambda: wilson_interval(0.5, 2),
    "sample_cover k -1": lambda: sample_cover(64, -1, seed=0),
    "sample_cover k 1.5": lambda: sample_cover(64, 1.5, seed=0),
    "sample_cover k bool": lambda: sample_cover(64, True, seed=0),
    "sample_cover n float": lambda: sample_cover(64.5, 0.5, seed=0),
    "charge nan": lambda: QueryLedger().charge("x", math.nan),
    "charge bool": lambda: QueryLedger().charge("x", True),
    "charge str": lambda: QueryLedger().charge("x", "1"),
    "add_raw float": lambda: QueryLedger().add_raw(1.5),
    "add_raw bool": lambda: QueryLedger().add_raw(True),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_input_raises_value_error(call):
    def hung(signum, frame):
        raise AssertionError("the call ran past 5 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        with pytest.raises(ValueError):
            call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_numpy_scalars_stay_legal():
    assert G.has_edge(np.int64(0), np.uint8(33)) == G.has_edge(0, 33)
    assert np.array_equal(G.neighbors(np.int32(5)), G.neighbors(5))
    ledger = QueryLedger()
    ledger.charge("x", np.float64(2.5))
    ledger.add_raw(np.int64(3))
    assert ledger.total == 2.5 and ledger.raw_probes == 3
    assert wilson_interval(np.int64(3), np.int64(4)) == wilson_interval(3, 4)
