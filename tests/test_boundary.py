"""Bad ids, counts and amounts at the public boundary raise ValueError.

Each case once raised a bare TypeError, IndexError or OverflowError, or
was silently accepted: a negative vertex id read the last row, a float
count ran as its integer part, a bool count as 1, a count of 2**64 ran
until killed, and a NaN charge made the ledger's total never exceed a
budget. Every call must raise within a time bound, before any campaign
work starts.

The generated table feeds every argument of every callable that
``triwalk`` exports but its result records (and of the public methods,
``sigma_pass_line`` and ``fit_loglog``) each of eleven bad values, one
argument at a time, with the others valid. ALLOWED lists the legal
outcomes that are not a ValueError.
"""

import collections
import contextlib
import importlib
import inspect
import math
import os
import pkgutil
import signal
import sys

import numpy as np
import pytest

import triwalk
from triwalk import _checks
from triwalk import (
    AlgoParams,
    CampaignReport,
    FailureInjection,
    Graph,
    QueryLedger,
    Triangle,
    WalkCharge,
    correctness_suite,
    cover_is_sparsifying,
    find_triangle,
    random_bipartite,
    sample_cover,
    scaling_fit,
    uncovered_pairs,
    variable_search_cost,
    verify_cover_sparsity,
    verify_estimator_bounds,
    verify_subset_cap,
    wilson_interval,
    write_edge_list,
    write_packed,
)
from triwalk.harness import fit_loglog, sigma_pass_line

G = random_bipartite(64, 0)


@contextlib.contextmanager
def within_5_s():
    def hung(signum, frame):
        raise AssertionError("the call ran past 5 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Vertex sets that are not a 1-D list of ids: each once failed deep in
# the product with a numpy broadcast error, or read the ids flattened.
WRONG_SHAPE_CALLS = {
    "uncovered_pairs scalar cover": lambda: uncovered_pairs(G, 5, [1, 2, 3]),
    "uncovered_pairs scalar within": lambda: uncovered_pairs(G, [5], 3),
    "cover_is_sparsifying scalar cover": lambda: cover_is_sparsifying(G, 5, 0.5),
}

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
    "sample_cover seed float": lambda: sample_cover(64, 0.5, seed=1.5),
    "cover sparsity seed float": lambda: verify_cover_sparsity(64, 0.5, 2, seed=1.5),
    "cover_is_sparsifying k 2": lambda: cover_is_sparsifying(G, [0], 2),
    "cover_is_sparsifying k nan": lambda: cover_is_sparsifying(G, [0], math.nan),
    "cover_is_sparsifying k bool": lambda: cover_is_sparsifying(G, [0], True),
    "wilson z nan": lambda: wilson_interval(1, 2, z=math.nan),
    "wilson z -1": lambda: wilson_interval(1, 2, z=-1),
    "wilson z 0": lambda: wilson_interval(1, 2, z=0),
    "wilson z bool": lambda: wilson_interval(1, 2, z=True),
    "charge nan": lambda: QueryLedger().charge("x", math.nan),
    "charge bool": lambda: QueryLedger().charge("x", True),
    "charge str": lambda: QueryLedger().charge("x", "1"),
    "add_raw float": lambda: QueryLedger().add_raw(1.5),
    "add_raw bool": lambda: QueryLedger().add_raw(True),
    # A bool inside a list of numbers, which np.asarray reads as 0 or 1.
    "uncovered_pairs bool in ids": lambda: uncovered_pairs(G, [0], [True, 2, 3]),
    "from_edges bool in a pair": lambda: Graph.from_edges(4, [(0, 1), (True, 2)]),
    "variable costs bool entry": lambda: variable_search_cost([True, 1.0]),
    "variable costs nan entry": lambda: variable_search_cost([math.nan, 1.0]),
    **WRONG_SHAPE_CALLS,
    # A division by zero trials.
    "campaign report zero trials": lambda: CampaignReport.from_counts("c", {}, 0, 0, 0.5),
    # The log of a point <= 0 is NaN or -inf.
    "fit_loglog zero y": lambda: fit_loglog([(16, 0.0), (32, 1.0)]),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_input_raises_value_error(call):
    with within_5_s(), pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call", WRONG_SHAPE_CALLS.values(), ids=WRONG_SHAPE_CALLS.keys())
def test_wrong_shape_is_named(call):
    with pytest.raises(ValueError, match=r"vertex ids must be a 1-D list of ids, got shape"):
        call()


def test_numpy_scalars_stay_legal():
    assert G.has_edge(np.int64(0), np.uint8(33)) == G.has_edge(0, 33)
    assert np.array_equal(G.neighbors(np.int32(5)), G.neighbors(5))
    ledger = QueryLedger()
    ledger.charge("x", np.float64(2.5))
    ledger.add_raw(np.int64(3))
    assert ledger.total == 2.5 and ledger.raw_probes == 3
    assert wilson_interval(np.int64(3), np.int64(4)) == wilson_interval(3, 4)
    assert wilson_interval(3, 4, z=np.float64(2.0)) == wilson_interval(3, 4, z=2)
    uint8 = uncovered_pairs(G, np.array([3], dtype=np.uint8), [0, 1, 40])
    assert np.array_equal(uint8.mask, uncovered_pairs(G, [3], [0, 1, 40]).mask)


# -- the generated table --------------------------------------------------

BAD_VALUES = {
    "str": "x",
    "bool": True,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "-1": -1,
    "1.5": 1.5,
    "None": None,
    # A rule that compares before it checks the type raises TypeError on these.
    "list": [1],
    "complex": 1j,
    # One past the largest int64: numpy raised OverflowError on it, and a
    # Python loop over it never ended.
    "2**64": 2**64,
}

COVER = sample_cover(64, 0.5, seed=0)


def _written(path, writer):
    """path, after writer wrote G there (the table runs in a temporary cwd)."""
    writer(G, path)
    return path


LEDGER = QueryLedger()  # the receiver of the QueryLedger methods' cases

# name -> (callable, factory of valid keyword arguments, one per parameter).
VALID = {
    # costs
    "WalkCharge": (WalkCharge, lambda: dict(setup=1.0, update=1.0, check=1.0, r=4, eps=0.5)),
    "grover_cost": (triwalk.grover_cost, lambda: dict(m=10, t=1.0, log_factors=False)),
    "variable_search_cost": (
        variable_search_cost, lambda: dict(costs=[1.0, 2.0], log_factors=False)
    ),
    "walk_cost": (
        triwalk.walk_cost, lambda: dict(charge=WalkCharge(1, 1, 1, 4, 0.5), log_factors=False)
    ),
    # graph
    "Graph": (Graph, lambda: dict(dense=G.bool_matrix)),
    "Graph.from_edges": (Graph.from_edges, lambda: dict(n=4, edges=[(0, 1), (2, 3)])),
    "Graph.has_edge": (G.has_edge, lambda: dict(u=0, v=33)),
    "Graph.query": (G.query, lambda: dict(ledger=QueryLedger(), u=0, v=33)),
    "Graph.neighbors": (G.neighbors, lambda: dict(u=5)),
    "Graph.bool_row": (G.bool_row, lambda: dict(u=5)),
    "QueryLedger": (QueryLedger, lambda: dict(charged={"x": 1.0}, raw_probes=0)),
    "QueryLedger.charge": (LEDGER.charge, lambda: dict(phase="walk", amount=1.0)),
    "QueryLedger.add_raw": (LEDGER.add_raw, lambda: dict(count=1)),
    "brute_force_triangle": (triwalk.brute_force_triangle, lambda: dict(g=G)),
    "erdos_renyi": (triwalk.erdos_renyi, lambda: dict(n=64, p=0.5, seed=0)),
    "is_triangle": (triwalk.is_triangle, lambda: dict(g=G, tri=Triangle(0, 1, 2))),
    "planted_instance": (triwalk.planted_instance, lambda: dict(n=64, seed=0)),
    "planted_triple": (triwalk.planted_triple, lambda: dict(n=64, seed=0)),
    "random_bipartite": (random_bipartite, lambda: dict(n=64, seed=0)),
    "read_edge_list": (
        triwalk.read_edge_list, lambda: dict(path=_written("g.txt", write_edge_list))
    ),
    "read_packed": (triwalk.read_packed, lambda: dict(path=_written("g.bin", write_packed))),
    "write_edge_list": (write_edge_list, lambda: dict(g=G, path="g.txt")),
    "write_packed": (write_packed, lambda: dict(g=G, path="g.bin")),
    # harness
    "correctness_suite": (
        correctness_suite,
        lambda: dict(
            max_n=16, cases=1, seed=0, injection=None, planted_cases=1, planted_n=16
        ),
    ),
    "scaling_fit": (
        scaling_fit,
        lambda: dict(
            n_grid=[16, 20, 24], algo="naive", trials_per_n=1, family="er:0.5",
            params=None, seed=0,
        ),
    ),
    "verify_cover_sparsity": (
        verify_cover_sparsity,
        lambda: dict(n=32, k=0.5, trials=1, family="er:0.5", seed=0),
    ),
    "verify_estimator_bounds": (
        verify_estimator_bounds,
        lambda: dict(n=32, a=0.75, k=0.5, trials=1, family="er:0.5", seed=0),
    ),
    "verify_subset_cap": (
        verify_subset_cap,
        lambda: dict(size_a=32, r=8, trials=10, config="er-half", seed=0),
    ),
    "wilson_interval": (wilson_interval, lambda: dict(successes=1, trials=2, z=5.0)),
    "sigma_pass_line": (sigma_pass_line, lambda: dict(bound=0.5, trials=10, z=5.0)),
    "fit_loglog": (fit_loglog, lambda: dict(points=[(16, 1.0), (32, 2.0)])),
    # pairs
    "cover_is_sparsifying": (
        cover_is_sparsifying, lambda: dict(g=G, cover=COVER, k=0.5)
    ),
    "sample_cover": (sample_cover, lambda: dict(n=64, k=0.5, seed=0, rng=None)),
    "subset_pair_cap": (
        triwalk.subset_pair_cap, lambda: dict(r=8, parent_size=32, parent_apex_pairs=10)
    ),
    "uncovered_pairs": (uncovered_pairs, lambda: dict(g=G, cover=COVER, within=[0, 1, 40])),
    # pipeline
    "AlgoParams": (
        AlgoParams,
        lambda: dict(
            a=0.75, k=0.5, log_factors=False, failure_injection=None, seed=0, n_min_guard=64
        ),
    ),
    "FailureInjection": (
        FailureInjection,
        lambda: dict(walk_success=0.75, check_success=0.5, search_success=1.0),
    ),
    "find_triangle": (triwalk.find_triangle, lambda: dict(g=G, params=AlgoParams())),
    "naive_triples_baseline": (
        triwalk.naive_triples_baseline, lambda: dict(g=G, log_factors=False)
    ),
    "sparse_edges_baseline": (
        triwalk.sparse_edges_baseline, lambda: dict(g=G, log_factors=False)
    ),
}

# Exported records: they hold results the library computed, not arguments.
RECORDS = {"Triangle", "RunReport", "CampaignReport", "FitResult"}

# (callable, argument, bad value) -> its legal outcome: None for a call that
# returns, else the exception it raises instead of ValueError.
ALLOWED = {
    **{
        (name, "log_factors", "bool"): None
        for name in (
            "grover_cost", "variable_search_cost", "walk_cost", "AlgoParams",
            "naive_triples_baseline", "sparse_edges_baseline",
        )
    },
    # A real cost, scale, count estimate or z of 1.5.
    **{
        (name, arg, "1.5"): None
        for name, arg in (
            ("WalkCharge", "setup"), ("WalkCharge", "update"), ("WalkCharge", "check"),
            ("grover_cost", "t"), ("variable_search_cost", "costs"),
            ("QueryLedger.charge", "amount"),
            ("subset_pair_cap", "parent_apex_pairs"), ("wilson_interval", "z"),
            ("sigma_pass_line", "z"),
        )
    },
    # None stands for the default.
    **{
        (name, arg, "None"): None
        for name, arg in (
            ("sample_cover", "rng"),
            ("correctness_suite", "injection"), ("scaling_fit", "params"),
            ("AlgoParams", "failure_injection"), ("FailureInjection", "walk_success"),
            ("FailureInjection", "check_success"), ("FailureInjection", "search_success"),
        )
    },
    # One id or one cost in a list, where an array of them is meant.
    **{
        (name, arg, "list"): None
        for name, arg in (
            ("WalkCharge", "check"), ("variable_search_cost", "costs"),
            ("cover_is_sparsifying", "cover"), ("subset_pair_cap", "parent_apex_pairs"),
            ("uncovered_pairs", "cover"), ("uncovered_pairs", "within"),
        )
    },
    # A real cost, scale or z past the largest int64.
    **{
        (name, arg, "2**64"): None
        for name, arg in (
            ("WalkCharge", "setup"), ("WalkCharge", "update"), ("grover_cost", "t"),
            ("QueryLedger.charge", "amount"), ("wilson_interval", "z"), ("sigma_pass_line", "z"),
        )
    },
    # An integer of a pure formula past the largest int64: it never reaches numpy.
    **{
        (name, arg, "2**64"): None
        for name, arg in (
            ("WalkCharge", "r"), ("grover_cost", "m"), ("QueryLedger", "raw_probes"),
            ("QueryLedger.add_raw", "count"), ("wilson_interval", "trials"),
            ("sigma_pass_line", "trials"), ("subset_pair_cap", "parent_size"),
        )
    },
    # A seed of any size: numpy's SeedSequence takes big ints.
    **{
        (name, "seed", "2**64"): None
        for name, (func, _) in VALID.items()
        if "seed" in inspect.signature(func).parameters
    },
    ("QueryLedger.charge", "phase", "str"): None,  # any name labels a phase
    ("write_edge_list", "path", "str"): None,
    ("write_packed", "path", "str"): None,
    ("read_edge_list", "path", "str"): FileNotFoundError,
    ("read_packed", "path", "str"): FileNotFoundError,
}

CASES = [
    (name, arg, bad)
    for name, (func, _) in VALID.items()
    for arg in inspect.signature(func).parameters
    for bad in BAD_VALUES
]


# The table's rows beside the exports: the public methods and two harness helpers.
BESIDE_EXPORTS = {
    "Graph.from_edges", "Graph.has_edge", "Graph.query", "Graph.neighbors", "Graph.bool_row",
    "QueryLedger.charge", "QueryLedger.add_raw", "sigma_pass_line", "fit_loglog",
}


def test_table_covers_every_export(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exported = {name for name, obj in vars(triwalk).items() if callable(obj)}
    assert VALID.keys() == (exported - RECORDS) | BESIDE_EXPORTS
    for name, (func, valid) in VALID.items():
        assert valid().keys() == inspect.signature(func).parameters.keys(), name
    assert ALLOWED.keys() <= set(CASES)


@pytest.mark.parametrize("name", VALID)
def test_valid_arguments_are_accepted(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    func, valid = VALID[name]
    with within_5_s():
        func(**valid())


@pytest.mark.parametrize("name, arg, bad", CASES, ids=["-".join(case) for case in CASES])
def test_every_argument_rejects_bad_values(name, arg, bad, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    func, valid = VALID[name]
    kwargs = {**valid(), arg: BAD_VALUES[bad]}
    outcome = ALLOWED.get((name, arg, bad), ValueError)
    with within_5_s():
        if outcome is None:
            func(**kwargs)
        else:
            with pytest.raises(outcome):
                func(**kwargs)


# -- checked once ----------------------------------------------------------

# The finder's interior: find_triangle and the campaigns check their
# arguments, then build and call these, which check nothing.
INTERNAL = {
    "SamplePlan.__init__", "estimate_all_apexes", "PairSet.__init__", "uncovered_pairs_at",
    "find_apex_witness", "search_blocks", "search_cover_triangles",
}
# The graph.py functions a finder run may check in: the ledger's, on the
# charges it is handed. The scans there take ids the finder checked.
GRAPH_CHECKS = {"QueryLedger.__post_init__", "QueryLedger.charge", "QueryLedger.add_raw"}


def test_no_rule_runs_inside_the_finders_stages(monkeypatch):
    callers = collections.Counter()  # (file name, qualname) of each rule's caller

    def recording(rule):
        def call(*args, **kwargs):
            code = sys._getframe(1).f_code
            callers[os.path.basename(code.co_filename), code.co_qualname] += 1
            return rule(*args, **kwargs)

        return call

    rules = {name: rule for name, rule in vars(_checks).items() if name.startswith("_check")}
    for info in pkgutil.iter_modules(triwalk.__path__):
        module = importlib.import_module(f"triwalk.{info.name}")
        for name, rule in rules.items():
            if getattr(module, name, None) is rule:
                monkeypatch.setattr(module, name, recording(rule))
    find_triangle(G, AlgoParams())
    assert {name for file, name in callers if file == "graph.py"} <= GRAPH_CHECKS
    verify_estimator_bounds(32, 0.75, 0.5, 1)
    names = {name for _, name in callers}
    assert {"find_triangle", "verify_estimator_bounds"} <= names
    assert not INTERNAL & names
