"""bench/run.py runs every row end to end at a tiny size.

Its rows wrap library functions by attribute name inside real calls, so a
renamed or no longer called function breaks them. Running each group once
at n=64 here catches that in the test suite, not only in a later bench run.
"""

import contextlib
import importlib
import io
import json
import random
from multiprocessing.context import SpawnProcess
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as patch:
        # bench.run runs as ``python -m bench.run`` from the root; spawned
        # children inherit this sys.path.
        patch.syspath_prepend(str(ROOT))
        run = importlib.import_module("bench.run")
        for name in (
            "ESTIMATOR_SIZES", "SCAN_SIZES", "C5_SIZES", "BLOCK_SIZES", "GRAPH_SIZES", "USER_SIZES"
        ):
            patch.setattr(run, name, (64,))
        patch.setattr(run, "CLOSED", (("er:0.1", 64),))
        patch.setattr(run, "SPARSITY_N", 64)
        patch.setattr(run, "SEEDS", dict.fromkeys(run.SEEDS, 1))
        # Two repeats, so every row's repeats are compared.
        patch.setattr(run, "REPEATS", 2)
        patch.setattr(run, "PROFILE", "tiny")
        patch.setattr(run, "CAP_CALLS", ((16, 200, "er-half"), (40, 200, "er-dense")))
        yield run


@pytest.fixture(scope="module")
def runs(bench):
    """One tiny run per argv, shared by the module's tests."""
    cache = {}

    def run_tiny(*argv):
        if argv not in cache:
            out, spawned = io.StringIO(), []
            start = SpawnProcess.start

            def counted(proc):
                spawned.append(proc)
                start(proc)

            with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
                patch.setattr(SpawnProcess, "start", counted)
                assert bench.main(list(argv)) == 0
            cache[argv] = {**json.loads(out.getvalue()), "spawned": len(spawned)}
            # Every row holds the schema's keys.
            assert all(tuple(row) == bench.ROW_KEYS for row in cache[argv]["rows"])
        return cache[argv]

    return run_tiny


def test_estimator_rows_time_one_estimator_call_per_trial(runs):
    row = runs("estimator")["rows"][0]
    assert (row["name"], row["n"]) == ("bipartite", 64)
    assert row["parts"]["pipeline.estimate_all_apexes"]["calls"] == 1


def test_estimator_closed_rows_time_the_harness_calls(runs):
    rows = runs("estimator")["rows"][1:]
    assert [
        (row["name"], row["n"], row["parts"]["harness.estimate_all_apexes"]["calls"])
        for row in rows
    ] == [("closed er:0.1", 64, 1)]


def test_scan_rows_time_every_scan(bench, runs):
    rows = runs("scans")["rows"]
    calls = [
        (row["name"], row["n"], [part["calls"] for part in row["parts"].values()]) for row in rows
    ]
    # find_triangle, then the cover, surviving-edge and brute-force scans.
    # c5 runs once more at C5_SIZES.
    assert calls == [
        ("bipartite", 64, [1, 1, 1, 1]),
        ("er:0.5", 64, [1, 1, 0, 1]),
        ("isolated", 64, [1, 1, 1, 1]),
        ("c5", 64, [1, 1, 1, 1]),
        ("c5", 64, [1, 1, 1, 1]),
    ]
    assert list(rows[0]["parts"]) == list(bench.SCAN_PARTS)


@pytest.fixture
def graph_rows(runs):
    return runs("graph")["rows"]


def test_graph_rows_time_every_generator(bench, graph_rows):
    rows = [row for row in graph_rows if row["name"] in bench.GENERATORS]
    assert [(row["name"], row["n"]) for row in rows] == [
        ("rng", 64), ("er:0.5", 64), ("bipartite", 64), ("planted", 64)
    ]
    assert all(row["traced_mib"] > 0 and len(row["digest"]) == 16 for row in rows)


def test_graph_rows_time_every_user_input_constructor(bench, graph_rows):
    rows = [row for row in graph_rows if row["name"] in bench.USER_INPUTS]
    assert [(row["name"], row["n"]) for row in rows] == [
        ("Graph(dense)", 64), ("from_edges", 64), ("read_edge_list", 64), ("read_packed", 64)
    ]
    # Each constructor loads random_bipartite's own graph.
    (bipartite,) = [row for row in graph_rows if row["name"] == "bipartite"]
    assert {row["digest"] for row in rows} == {bipartite["digest"]}


def test_graph_large_run_reads_back_in_capped_children(bench, runs):
    out = runs("--large", "64")
    write, *rows = out["rows"]
    assert (write["name"], write["n"], write["peak_rss_mib"]) == ("write_packed", 64, None)
    # One fresh capped child a repeat, one row each.
    assert len(rows) == out["spawned"] == bench.REPEATS
    for row in rows:
        assert (row["name"], row["n"], row["rlimit_as_gib"]) == ("large", 64, bench.LIMIT_GIB)
        assert [part["calls"] for part in row["parts"].values()] == [1, 1]
        assert row["info"]["outcome"] is None  # bipartite graphs are triangle-free
        assert row["info"]["edges"] > 0 and row["peak_rss_mib"][1] > 0
    assert len({row["digest"] for row in rows}) == 1


def test_pair_rows_time_blocks_and_the_sparsity_check(bench, runs):
    out = runs("pairs")
    assert out["spawned"] == 1
    *blocks, sparsity = out["rows"]
    assert [(row["name"], row["n"]) for row in blocks] == [
        ("block bipartite", 64), ("block c5", 64), ("block er:0.5", 64)
    ]
    assert all(row["info"]["block"] > 1 and row["peak_rss_mib"] is None for row in blocks)
    assert (sparsity["name"], sparsity["n"]) == ("sparsity er:0.5", 64)
    assert isinstance(sparsity["info"]["sparsifying"], bool)
    assert sparsity["rlimit_as_gib"] == bench.LIMIT_GIB
    assert sparsity["peak_rss_mib"][1] >= sparsity["peak_rss_mib"][0] > 0


def test_campaign_rows_run_each_call_in_its_own_child(runs):
    out = runs("campaigns")
    rows = out["rows"]
    assert out["spawned"] == len(rows)
    assert [row["name"] for row in rows] == [
        "verify_cover_sparsity", "verify_estimator_bounds", "verify_subset_cap",
        "correctness_suite", "scaling_fit", "verify_subset_cap(128, 16, 200, er-half)",
        "verify_subset_cap(128, 40, 200, er-dense)",
    ]
    for row in rows:
        assert len(row["digest"]) == 16
        assert row["peak_rss_mib"][1] >= row["peak_rss_mib"][0] > 0


def test_every_row_carries_the_schema_keys(bench, runs):
    out = runs("scans")
    assert out["spawned"] == 0
    machine = out["machine"]
    assert machine["cpus"] >= 1 and machine["reference_ms"] > 0
    assert {"python", "numpy", "blas"} <= machine.keys()
    assert {"name", "version", "threads"} <= machine["blas"].keys()
    for row in out["rows"]:
        assert list(row) == list(bench.ROW_KEYS)
        assert row["group"] == "scans" and row["rlimit_as_gib"] is None
        assert row["ms"] > 0 and row["scaled_ms"] > 0 and row["reference_ms"] > 0
        assert all(part.keys() == {"calls", "ms", "scaled_ms"} for part in row["parts"].values())
        int(row["digest"], 16)


@pytest.mark.parametrize("n", [64, 200])
def test_c5_blowup_is_triangle_free_and_not_bipartite(bench, n):
    g = bench.c5_blowup(n, 0)
    adj = g.bool_matrix.astype(int)
    assert not ((adj @ adj) * adj).any()  # no triangle
    # Odd cycles: some vertex has a closed walk of length 5.
    assert np.trace(np.linalg.matrix_power(adj, 5)) > 0


def _coin(seed):
    return random.random


def test_repeats_that_disagree_name_the_row_and_exit_1(bench, monkeypatch, capsys):
    coin = bench._row("estimator", "coin", None, _coin)
    monkeypatch.setitem(bench.GROUPS, "estimator", lambda tmp: [coin])
    assert bench.main(["estimator"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "estimator coin: seed 0: repeats disagree" in out.err
