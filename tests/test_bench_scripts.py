"""The scripts under bench/ run end to end at a tiny size.

They wrap library functions by attribute name inside real trials, so a
renamed or no longer called function breaks them. Running each once at
n=64 here catches that in the test suite, not only in a later bench run.
"""

import importlib
import json
import statistics
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def run_tiny(script, monkeypatch, capsys, *argv, **sizes):
    monkeypatch.syspath_prepend(str(BENCH))
    module = importlib.import_module(script)
    for name, value in {"SIZES": (64,), **sizes}.items():
        monkeypatch.setattr(module, name, value)
    monkeypatch.setattr(module, "SEEDS", range(1))
    monkeypatch.setattr(module, "REPEATS", 1)
    module.main(*argv)
    return json.loads(capsys.readouterr().out)


def test_estimator_bench_times_one_call_per_trial(monkeypatch, capsys):
    (row,) = run_tiny("estimator", monkeypatch, capsys)
    assert row["n"] == 64
    assert row["estimator_calls"] == 1


def test_estimator_bench_closed_times_the_harness_calls(monkeypatch, capsys):
    rows = run_tiny(
        "estimator", monkeypatch, capsys, ["--closed"], CLOSED=(("er:0.1", 64),)
    )
    assert [(row["family"], row["n"], row["estimator_calls"]) for row in rows] == [
        ("er:0.1", 64, 1)
    ]


def test_scans_bench_times_every_scan(monkeypatch, capsys):
    rows = run_tiny("scans", monkeypatch, capsys)
    assert {row["family"]: (row["n"], row["calls"]) for row in rows} == {
        "bipartite": (64, {"cover": 1, "surviving": 1, "brute": 1}),
        "er": (64, {"cover": 1, "surviving": 0, "brute": 1}),
        "isolated": (64, {"cover": 1, "surviving": 1, "brute": 1}),
    }


@pytest.fixture
def graph_rows(monkeypatch, capsys):
    return run_tiny("graph", monkeypatch, capsys, USER_SIZES=(64,))


def test_graph_bench_times_every_generator(graph_rows):
    rows = [row for row in graph_rows if "generator" in row]
    assert [(row["generator"], row["n"]) for row in rows] == [
        ("rng", 64), ("er", 64), ("bipartite", 64), ("planted", 64)
    ]
    assert rows[0]["digest"] is None
    assert all(len(row["digest"]) == 16 for row in rows[1:])


def test_graph_bench_times_every_user_input_constructor(graph_rows):
    rows = [row for row in graph_rows if "constructor" in row]
    assert [(row["constructor"], row["n"]) for row in rows] == [
        ("Graph(dense)", 64), ("from_edges", 64), ("read_edge_list", 64), ("read_packed", 64)
    ]
    # Each constructor loads random_bipartite's own graph.
    (bipartite,) = [row for row in graph_rows if row.get("generator") == "bipartite"]
    assert {row["digest"] for row in rows} == {bipartite["digest"]}


def test_graph_bench_large_run_reads_back_in_a_capped_child(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    bench = importlib.import_module("graph")
    row = bench.large_run(64)
    assert row["graph"] == "random_bipartite(64, 0)"
    assert row["outcome"] is None  # bipartite graphs are triangle-free
    assert row["edges"] > 0 and row["peak_rss_mib"] > 0
    # One fresh child a repeat, each with its own timings.
    assert len(row["repeats"]) == bench.REPEATS
    assert row["find_triangle_ms"] == statistics.median(
        repeat["find_triangle_ms"] for repeat in row["repeats"]
    )


def test_pairs_bench_times_blocks_and_the_sparsity_check(monkeypatch, capsys):
    out = run_tiny("pairs", monkeypatch, capsys, SPARSITY_N=64)
    assert [(row["family"], row["n"]) for row in out["blocks"]] == [
        ("bipartite", 64), ("er:0.5", 64)
    ]
    assert all(len(row["digest"]) == 16 and row["block"] > 1 for row in out["blocks"])
    sparsity = out["sparsity"]
    assert sparsity["graph"] == "erdos_renyi(64, 0.5, 0)"
    assert isinstance(sparsity["sparsifying"], bool) and sparsity["peak_rss_mib"] > 0
    assert out["blas"]["cpus"] >= 1


def test_campaigns_bench_times_each_call_in_its_own_child(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    bench = importlib.import_module("campaigns")
    monkeypatch.setattr(bench, "PROFILE", "tiny")
    monkeypatch.setattr(bench, "CAP_TRIALS", (200,))
    monkeypatch.setattr(bench, "REPEATS", 1)
    bench.main()
    rows = json.loads(capsys.readouterr().out)
    assert [(row["call"], row.get("trials")) for row in rows] == [
        ("verify_cover_sparsity", None), ("verify_estimator_bounds", None),
        ("verify_subset_cap", None), ("correctness_suite", None), ("scaling_fit", None),
        ("verify_subset_cap", 200),
    ]
    for row in rows:
        assert len(row["digests"]) == 1 and len(row["digests"][0]) == 16
        assert row["peak_rss_mib"] >= row["peak_rss_mib_before"] > 0
