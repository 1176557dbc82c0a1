"""The scripts under bench/ run end to end at a tiny size.

They wrap library functions by attribute name inside real trials, so a
renamed or no longer called function breaks them. Running each once at
n=64 here catches that in the test suite, not only in a later bench run.
"""

import importlib
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def run_tiny(script, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    module = importlib.import_module(script)
    monkeypatch.setattr(module, "SIZES", (64,))
    monkeypatch.setattr(module, "SEEDS", range(1))
    monkeypatch.setattr(module, "REPEATS", 1)
    module.main()
    return json.loads(capsys.readouterr().out)


def test_estimator_bench_times_one_call_per_trial(monkeypatch, capsys):
    (row,) = run_tiny("estimator", monkeypatch, capsys)
    assert row["n"] == 64
    assert row["estimator_calls"] == 1


def test_scans_bench_times_every_scan(monkeypatch, capsys):
    rows = run_tiny("scans", monkeypatch, capsys)
    assert {row["family"]: (row["n"], row["calls"]) for row in rows} == {
        "bipartite": (64, {"cover": 1, "surviving": 1, "brute": 1}),
        "er": (64, {"cover": 1, "surviving": 0, "brute": 1}),
        "isolated": (64, {"cover": 1, "surviving": 1, "brute": 1}),
    }


def test_graph_bench_times_every_generator(monkeypatch, capsys):
    rows = run_tiny("graph", monkeypatch, capsys)
    assert [(row["generator"], row["n"]) for row in rows] == [
        ("rng", 64), ("er", 64), ("bipartite", 64), ("planted", 64)
    ]
    assert rows[0]["digest"] is None
    assert all(len(row["digest"]) == 16 for row in rows[1:])
