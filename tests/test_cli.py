"""Command-line surface: subcommands, exit codes, report files."""

import json

import pytest

import triwalk.cli
import triwalk.harness
from triwalk import AlgoParams, find_triangle, random_bipartite
from triwalk.cli import DEFAULT_INJECTION, main
from triwalk.graph import read_edge_list, read_packed
from triwalk.harness import verify_cover_sparsity, verify_estimator_bounds, verify_subset_cap


def test_run_writes_deterministic_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    args = ["run", "--n", "64", "--family", "planted", "--seed", "3", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    blob = json.loads(first)
    assert blob["n"] == 64
    assert blob["wall_ms"] is None
    assert blob["outcome"]["found"] is True
    assert main(args) == 0
    assert out.read_bytes() == first


def test_run_prints_to_stdout(capsys):
    assert main(["run", "--n", "64", "--seed", "1"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert set(blob["charges"]) == {
        "cover_search",
        "outer_setup",
        "outer_update",
        "outer_check_estimator",
        "inner_walk",
        "extraction",
        "final_search",
    }


def test_run_on_off_flags_give_the_library_report(tmp_path):
    out = tmp_path / "report.json"
    args = ["run", "--n", "64", "--family", "bipartite", "--seed", "2", "--out", str(out)]

    def library(**fields):
        return find_triangle(random_bipartite(64, 2), AlgoParams(seed=2, **fields)).to_json()

    on = library(log_factors=True, failure_injection=DEFAULT_INJECTION)
    assert on != library()
    assert main(args + ["--inject", "on", "--log-factors", "on"]) == 0
    assert out.read_text() == on
    assert main(args + ["--inject", "off", "--log-factors", "off"]) == 0
    assert out.read_text() == library()


def test_run_flag_other_than_on_or_off_is_usage_error(capsys, no_work):
    with pytest.raises(SystemExit) as info:
        main(["run", "--n", "64", "--inject", "yes"])
    assert info.value.code == 2
    assert "expected 'on' or 'off'" in capsys.readouterr().err


def test_verify_cover_sparsity_passes(tmp_path):
    out = tmp_path / "cover.json"
    code = main(
        [
            "verify",
            "cover-sparsity",
            "--n", "64",
            "--k", "0.5",
            "--trials", "10",
            "--seed", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["verdict"] is True


def test_verify_subset_cap_writes_per_config(tmp_path):
    out = tmp_path / "cap.json"
    code = main(
        [
            "verify",
            "subset-cap",
            "--size-a", "32",
            "--r", "8",
            "--trials", "2000",
            "--seed", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    for config in ("er-half", "er-dense", "edgeless"):
        assert (tmp_path / f"cap-{config}.json").exists()


def test_verify_estimator_csv(tmp_path):
    out = tmp_path / "est.csv"
    code = main(
        [
            "verify",
            "estimator",
            "--n", "64",
            "--trials", "5",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert out.read_text().startswith("trial,outcome")


@pytest.mark.parametrize(
    "argv, reports",
    [
        (
            ["cover-sparsity", "--trials", "3"],
            {"": lambda: verify_cover_sparsity(256, 0.5, 3, family="er:0.5", seed=0)},
        ),
        (
            ["cover-sparsity", "--n", "48", "--k", "0.4", "--trials", "4"]
            + ["--family", "bipartite", "--seed", "7"],
            {"": lambda: verify_cover_sparsity(48, 0.4, 4, family="bipartite", seed=7)},
        ),
        (
            ["estimator", "--trials", "2"],
            {"": lambda: verify_estimator_bounds(256, 0.75, 0.5, 2, family="er:0.5", seed=0)},
        ),
        (
            ["estimator", "--n", "48", "--a", "0.7", "--k", "0.4", "--trials", "4"]
            + ["--family", "er:0.3", "--seed", "7"],
            {"": lambda: verify_estimator_bounds(48, 0.7, 0.4, 4, family="er:0.3", seed=7)},
        ),
        (
            ["subset-cap"],
            {
                f"-{config}": lambda config=config: verify_subset_cap(
                    128, 16, 100, config=config, seed=0
                )
                for config in ("er-half", "er-dense", "edgeless")
            },
        ),
        (
            ["subset-cap", "--size-a", "24", "--r", "6", "--trials", "500"]
            + ["--config", "er-dense", "--seed", "7"],
            {"-er-dense": lambda: verify_subset_cap(24, 6, 500, config="er-dense", seed=7)},
        ),
    ],
    ids=[
        "cover-sparsity-defaults",
        "cover-sparsity-every-flag",
        "estimator-defaults",
        "estimator-every-flag",
        "subset-cap-defaults",
        "subset-cap-every-flag",
    ],
)
def test_verify_out_is_the_library_report(tmp_path, capsys, argv, reports):
    # Each flag reaches its own argument, and each default is the library's
    # or the documented one: the report file equals the library call's bytes.
    main(["verify", *argv, "--out", str(tmp_path / "r.json")])
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        f"r{suffix}.json" for suffix in reports
    )
    for suffix, call in reports.items():
        assert (tmp_path / f"r{suffix}.json").read_bytes() == call().to_json().encode()
    assert capsys.readouterr().err.startswith("wall_ms=")


def test_fit_band_verdicts():
    base = [
        "fit",
        "--grid", "128,256,512",
        "--algo", "naive",
        "--trials", "1",
        "--family", "edgeless",
        "--seed", "0",
    ]
    assert main(base + ["--band", "1.49,1.51", "--out", "/dev/null"]) == 0
    assert main(base + ["--band", "2.0,3.0", "--out", "/dev/null"]) == 1
    assert main(base + ["--out", "/dev/null"]) == 0


def test_fit_usage_error_for_bad_grid():
    with pytest.raises(SystemExit) as info:
        main(["fit", "--grid", "128,256", "--algo", "naive", "--out", "/dev/null"])
    assert info.value.code == 2


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a command starts its finder run, its fit or its campaign."""

    def refuse(*args, **kwargs):
        raise AssertionError("work ran before the usage error")

    for name in (
        "find_triangle",
        "scaling_fit",
        "verify_cover_sparsity",
        "verify_estimator_bounds",
        "verify_subset_cap",
    ):
        monkeypatch.setattr(triwalk.cli, name, refuse)


def test_run_csv_out_is_usage_error_before_the_run(tmp_path, capsys, no_work):
    out = tmp_path / "r.csv"
    with pytest.raises(SystemExit) as info:
        main(["run", "--n", "64", "--out", str(out)])
    assert info.value.code == 2
    assert "no CSV form" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("band", ["1.2", "1.2,1.3,1.4", "low,high"])
def test_fit_bad_band_is_usage_error_before_the_fit(capsys, no_work, band):
    with pytest.raises(SystemExit) as info:
        main(["fit", "--grid", "128,256,512", "--band", band])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "--band" in captured.err and captured.out == ""


@pytest.mark.parametrize("grid", ["128,256,x", "128;256;512", ""])
def test_fit_bad_grid_is_usage_error_before_the_fit(capsys, no_work, grid):
    with pytest.raises(SystemExit) as info:
        main(["fit", "--grid", grid])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "--grid" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--grid", "128,256", "--n", "64"],
        ["verify", "estimator", "--n", "64", "--log-factors", "on"],
        ["verify", "subset-cap", "--n", "64"],
        ["verify", "subset-cap", "--family", "er:0.9"],
        ["verify", "cover-sparsity", "--a", "0.5"],
        ["verify", "estimator", "--config", "edgeless"],
    ],
    ids=[
        "fit-n",
        "verify-log-factors",
        "subset-cap-n",
        "subset-cap-family",
        "cover-sparsity-a",
        "estimator-config",
    ],
)
def test_flag_a_command_never_reads_is_usage_error(capsys, no_work, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and captured.out == ""


def test_unknown_choice_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["fit", "--algo", "quantumest"])
    assert info.value.code == 2


def test_correctness_small(tmp_path):
    out = tmp_path / "corr.json"
    code = main(
        [
            "correctness",
            "--max-n", "32",
            "--cases", "10",
            "--planted-cases", "2",
            "--planted-n", "64",
            "--seed", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["extras"]["agreement"] == blob["extras"]["total"]


@pytest.fixture
def no_campaign_run(monkeypatch):
    """Fail the test if a campaign draws its first graph."""

    def refuse(*args, **kwargs):
        raise AssertionError("a campaign ran before the usage error")

    monkeypatch.setattr(triwalk.harness, "find_triangle", refuse)
    monkeypatch.setattr(triwalk.harness, "sample_cover", refuse)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["correctness", "--cases", "0", "--planted-cases", "0"], "at least one case"),
        (["correctness", "--cases", "-3"], "cases must be at least 0"),
        (["correctness", "--planted-cases", "-1"], "planted_cases must be at least 0"),
        (["correctness", "--max-n", "5"], "max_n must be at least 12"),
        (
            ["correctness", "--cases", "200", "--planted-cases", "1", "--planted-n", "5"],
            "planted_n must be at least 12",
        ),
        (["verify", "cover-sparsity", "--k", "1.5"], "cover exponent k"),
        (["verify", "estimator", "--k", "0"], "cover exponent k"),
        (["verify", "estimator", "--a", "1.5"], "block exponent a"),
    ],
)
def test_bad_campaign_input_is_usage_error(capsys, no_campaign_run, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_gen_roundtrips(tmp_path):
    txt = tmp_path / "g.txt"
    binp = tmp_path / "g.bin"
    assert main(["gen", "--n", "40", "--family", "er:0.3", "--seed", "7", "--out", str(txt)]) == 0
    assert main(["gen", "--n", "40", "--family", "er:0.3", "--seed", "7", "--out", str(binp)]) == 0
    assert read_edge_list(txt) == read_packed(binp)


def test_run_below_guard_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["run", "--n", "32", "--seed", "0"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "command, name", [(["run"], "report.json"), (["gen", "--family", "bipartite"], "g.bin")]
)
def test_huge_n_is_usage_error(tmp_path, capsys, command, name):
    out = tmp_path / name
    with pytest.raises(SystemExit) as info:
        main([*command, "--n", "100000000", "--out", str(out)])
    assert info.value.code == 2
    assert capsys.readouterr().err == (
        "error: n=100000000 is too large: its adjacency cannot be allocated\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("suffix", [".txt", ".bin"])
def test_run_graph_file_gives_the_generated_graphs_report(tmp_path, suffix):
    graph = tmp_path / f"g{suffix}"
    family = ["--family", "planted", "--seed", "5"]
    assert main(["gen", "--n", "96", *family, "--out", str(graph)]) == 0
    generated, from_file = tmp_path / "generated.json", tmp_path / "from_file.json"
    assert main(["run", "--n", "96", *family, "--out", str(generated)]) == 0
    assert main(["run", "--graph", str(graph), "--seed", "5", "--out", str(from_file)]) == 0
    assert from_file.read_bytes() == generated.read_bytes()


def test_run_malformed_graph_file_is_usage_error(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("n 64\n0 1\n2 x\n")
    with pytest.raises(SystemExit) as info:
        main(["run", "--graph", str(graph)])
    assert info.value.code == 2
    assert capsys.readouterr().err == (
        "error: line 3: expected 'u v', two integer ids, got '2 x'\n"
    )


def test_run_missing_graph_file_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--graph", str(tmp_path / "absent.bin")])
    assert info.value.code == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--n", "64"], ["--family", "bipartite"]])
def test_run_graph_with_n_or_family_is_usage_error(tmp_path, capsys, no_work, flag):
    graph = tmp_path / "g.bin"
    assert main(["gen", "--n", "64", "--out", str(graph)]) == 0
    with pytest.raises(SystemExit) as info:
        main(["run", "--graph", str(graph), *flag])
    assert info.value.code == 2
    assert "cannot be combined" in capsys.readouterr().err
