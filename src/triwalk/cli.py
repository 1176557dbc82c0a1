"""Command-line interface.

Subcommands:
    run          one charged finder run on a generated instance or a graph file
    verify       Monte Carlo campaigns (cover-sparsity, estimator, subset-cap)
    fit          scaling-exponent fit over an n grid
    correctness  finder-versus-ground-truth campaign
    gen          write a generated graph to disk

Exit codes: 0 when the command's verdict passes (or it has none), 1 on a
failing verdict, 2 on usage errors. Reports are JSON (canonical key order)
or CSV depending on the --out extension; timing is printed to stderr and
excluded from report files so identical seeds give identical bytes.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional

from .graph import Graph, read_edge_list, read_packed, write_edge_list, write_packed
from .harness import (
    ALGOS,
    SUBSET_CAP_CONFIGS,
    CampaignReport,
    correctness_suite,
    parse_family,
    scaling_fit,
    verify_cover_sparsity,
    verify_estimator_bounds,
    verify_subset_cap,
)
from .pipeline import AlgoParams, FailureInjection, find_triangle

# Stage gates used by --inject on: walk 3/4 and checker 2/3, the success
# floors of the corresponding routines.
DEFAULT_INJECTION = FailureInjection(walk_success=0.75, check_success=2.0 / 3.0)
# The instance run builds without --n or --family; fit and verify share the family.
DEFAULT_N = 512
DEFAULT_FAMILY = "er:0.5"


def _bool_flag(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError("expected 'on' or 'off'")
    return value == "on"


def _numbers(kind, count: Optional[int] = None):
    """argparse type: comma-separated values of kind, exactly count if given."""

    def parse(value: str) -> list:
        try:
            out = [kind(tok) for tok in value.split(",")]
        except ValueError:
            out = None
        if out is None or count not in (None, len(out)):
            what = f"{count} comma-separated" if count else "comma-separated"
            raise argparse.ArgumentTypeError(f"expected {what} {kind.__name__}s, got {value!r}")
        return out

    return parse


def _check_out(out: Optional[str], has_csv: bool) -> None:
    if out is not None and Path(out).suffix == ".csv" and not has_csv:
        raise ValueError("this report has no CSV form; write it to a .json path")


def _write_report(text_json: str, text_csv: Optional[str], out: Optional[str]) -> None:
    _check_out(out, text_csv is not None)
    if out is None:
        sys.stdout.write(text_json)
        return
    path = Path(out)
    path.write_text(text_csv if path.suffix == ".csv" else text_json)


def _params_from_args(args) -> AlgoParams:
    injection = DEFAULT_INJECTION if getattr(args, "inject", False) else None
    return AlgoParams(
        a=args.a,
        k=args.k,
        log_factors=args.log_factors,
        failure_injection=injection,
        seed=args.seed,
        n_min_guard=getattr(args, "guard", 64),
    )


def _run_graph(args) -> Graph:
    """The graph file --graph names, or the --family instance on --n vertices."""
    if args.graph is None:
        _, fam = parse_family(DEFAULT_FAMILY if args.family is None else args.family)
        return fam(DEFAULT_N if args.n is None else args.n, args.seed)
    if args.n is not None or args.family is not None:
        raise ValueError("--graph cannot be combined with --n or --family")
    path = Path(args.graph)
    try:
        return read_packed(path) if path.suffix == ".bin" else read_edge_list(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None


def _cmd_run(args) -> int:
    _check_out(args.out, has_csv=False)
    g = _run_graph(args)
    report = find_triangle(g, _params_from_args(args))
    print(f"wall_ms={report.wall_ms:.1f}", file=sys.stderr)
    _write_report(report.to_json(), None, args.out)
    return 0


def _campaign_exit(report: CampaignReport, out: Optional[str]) -> int:
    _write_report(report.to_json(), report.to_csv(), out)
    return 0 if report.verdict else 1


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    if args.target == "cover-sparsity":
        report = verify_cover_sparsity(
            args.n, args.k, args.trials, family=args.family, seed=args.seed
        )
        code = _campaign_exit(report, args.out)
    elif args.target == "estimator":
        report = verify_estimator_bounds(
            args.n, args.a, args.k, args.trials, family=args.family, seed=args.seed
        )
        code = _campaign_exit(report, args.out)
    else:  # subset-cap
        configs = SUBSET_CAP_CONFIGS if args.config == "all" else (args.config,)
        code = 0
        for config in configs:
            report = verify_subset_cap(
                args.size_a, args.r, args.trials, config=config, seed=args.seed
            )
            out = None
            if args.out:
                stem = Path(args.out)
                out = str(stem.with_name(f"{stem.stem}-{config}{stem.suffix}"))
            code = max(code, _campaign_exit(report, out))
    print(f"wall_ms={(time.perf_counter() - t0) * 1000:.1f}", file=sys.stderr)
    return code


def _cmd_fit(args) -> int:
    params = _params_from_args(args)
    result = scaling_fit(
        args.grid, args.algo, args.trials, family=args.family, params=params, seed=args.seed
    )
    _write_report(result.to_json(), result.to_csv(), args.out)
    if args.band:
        lo, hi = args.band
        return 0 if lo <= result.slope <= hi else 1
    return 0


def _cmd_correctness(args) -> int:
    injection = DEFAULT_INJECTION if args.inject else None
    report = correctness_suite(
        args.max_n,
        args.cases,
        seed=args.seed,
        injection=injection,
        planted_cases=args.planted_cases,
        planted_n=args.planted_n,
    )
    return _campaign_exit(report, args.out)


def _cmd_gen(args) -> int:
    _, fam = parse_family(args.family)
    g = fam(args.n, args.seed)
    path = Path(args.out)
    if path.suffix == ".bin":
        write_packed(g, path)
    else:
        write_edge_list(g, path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triwalk",
        description="Charged-cost emulation of walk-based triangle finding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--a", type=float, default=0.75)
        p.add_argument("--k", type=float, default=0.5)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--family", default=DEFAULT_FAMILY)
        p.add_argument("--out", default=None)

    def log_factors(p):
        p.add_argument("--log-factors", dest="log_factors", type=_bool_flag, default=False)

    p_run = sub.add_parser("run", help="single charged finder run")
    common(p_run)
    log_factors(p_run)
    # None stands for DEFAULT_N and DEFAULT_FAMILY, so that --graph can refuse both flags.
    p_run.add_argument("--n", type=int, default=None)
    p_run.set_defaults(family=None)
    p_run.add_argument(
        "--graph",
        default=None,
        help="run on this graph file (.bin: packed, else edge list), not --n/--family",
    )
    p_run.add_argument("--inject", type=_bool_flag, default=False)
    p_run.add_argument("--guard", type=int, default=64)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="Monte Carlo verification campaigns")
    p_verify.add_argument(
        "target", choices=["cover-sparsity", "estimator", "subset-cap"]
    )
    common(p_verify)
    p_verify.add_argument("--n", type=int, default=256)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--size-a", dest="size_a", type=int, default=128)
    p_verify.add_argument("--r", type=int, default=16)
    p_verify.add_argument(
        "--config", choices=list(SUBSET_CAP_CONFIGS) + ["all"], default="all"
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_fit = sub.add_parser("fit", help="scaling-exponent fit")
    common(p_fit)
    log_factors(p_fit)
    p_fit.add_argument("--grid", type=_numbers(int), default="128,256,512,1024,2048")
    p_fit.add_argument("--algo", choices=ALGOS, default="walk")
    p_fit.add_argument("--trials", type=int, default=20)
    p_fit.add_argument(
        "--band", type=_numbers(float, 2), default=None, help="pass band 'lo,hi' for the slope"
    )
    p_fit.set_defaults(func=_cmd_fit)

    p_corr = sub.add_parser("correctness", help="finder vs ground truth")
    p_corr.add_argument("--max-n", dest="max_n", type=int, default=64)
    p_corr.add_argument("--cases", type=int, default=200)
    p_corr.add_argument("--seed", type=int, default=0)
    p_corr.add_argument("--planted-cases", dest="planted_cases", type=int, default=20)
    p_corr.add_argument("--planted-n", dest="planted_n", type=int, default=512)
    p_corr.add_argument("--inject", type=_bool_flag, default=False)
    p_corr.add_argument("--out", default=None)
    p_corr.set_defaults(func=_cmd_correctness)

    p_gen = sub.add_parser("gen", help="write a generated graph")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--family", default="er:0.5")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
