"""Command-line harness: verification sweeps and cochain operators.

Three subcommands:

    verify    run named check suites over a range of sizes and emit one
              report per (check, n) cell, as a fixed-width table or as JSON;
    costar    apply the codifferential ∂* to a cochain file;
    transfer  transfer a degree-2 source cochain to the (2, n+1) target.

The JSON report format is the stable machine interface: a list of objects
{check, n, status, cases_run, wall_time_ms} plus a counterexample field on
failing cells, serialized with sorted keys.  wall_time_ms is fixed to 0 in
JSON so that runs over the same checks and sizes are byte-identical;
measured times appear in the text format only.  No check samples, so
--seed and --trials are accepted, and --trials validated, but neither
changes a byte of output.  Exit codes: 0 when every report passes, 1 when
any cell fails (a cell that ran no cases fails, and so does a cell that
raises: its row has cases_run 0 and the exception as its counterexample,
and the run goes on with the next cell), 2 for usage or input errors, such
as a non-positive --trials or an --output path that cannot be written.
Cells whose size lies outside a check's window (the suites built on the
almost-Grassmannian source need n ≥ 3) are skipped without a report, so
ranged runs over mixed windows can still exit 0.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache

from .checks import CHECK_NAMES, run_check
from .cochain_io import CochainFormatError, load_cochain, save_cochain
from .feff import SOURCES, Report, build_maps, transfer
from .kostant import Cochain, costar


def _report_row(rep: Report) -> dict[str, object]:
    row: dict[str, object] = {
        "check": rep.name,
        "n": rep.n,
        "status": "PASS" if rep.ok else "FAIL",
        "cases_run": rep.cases,
        "wall_time_ms": 0,
    }
    if not rep.ok:
        row["counterexample"] = rep.failures[0]
    return row


def cmd_verify(args: argparse.Namespace) -> int:
    if args.n_min > args.n_max:
        print("error: --n-min exceeds --n-max", file=sys.stderr)
        return 2
    if args.trials < 1:
        print("error: --trials must be a positive integer", file=sys.stderr)
        return 2
    names = CHECK_NAMES if args.check == "all" else (args.check,)
    reports: list[tuple[Report, int]] = []
    for name in names:
        for n in range(args.n_min, args.n_max + 1):
            start = time.perf_counter()
            try:
                rep = run_check(name, n, args.seed, args.trials)
            except Exception as exc:  # noqa: BLE001 - the cell's failure, not the run's
                rep = Report(n=n, cases=0, failures=[f"{type(exc).__name__}: {exc}"],
                             name=name, failed=1)
            if rep is None:
                continue
            elapsed_ms = int((time.perf_counter() - start) * 1000)
            reports.append((rep, elapsed_ms))
    if args.format == "json":
        print(json.dumps([_report_row(rep) for rep, _ in reports],
                         indent=2, sort_keys=True))
    else:
        print(f"{'CHECK':<16} {'N':>2} {'STATUS':<6} {'CASES':>8} {'TIME_MS':>8}")
        for rep, elapsed_ms in reports:
            status = "PASS" if rep.ok else "FAIL"
            print(f"{rep.name:<16} {rep.n:>2} {status:<6} "
                  f"{rep.cases:>8} {elapsed_ms:>8}")
            if not rep.ok:
                count = f"{rep.failed} failure{'s' if rep.failed != 1 else ''}"
                print(f"  counterexample: {rep.failures[0]} ({count})")
        failed = sum(1 for rep, _ in reports if not rep.ok)
        print(f"{len(reports)} report(s), "
              + ("all PASS" if not failed else f"{failed} FAIL"))
    return 0 if all(rep.ok for rep, _ in reports) else 1


def _save(c: Cochain, path: str) -> int:
    try:
        save_cochain(c, path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_costar(args: argparse.Namespace) -> int:
    try:
        c = load_cochain(args.input)
    except (OSError, CochainFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if c.deg < 1:
        print("error: the codifferential needs a cochain of degree >= 1",
              file=sys.stderr)
        return 2
    return _save(costar(c), args.output)


def cmd_transfer(args: argparse.Namespace) -> int:
    try:
        c = load_cochain(args.input)
    except (OSError, CochainFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    blocks = c.alg.blocks
    make_blocks, min_n = SOURCES[args.source]
    n = blocks[-1]
    if blocks != make_blocks(n) or n < min_n:
        shape = ", ".join(map(str, make_blocks("n")))  # the grading, n symbolic
        print(f"error: a {args.source!r}-source cochain needs the grading "
              f"({shape}) with n >= {min_n}; the input has blocks "
              f"{list(blocks)}", file=sys.stderr)
        return 2
    if c.deg != 2:
        print("error: the transfer applies to degree-2 cochains",
              file=sys.stderr)
        return 2
    return _save(transfer(c, build_maps(n, args.source)), args.output)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="kostantcheck",
        description="Exact verification harness for the two curvature-"
                    "transfer constructions and their Kostant calculus.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="run verification suites over a range of sizes")
    p_verify.add_argument("--check", default="all",
                          choices=("all",) + CHECK_NAMES,
                          help="suite to run (default: all)")
    p_verify.add_argument("--n-min", type=int, default=2)
    p_verify.add_argument("--n-max", type=int, default=3)
    p_verify.add_argument("--seed", type=int, default=0,
                          help="accepted for compatibility; changes no output")
    p_verify.add_argument("--trials", type=int, default=20,
                          help="a positive integer, accepted for compatibility; "
                               "changes no output")
    p_verify.add_argument("--format", choices=("text", "json"),
                          default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_costar = sub.add_parser(
        "costar", help="apply the codifferential to a cochain file")
    p_costar.add_argument("--input", required=True)
    p_costar.add_argument("--output", required=True)
    p_costar.set_defaults(func=cmd_costar)

    p_transfer = sub.add_parser(
        "transfer", help="transfer a source cochain to the (2, n+1) target")
    p_transfer.add_argument("--input", required=True)
    p_transfer.add_argument("--source", required=True, choices=tuple(SOURCES))
    p_transfer.add_argument("--output", required=True)
    p_transfer.set_defaults(func=cmd_transfer)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
