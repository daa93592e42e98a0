"""Command-line front end.

Subcommands: insert, commute, verify, rsk, render.  Tableaux are read from
``--file`` (default standard input) in the plain text format: one row per
line, row 0 first, space-separated decimal naturals, ``#`` comments.

Exit codes: 0 success, 1 verification or commutation failure or a violated
invariant, 2 input error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .fused import commute_check
from .harness import CaseDescriptor, SweepFailure, SweepSummary, check_report, rsk, run_sweep
from .insertion import InvariantViolation, Trail, column_insert, row_insert
from .render import render_tableau, render_trail
from .tableau import Tableau, dump_tableau, parse_tableau


def _read_tableau(args: argparse.Namespace) -> Tableau:
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    return parse_tableau(text)


def _render(args: argparse.Namespace, t: Tableau, *trails: Trail) -> str:
    return render_tableau(t, *trails, convention=args.convention, format=args.format)


def cmd_insert(args: argparse.Namespace) -> int:
    t = _read_tableau(args)
    if args.mode == "row":
        result, trail = row_insert(t, args.value)
    else:
        result, trail = column_insert(args.value, t)
    if args.annotate == "trails":
        print(_render(args, t, trail))
        print()
    print(_render(args, result))
    print()
    print(render_trail(trail))
    return 0


def cmd_commute(args: argparse.Namespace) -> int:
    t = _read_tableau(args)
    report = commute_check(t, args.x, args.y)
    fields = [f"{k}={v}" for k, v in report.intersection._asdict().items() if v is not None]
    if args.porcelain:
        for name, tab in (("left", report.left), ("right", report.right), ("fused", report.fused)):
            for r, row in enumerate(tab.rows):
                print(f"{name}.row{r}={' '.join(str(v) for v in row)}")
        for field in fields:  # the variant first
            print(f"intersection.{field}")
        print(f"all_equal={str(report.all_equal).lower()}")
    else:
        names = (f"(x->T)<-y with x={args.x}, y={args.y}", "x->(T<-y)", "fused")
        blocks = [_render(args, tab).splitlines() for tab in (report.left, report.right, report.fused)]
        height = max(map(len, blocks))
        columns = []
        for name, lines in zip(names, blocks):  # bottom-aligned under its name, padded to its width
            lines = [name] + [""] * (height - len(lines)) + lines
            columns.append([line.ljust(max(map(len, lines))) for line in lines])
        header, *body = zip(*columns)
        print("   ".join(header))
        for line in body:
            print("   ".join(line).rstrip())
        print()
        print(f"intersection: {', '.join(fields)}")
        print("EQUAL" if report.all_equal else "UNEQUAL")
    try:  # the sweep's other checks too, so that verify's reproducer fails where verify did
        check_report(CaseDescriptor(t, args.x, args.y), report, SweepSummary())
    except SweepFailure as err:
        print(f"sweep failure: {err}", file=sys.stderr)
        return 1
    return 0  # check_report raises when the three results disagree


def cmd_verify(args: argparse.Namespace) -> int:
    workers = min(args.workers, os.cpu_count() or 1)  # more processes than cores only wait
    start = time.perf_counter()
    try:
        summary = run_sweep(args.max_n, workers=workers)
    except SweepFailure as err:
        print(f"sweep failure: {err}", file=sys.stderr)
        t, x, y = err.case.tableau, err.case.x, err.case.y
        rows = "".join(f" '{row}'" for row in dump_tableau(t).splitlines())
        print(f"reproduce: printf '%s\\n'{rows} | schensted commute --x {x} --y {y}", file=sys.stderr)
        return 1
    print(f"checked {summary.cases_total} cases up to n={args.max_n}")
    for line in summary.records():
        print(line)
    print(f"elapsed_seconds={time.perf_counter() - start:.3f}", file=sys.stderr)  # stdout is the record alone
    return 0


def cmd_rsk(args: argparse.Namespace) -> int:
    p, q = rsk(args.word)
    print("P:")
    print(_render(args, p))
    print("Q:")
    print(_render(args, q))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    t = _read_tableau(args)
    print(_render(args, t))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schensted",
        description="Bumping insertion on Young tableaux, trail analysis, "
        "and exhaustive commutation checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    render_flags = argparse.ArgumentParser(add_help=False)
    render_flags.add_argument("--convention", choices=("french", "english"), default="french")
    render_flags.add_argument("--format", choices=("ascii", "latex"), default="ascii")
    io_flags = argparse.ArgumentParser(add_help=False, parents=[render_flags])
    io_flags.add_argument("--file", default="-", help="tableau file (default: stdin)")

    p_insert = sub.add_parser("insert", parents=[io_flags], help="row- or column-insert a value")
    p_insert.add_argument("--mode", choices=("row", "col"), required=True)
    p_insert.add_argument("--value", type=int, required=True)
    p_insert.add_argument("--annotate", choices=("none", "trails"), default="none")
    p_insert.set_defaults(func=cmd_insert)

    p_commute = sub.add_parser(
        "commute", parents=[io_flags],
        help="compare (x->T)<-y, x->(T<-y), and the fused insertion",
    )
    p_commute.add_argument("--x", type=int, required=True, help="column-inserted value")
    p_commute.add_argument("--y", type=int, required=True, help="row-inserted value")
    p_commute.add_argument(
        "--porcelain", action="store_true", help="line-oriented key=value output"
    )
    p_commute.set_defaults(func=cmd_commute)

    p_verify = sub.add_parser("verify", help="exhaustive sweep of all invariants")
    p_verify.add_argument("--max-n", type=int, default=7)
    p_verify.add_argument(
        "--workers", type=int, default=1, help="worker processes, at most the CPU count"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_rsk = sub.add_parser(
        "rsk", parents=[render_flags], help="insertion and recording tableaux of a word"
    )
    p_rsk.add_argument("word", type=int, nargs="*", help="distinct labels")
    p_rsk.set_defaults(func=cmd_rsk)

    p_render = sub.add_parser("render", parents=[io_flags], help="pretty-print a tableau")
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InvariantViolation as err:
        print(f"invariant violated: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
