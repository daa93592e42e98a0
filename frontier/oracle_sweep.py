"""Check every case up to a size against jeu de taquin, an oracle that runs no bumping.

For each case (T, x, y) of ``enumerate_cases`` with |T| up to ``--max-n``,
``commute_check``'s ``left``, ``right`` and ``fused`` must all equal the
rectification of x ∗ T ∗ y (``tests/oracles.py``).  The shards run on
``verify``'s runner, ``harness._shards``, and are read in order, so the first
failure is the same at every worker count, and shards still running stop at
their next tableau.  Standard output is one line, the number of cases checked;
the elapsed time goes to standard error.  A failure prints ``verify``'s
reproducer line and exits 1; when only the oracle disagrees, a second line
gives its rows.

    PYTHONPATH=src python frontier/oracle_sweep.py --max-n 8 --workers 2
"""

import os
import sys
import time
from itertools import groupby
from operator import itemgetter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import jeu_de_taquin_tableau  # noqa: E402
from schensted import commute_check, enumerate_cases, harness  # noqa: E402
from schensted.cli import _Parser, reproducer  # noqa: E402


def involution_number(n):
    """Standard Young tableaux with n cells: I(n) = I(n-1) + (n-1) I(n-2)."""
    prev, cur = 1, 1
    for k in range(2, n + 1):
        prev, cur = cur, cur + (k - 1) * prev
    return cur


def check_shard(n, shard, shards):
    """Cases of the shard that passed, and the first failing case with the oracle's rows, or None."""
    checked = 0
    for _, cases in groupby(enumerate_cases(n, shard, shards), itemgetter(0)):
        if harness._stop is not None and harness._stop.is_set():  # between tableaux
            break  # nothing reads a stopped shard
        for case in cases:
            p = jeu_de_taquin_tableau(*case)
            try:
                report = commute_check(*case)
            except Exception:  # the reproducer shows the error
                return checked, (case, None)
            agree = report.left == report.right == report.fused
            if not (agree and report.left == p):
                return checked, (case, p.rows if agree else None)
            checked += 1
    return checked, None


def main(argv=None):
    parser = _Parser(description=__doc__.split("\n", 1)[0])  # a bad flag: one line, exit 2
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument("--workers", type=int, default=1, help="worker processes, at most the CPU count")
    args = parser.parse_args(argv)
    if args.max_n < 0 or args.workers < 1:
        parser.error("--max-n must be non-negative and --workers at least 1")
    start = time.perf_counter()
    total = 0
    results = harness._shards(check_shard, args.max_n, min(args.workers, os.cpu_count() or 1))
    for checked, failure in results:
        total += checked
        if failure:
            results.close()
            case, oracle_rows = failure
            print(reproducer(case), file=sys.stderr)
            if oracle_rows is not None:
                print(f"only the oracle disagrees: jeu de taquin gives rows {oracle_rows}", file=sys.stderr)
            return 1
    expected = sum(involution_number(n) * (n + 1) * (n + 2) for n in range(args.max_n + 1))
    if total != expected:
        print(f"checked {total} cases, expected {expected} from the involution numbers", file=sys.stderr)
        return 1
    print(f"checked {total} cases up to n={args.max_n} against jeu de taquin")
    print(f"elapsed_seconds={time.perf_counter() - start:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
