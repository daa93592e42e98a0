"""Exhaustive desk-scale verification: case enumeration, sweeps, and RSK.

Every statement the library implements is re-checked here by brute force over
all standard Young tableaux up to a given size, with the two inserted values
ranging over both orders of every gap pair.  Relabeling through a strictly
increasing map changes nothing, so labelling each tableau once, with 3, 6, ..., 3n,
and taking x and y from its gaps g = 0..n (3g + 1 and 3g + 2 in one gap, 3g + 1
and 3h + 1 in two) gives every order type of (T, x, y), each once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import cycle, groupby, repeat
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional, get_args

from .fused import CommutationReport, commute_check, trail_agreement
from .insertion import XAlreadyPresent, _bump
from .insertion import slide_trail, validate_trail
from .tableau import Label, Tableau, check_label
from .trails import CONFIGURATIONS, Variant, check_relative_position


class DuplicateInWord(ValueError):
    pass


class CaseDescriptor(NamedTuple):
    tableau: Tableau
    x: Label
    y: Label


class SweepFailure(AssertionError):
    """First failing case of a sweep, with the invariant that broke."""

    def __init__(self, case: CaseDescriptor, invariant: str, detail: str = ""):
        super().__init__(case, invariant, detail)  # a pool worker's failure is pickled by its args
        self.case, self.invariant, self.detail = case, invariant, detail

    def __str__(self) -> str:
        return f"{self.invariant} failed for {self.case}" + (f": {self.detail}" if self.detail else "")


@dataclass
class SweepSummary:
    cases_total: int = 0
    variant_counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(get_args(Variant), 0))
    configuration_counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(CONFIGURATIONS, 0))
    part_ii_hypothesis_failures: int = 0  # never written; perfbench's sweep gate still reads it
    # While _sweep_level fills the summary: the (row 0, y) pairs whose bump stability has passed.
    stable: Optional[set] = field(default=None, init=False, repr=False, compare=False)

    def merge(self, other: "SweepSummary") -> None:
        self.cases_total += other.cases_total
        for k, v in other.variant_counts.items():
            self.variant_counts[k] += v
        for k, v in other.configuration_counts.items():
            self.configuration_counts[k] += v

    def records(self) -> list[str]:
        """Line-oriented key=value dump, stable for CI diffing."""
        lines = [f"cases_total={self.cases_total}"]
        lines += [f"variant.{k}={v}" for k, v in sorted(self.variant_counts.items())]
        lines += [
            f"configuration.{k}={v}"
            for k, v in sorted(self.configuration_counts.items())
        ]
        return lines


def enumerate_syt(n: int) -> Iterator[Tableau]:
    """All standard Young tableaux on labels 1..n, by corner placement of n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        yield Tableau._trusted(())
        return
    for t in enumerate_syt(n - 1):
        rows = t.rows
        for r in range(len(rows)):
            if r == 0 or len(rows[r]) < len(rows[r - 1]):
                yield Tableau._trusted(rows[:r] + (rows[r] + (n,),) + rows[r + 1 :])
        yield Tableau._trusted(rows + ((n,),))


def enumerate_cases(n: int, shard: int = 0, num_shards: int = 1) -> Iterator[CaseDescriptor]:
    """All (T, x, y) with T an SYT of size n, one case per order type.

    Each tableau is relabelled once, with 3, 6, ..., 3n, and validated.  For
    gaps g != h among 0..n the pair is (3g + 1, 3h + 1); within one gap g it
    is (3g + 1, 3g + 2) in both orders: (n + 1)(n + 2) pairs per tableau.
    Only the ``shard``-th of ``num_shards`` contiguous runs of the tableaux is
    relabelled and yields its cases, so the shards in order give the whole level's.
    """
    gaps = range(n + 1)
    pairs = [(3 * g + 1, 3 * h + 1) for g in gaps for h in gaps if g != h]
    pairs += [(3 * g + 1 + k, 3 * g + 2 - k) for g in gaps for k in (0, 1)]
    syt = list(enumerate_syt(n))
    for t in syt[shard * len(syt) // num_shards : (shard + 1) * len(syt) // num_shards]:
        rt = Tableau(tuple(tuple(3 * v for v in row) for row in t.rows))
        for x, y in pairs:
            yield CaseDescriptor(rt, x, y)


def check_modify_property(row: tuple[Label, ...], x: Label) -> Optional[Label]:
    """The bump-stability property, on the two extreme modifications of the row.

    If inserting x into the row bumps some y, so must every strictly increasing
    modification that keeps y at its index, puts label k left of it anywhere in
    [k, its old value], and steps by 1 to 4 right of it.  The two ends of those
    ranges are checked: the tightest keeps the labels left of y and puts those
    right of it at y + 1, y + 2, ...; the loosest puts label k left of y at k
    and those right of it at y + 4, y + 8, ....  Every modification orders its
    labels against x as the row does, so a bump that only compares labels
    treats them all alike; the ends are where one that reads values goes wrong.
    Returns y, or None when x simply appends; raises XAlreadyPresent when x is
    in the row.
    """
    if x in row:
        raise XAlreadyPresent(f"{x} already present in row")
    # Bumping into a one-row list leaves the tuple row as it is and bumps out at most one label.
    boxes, bumped = _bump([row], x)
    if not bumped:
        return None
    p, y = boxes[0][1], bumped[0]
    n = len(row) - p  # y and the labels right of it
    # Exact-size constructors only: building these from generators raised peak memory by
    # about 18 % on 300-cell words.
    for modified in (
        row[: p + 1] + tuple(range(y + 1, y + n)),
        tuple(range(p)) + (y,) + tuple(range(y + 4, y + 4 * n, 4)),
    ):
        found = _bump([modified], x)[1]
        if found != bumped:
            raise AssertionError(
                f"modified row {modified} bumped {(found or [None])[0]}, expected {y}"
            )
    return y


def check_case(case: CaseDescriptor, rng: object, summary: SweepSummary) -> None:
    """Analyse the case once with ``commute_check`` and check the report with ``check_report``.

    An error of the analysis itself is a ``"commutation"`` SweepFailure.  Every
    check is deterministic: the result depends on the case alone.
    """
    # rng is ignored; it stays only because perfbench/run.py still passes one per case.
    try:
        report = commute_check(case.tableau, case.x, case.y)
    except Exception as err:
        raise SweepFailure(case, "commutation", str(err)) from err
    check_report(case, report, summary)


def check_report(case: CaseDescriptor, report: CommutationReport, summary: SweepSummary) -> None:
    """Run every per-case invariant on ``report``, the case's ``commute_check``; count the case.

    Raises SweepFailure on the first violation, named by the check that finds it:
    ``name`` is set before each check runs, and one handler turns an error a check
    raises into ``SweepFailure(case, name, str(err))``, chained from it, while a
    SweepFailure passes the handler untouched.  The case is counted only once every
    check has passed.  Every check reads the trails, insertions and intersection
    from the report; both lemma checks on S take the report itself.  The insertions
    build their tableaux unchecked, the fused result and both ``slide_trail``
    results are checked where written, and ``left``/``right`` must equal the fused
    one.  Bump stability reads row 0 and y alone, so a pair in ``summary.stable``
    (the set ``_sweep_level`` keeps) has passed and is not checked again.
    """
    t, x, y = case.tableau, case.x, case.y
    inter = report.intersection
    name = "trail"
    try:
        for trail, inserted, after in ((report.col_trail, x, report.after_col),
                                       (report.row_trail, y, report.after_row)):
            validate_trail(trail)
            if slide_trail(t, trail, inserted).rows != after.rows:
                raise SweepFailure(case, name, f"{trail.kind} slide mismatch")
        if not report.all_equal:
            raise SweepFailure(case, "commutation", "left/right/fused disagree")
        if inter.variant == "strong":
            name = "relative_position"
            if not check_relative_position(report):
                raise SweepFailure(case, name)
            name = "trail_agreement"
            failed = trail_agreement(report)
            if failed:  # the first part of the trail-agreement lemma that does not hold
                raise SweepFailure(case, failed)
        if t.rows and (summary.stable is None or (t.rows[0], y) not in summary.stable):
            # bump stability of the first-row insertion, on both extreme modifications
            name = "modify_property"
            check_modify_property(t.rows[0], y)
            if summary.stable is not None:
                summary.stable.add((t.rows[0], y))
    except SweepFailure:
        raise
    except Exception as err:
        raise SweepFailure(case, name, str(err)) from err
    summary.variant_counts[inter.variant] += 1
    if inter.variant == "strong":
        summary.configuration_counts[inter.configuration] += 1
    summary.cases_total += 1


_stop = None  # in a pool worker, the event _shards sets once the sweep has stopped


def _watch(stop) -> None:
    """Pool initializer: keep the parent's stop event for the jobs ``_shards`` runs."""
    global _stop
    _stop = stop


def _sweep_level(n: int, shard: int = 0, num_shards: int = 1) -> SweepSummary:
    """Check all cases of the ``shard``-th of ``num_shards`` contiguous runs of tableaux of size n."""
    summary = SweepSummary()
    summary.stable = set()
    for _, cases in groupby(enumerate_cases(n, shard, num_shards), itemgetter(0)):
        if _stop is not None and _stop.is_set():  # between tableaux
            break  # nothing reads a stopped summary
        for case in cases:
            check_case(case, None, summary)
    summary.stable = None  # counts only leave the level
    return summary


def _shards(job, max_n: int, workers: int) -> Iterator:
    """``job(n, k, workers)`` for every shard k of every level n <= max_n, in order."""
    levels = [n for n in range(max_n + 1) for _ in range(workers)]
    if workers == 1:
        yield from map(job, levels, repeat(0), repeat(1))
        return
    import multiprocessing  # heavy; only this path needs it
    from concurrent.futures import ProcessPoolExecutor

    stop = multiprocessing.Event()
    with ProcessPoolExecutor(max_workers=workers, initializer=_watch, initargs=(stop,)) as pool:
        # map yields in submission order and cancels the shards not yet started once a job raises
        # or the caller stops reading; setting _stop then stops the shards already running.
        try:
            yield from pool.map(job, levels, cycle(range(workers)), repeat(workers))
        finally:
            stop.set()


def run_sweep(max_n: int, workers: int = 1, seed: object = None) -> SweepSummary:
    """Check every invariant over all cases with tableau size up to max_n.

    Raises SweepFailure on the first violation, else returns the summary: counts only, which
    depend on ``max_n`` alone.  Shard k takes the k-th of ``workers`` contiguous runs of a level's
    tableaux and shards are read in order, so the failure is the same for any ``workers``.
    Raises ValueError for a negative ``max_n`` or fewer than one worker.
    """
    # seed is ignored; it stays only because perfbench/run.py still passes one.
    if max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    total = SweepSummary()
    for part in _shards(_sweep_level, max_n, workers):
        total.merge(part)
    return total


def rsk(word: list[Label]) -> tuple[Tableau, Tableau]:
    """Insertion tableau P and recording tableau Q of a word of distinct labels.

    Schensted's bumping, one row at a time: row k takes, in order, the labels
    that row k - 1 bumped out, each carrying the step number of the letter
    whose bump it continues.  A label appended to row k ends that bump, so its
    step number goes to row k of Q.  P and Q are validated once each.
    """
    if len(set(word)) != len(word):
        raise DuplicateInWord(f"word {word} has repeated labels")
    if set(map(type, word)) != {int} or min(word) < 0:  # one pass in C for the usual word
        for v in word:
            check_label(v)  # before bisecting, which would compare mixed types
    p_rows, q_rows = [], []
    letters, steps = word, range(1, len(word) + 1)
    while letters:
        # Row k of P and of Q grow in one branch, so Q has P's shape: no check of it is needed.
        row, q_row, bumped, bumped_steps = [], [], [], []
        width = 0  # len(row), counted rather than asked for once per letter
        for v, step in zip(letters, steps):
            c = bisect_left(row, v)
            if c == width:
                row.append(v)
                q_row.append(step)
                width += 1
            else:
                bumped.append(row[c])
                bumped_steps.append(step)
                row[c] = v
        p_rows.append(row)
        q_rows.append(q_row)
        letters, steps = bumped, bumped_steps
    return Tableau(p_rows), Tableau(q_rows)
