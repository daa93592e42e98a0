import functools
import multiprocessing
import pickle
import random
import sys
from collections import Counter
from concurrent import futures
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import pytest

from schensted import (
    DuplicateInWord,
    ColumnNotIncreasing,
    SweepFailure,
    Tableau,
    TableauError,
    commute_check,
    enumerate_cases,
    enumerate_syt,
    row_insert,
    rsk,
    run_sweep,
)
from schensted import fused, harness, insertion, tableau
from schensted.harness import CaseDescriptor, SweepSummary, check_case
from schensted.harness import check_report

from conftest import INVOLUTION_NUMBERS, WORKED_ROWS, WORKED_X, WORKED_Y, random_words
from conftest import reversal_check
from oracles import shape, transpose


def sweep_level_failing_at_6(n, shard, num_shards):
    """A job that returns its failure, as the oracle sweep's do: level 6 fails at once."""
    return "failed" if n == 6 else harness._sweep_level(n, shard, num_shards)


def row_insert_reversing_row_0(t, x):
    """A planted fault: row insertion whose trusted result has a decreasing first row."""
    result, trail = row_insert(t, x)
    first, *rest = result.rows
    return Tableau._trusted((first[::-1], *rest)), trail


def brute_force_involution_count(n):
    """Independent oracle: involutions of S_n counted by direct enumeration."""
    count = 0
    for p in permutations(range(n)):
        if all(p[p[k]] == k for k in range(n)):
            count += 1
    return count


FRONTIER = Path(__file__).resolve().parent.parent / "frontier"


def assert_dual_counts_agree(records):
    """disjoint = strong (evacuation duality), AB = IJ and AJB = IJB (transpose duality)."""
    counts = dict(line.split("=") for line in records if not line.startswith("checked "))  # verify's header
    for one, other in (
        ("variant.disjoint", "variant.strong"),
        ("configuration.AB", "configuration.IJ"),
        ("configuration.AJB", "configuration.IJB"),
    ):
        assert counts[one] == counts[other], (one, other, counts)


class TestEnumerateSyt:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            next(enumerate_syt(-1))

    @pytest.mark.parametrize("n,count", list(enumerate(INVOLUTION_NUMBERS[:9])))
    def test_counts_match_frozen_sequence(self, n, count):
        assert sum(1 for _ in enumerate_syt(n)) == count

    @pytest.mark.parametrize("n", range(8))
    def test_counts_match_brute_force_oracle(self, n):
        assert sum(1 for _ in enumerate_syt(n)) == brute_force_involution_count(n)

    def test_all_distinct_and_standard(self):
        for n in range(7):
            seen = set()
            for t in enumerate_syt(n):
                assert sorted(t.labels) == list(range(1, n + 1))
                assert t not in seen
                seen.add(t)


class TestEnumerateCases:
    def test_n0(self):
        cases = list(enumerate_cases(0))
        assert len(cases) == 2
        assert {(c.x, c.y) for c in cases} == {(1, 2), (2, 1)}

    @pytest.mark.parametrize("n", range(6))
    def test_counts(self, n):
        syt = INVOLUTION_NUMBERS[n]
        pairs = (n + 2) * (n + 1) // 2
        assert sum(1 for _ in enumerate_cases(n)) == syt * pairs * 2

    @pytest.mark.parametrize("n", range(7))
    def test_every_order_type_once(self, n):
        # Standardise each case by ranking all n + 2 labels: distinct results,
        # as many as there are order types of (T, x, y), cover every one.
        standardised = set()
        for case in enumerate_cases(n):
            labels = sorted([*case.tableau.labels, case.x, case.y])
            rank = {v: k for k, v in enumerate(labels, 1)}
            rows = tuple(tuple(rank[v] for v in row) for row in case.tableau.rows)
            standardised.add((rows, rank[case.x], rank[case.y]))
        assert len(standardised) == brute_force_involution_count(n) * (n + 1) * (n + 2)
        assert len(standardised) == sum(1 for _ in enumerate_cases(n))

    @pytest.mark.parametrize("n", range(7))
    def test_one_validation_per_tableau(self, n, monkeypatch):
        calls = []
        original = tableau._validate
        monkeypatch.setattr(tableau, "_validate", lambda rows: calls.append(rows) or original(rows))
        list(enumerate_cases(n))
        assert len(calls) == brute_force_involution_count(n)

    @pytest.mark.parametrize("n", range(7))
    def test_a_shard_relabels_only_its_own_tableaux(self, n, monkeypatch):
        whole, m = list(enumerate_cases(n)), (n + 1) * (n + 2)  # m cases per tableau
        blocks = [whole[k : k + m] for k in range(0, len(whole), m)]
        calls = []
        original = tableau._validate
        monkeypatch.setattr(tableau, "_validate", lambda rows: calls.append(rows) or original(rows))
        for num_shards in (2, 3):
            for shard in range(num_shards):
                calls.clear()
                owned = blocks[shard * len(blocks) // num_shards : (shard + 1) * len(blocks) // num_shards]
                assert list(enumerate_cases(n, shard, num_shards)) == [c for b in owned for c in b]
                assert len(calls) == len(owned)

    @pytest.mark.parametrize("n", range(5))
    def test_case_invariants(self, n):
        for case in enumerate_cases(n):
            assert case.x != case.y
            assert case.x not in case.tableau
            assert case.y not in case.tableau
            assert len(case.tableau.labels) == n


class TestRunSweep:
    def test_n0(self):
        summary = run_sweep(0)
        assert summary.cases_total == 2
        assert sum(summary.variant_counts.values()) == 2

    def test_small_sweep(self):
        summary = run_sweep(4)
        assert summary.cases_total == 412
        assert sum(summary.variant_counts.values()) == 412
        assert summary.part_ii_hypothesis_failures == 0
        # All five configurations already occur at n <= 4.
        assert all(v >= 1 for v in summary.configuration_counts.values())

    @pytest.mark.parametrize("max_n,workers", [(4, 1), (3, 2)])
    def test_draws_no_random_number(self, max_n, workers, monkeypatch):
        def no_random(*args):
            raise AssertionError("the sweep seeded a random number generator")

        monkeypatch.setattr(random, "Random", no_random)  # inherited by forked workers
        fork_pool = functools.partial(
            futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")
        )
        monkeypatch.setattr(futures, "ProcessPoolExecutor", fork_pool)
        summary = run_sweep(max_n, workers=workers)
        assert summary.cases_total == sum(
            INVOLUTION_NUMBERS[n] * (n + 1) * (n + 2) for n in range(max_n + 1)
        )

    def test_worker_count_does_not_change_results(self):
        single = run_sweep(3, workers=1)
        multi = run_sweep(3, workers=2)
        assert single.cases_total == multi.cases_total
        assert single.variant_counts == multi.variant_counts
        assert single.configuration_counts == multi.configuration_counts

    @pytest.mark.parametrize("max_n", range(5))
    def test_the_summary_does_not_depend_on_the_worker_count(self, max_n):
        assert run_sweep(max_n, workers=1) == run_sweep(max_n, workers=2)

    def test_a_shard_owns_whole_tableaux(self):
        # Summaries hold counts only, so == compares every count.
        for n in range(7):
            whole = harness._sweep_level(n)
            for num_shards in (2, 3):
                merged = SweepSummary()
                for shard in range(num_shards):
                    part = harness._sweep_level(n, shard, num_shards)
                    assert part.cases_total % ((n + 1) * (n + 2)) == 0, (n, shard, num_shards)
                    merged.merge(part)
                assert merged == whole, (n, num_shards)

    # The per-case duality tests in test_fused.py explain these equalities, so they may be asserted.
    @pytest.mark.parametrize("n", range(8))
    def test_each_level_counts_dual_cases_alike(self, n):
        assert_dual_counts_agree(harness._sweep_level(n).records())

    @pytest.mark.parametrize("max_n", [9, 10, 11, 12])
    def test_the_frozen_frontier_counts_dual_cases_alike(self, max_n):
        assert_dual_counts_agree((FRONTIER / f"verify-n{max_n}.txt").read_text().splitlines())

    @pytest.mark.parametrize("max_n,workers", [(-1, 1), (2, 0), (2, -2)])
    def test_bad_arguments_rejected(self, max_n, workers):
        with pytest.raises(ValueError):
            run_sweep(max_n, workers=workers)

    def test_records_are_stable_lines(self):
        lines = run_sweep(2).records()
        assert [line.split("=")[0] for line in lines] == [
            "cases_total",
            "variant.disjoint",
            "variant.shared_empty_box",
            "variant.strong",
            "configuration.AB",
            "configuration.AJB",
            "configuration.IJ",
            "configuration.IJB",
            "configuration.JB",
        ]


class TestCheckCase:
    def test_one_analysis_per_case(self, worked, monkeypatch):
        # Two insertions of each kind and one classification are all a case needs.
        # Every insertion runs insertion._grow once; the public one of each kind
        # checks its value first, and the two compositions call _grow unchecked.
        counts = Counter()
        modules = [m for name, m in sys.modules.items() if name.startswith("schensted")]
        for name in ("row_insert", "column_insert", "_grow", "classify_intersection"):
            original = getattr(insertion, name, None) or getattr(sys.modules["schensted"], name)

            def counting(*args, _name=name, _original=original):
                counts[(_name, args[2]) if _name == "_grow" else _name] += 1
                return _original(*args)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        summary = SweepSummary()
        check_case(CaseDescriptor(worked, WORKED_X, WORKED_Y), None, summary)
        assert summary.cases_total == 1
        assert counts == {
            ("_grow", "row"): 2, ("_grow", "column"): 2,
            "row_insert": 1, "column_insert": 1, "classify_intersection": 1,
        }

    def test_one_label_index_per_tableau(self, worked, monkeypatch):
        # Only the case's tableau forms a label index, from its rows, once.  The four
        # insertions x→T, T←y, left and right form none.
        values = [0, WORKED_X, WORKED_Y, 20, 21]  # a value in every gap of the labels 1..19
        assert not any(v in row for row in WORKED_ROWS for v in values)
        formed = []  # every tableau that formed its index
        form = Tableau.labels.func
        monkeypatch.setattr(Tableau.labels, "func", lambda t: formed.append(t) or form(t))
        made = []  # every insertion result
        grow = insertion._grow

        def spy(t, x, kind):
            result, trail = grow(t, x, kind)
            made.append(result)
            return result, trail

        monkeypatch.setattr(insertion, "_grow", spy)
        monkeypatch.setattr(fused, "_grow", spy)
        reports = []
        analyse = harness.commute_check
        monkeypatch.setattr(harness, "commute_check", lambda *args: reports.append(analyse(*args)) or reports[-1])
        pairs = list(permutations(values, 2))
        for x, y in pairs:
            check_case(CaseDescriptor(worked, x, y), None, SweepSummary())
        assert len(formed) == 1 and formed[0] is worked
        inserted = {id(t) for r in reports for t in (r.after_col, r.after_row, r.left, r.right)}
        assert {id(t) for t in made} == inserted and len(made) == 4 * len(reports) == 80
        assert not [t for t in made if "labels" in vars(t)]

    def test_three_validations_per_case(self, worked, monkeypatch):
        # The fused result and the two slide_trail reconstructions, each checked
        # locally; the insertions build their tableaux unchecked, and no full
        # validation runs.  (The sweep also validates each relabelled tableau,
        # shared by the two orders of x and y.)
        full, local = [], []
        original_full, original_local = tableau._validate, insertion._apply_placements
        monkeypatch.setattr(tableau, "_validate", lambda rows: full.append(rows) or original_full(rows))

        def counted(*args):
            local.append(args)
            return original_local(*args)

        monkeypatch.setattr(insertion, "_apply_placements", counted)
        monkeypatch.setattr(fused, "_apply_placements", counted)
        check_case(CaseDescriptor(worked, WORKED_X, WORKED_Y), None, SweepSummary())
        assert (len(full), len(local)) == (0, 3)

    def test_an_error_of_the_analysis_is_a_commutation_failure(self, worked):
        case = CaseDescriptor(worked, 13, WORKED_Y)  # 13 is in the tableau
        with pytest.raises(SweepFailure) as exc:
            check_case(case, None, SweepSummary())
        assert exc.value.invariant == "commutation" and exc.value.case == case
        assert isinstance(exc.value.__cause__, insertion.XAlreadyPresent)

    def test_planted_fault_in_row_insert_is_caught(self, worked, monkeypatch):
        monkeypatch.setattr(fused, "row_insert", row_insert_reversing_row_0)
        with pytest.raises(SweepFailure):
            check_case(CaseDescriptor(worked, WORKED_X, WORKED_Y), None, SweepSummary())


def shift_left_row_label(report, k, delta):
    """The report with label k of the row trail of (x→T)←y moved by ``delta``."""
    labels = list(report.left_row_trail.labels)
    labels[k] += delta
    return report._replace(left_row_trail=report.left_row_trail._replace(labels=tuple(labels)))


class TestCheckReport:
    # check_report checks the report it is given: one that does not fit its case fails,
    # and the case's own report is counted as check_case counts the case.
    CASE = CaseDescriptor(Tableau(WORKED_ROWS), WORKED_X, WORKED_Y)

    def test_counts_the_case_as_check_case_does(self):
        by_case, by_report = SweepSummary(), SweepSummary()
        check_case(self.CASE, None, by_case)
        check_report(self.CASE, commute_check(*self.CASE), by_report)
        assert by_report == by_case and by_report.cases_total == 1

    @pytest.mark.parametrize(
        "tamper,invariant,detail,cause",
        [
            (lambda r: r._replace(after_row=r.after_col), "trail", "row slide mismatch", None),
            (lambda r: r._replace(after_col=r.after_row), "trail", "column slide mismatch", None),
            (
                lambda r: r._replace(row_trail=r.col_trail, col_trail=r.row_trail),
                "trail", "row slide mismatch", None,
            ),
            # validate_trail raises on the column trail, checked first.
            (
                lambda r: r._replace(col_trail=r.col_trail._replace(labels=r.col_trail.labels[::-1])),
                "trail", "trail labels must strictly increase", insertion.TrailInvariantViolation,
            ),
            # Labels 0 < 10 < 13 ... still increase, so validate_trail passes and slide_trail raises:
            # T holds 9 at (0, 3).
            (
                lambda r: r._replace(row_trail=r.row_trail._replace(labels=(0,) + r.row_trail.labels[1:])),
                "trail", "box (0, 3) does not hold label 0", insertion.TrailInconsistentWithTableau,
            ),
            (lambda r: r._replace(all_equal=False), "commutation", "left/right/fused disagree", None),
            (lambda r: shift_left_row_label(r, 0, -1), "trail_agreement_below", "", None),
            # S is in row 2, so label 3 is the first above it: the part-II premise.
            (lambda r: shift_left_row_label(r, 3, +1), "part_ii_hypothesis", "", None),
            (lambda r: shift_left_row_label(r, 4, +1), "trail_agreement_above", "", None),
        ],
        ids=[
            "row-result", "column-result", "trails-swapped", "column-labels-reversed",
            "row-label-not-in-tableau", "unequal", "below-s", "first-above-s", "above-s",
        ],
    )
    def test_a_report_that_does_not_fit_its_case_fails(self, tamper, invariant, detail, cause):
        # A SweepFailure a check raises is not wrapped again: its detail stays its own.
        report = commute_check(*self.CASE)
        summary = SweepSummary()
        with pytest.raises(SweepFailure) as exc:
            check_report(self.CASE, tamper(report), summary)
        assert exc.value.invariant == invariant and exc.value.case == self.CASE
        assert exc.value.detail == detail
        if cause is None:
            assert exc.value.__cause__ is None
        else:  # the check's own error, chained
            assert type(exc.value.__cause__) is cause and str(exc.value.__cause__) == detail
        assert summary.cases_total == 0
        assert summary == SweepSummary()  # a failed case is not counted


class TestSweepFailure:
    CASE = CaseDescriptor(Tableau([[1, 3], [2]]), 4, 5)

    def test_pickle_round_trip(self):
        err = pickle.loads(pickle.dumps(SweepFailure(self.CASE, "trail", "x")))
        assert (err.case, err.invariant, err.detail) == (self.CASE, "trail", "x")
        assert str(err) == str(SweepFailure(self.CASE, "trail", "x"))

    def test_failure_in_pool_worker_reaches_the_caller(self, monkeypatch):
        def failing(case, rng, summary):
            raise SweepFailure(case, "planted", "in a worker")

        monkeypatch.setattr(harness, "check_case", failing)  # inherited by forked workers
        fork_pool = functools.partial(
            futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")
        )
        monkeypatch.setattr(futures, "ProcessPoolExecutor", fork_pool)
        with pytest.raises(SweepFailure) as exc:
            run_sweep(2, workers=2)
        assert exc.value.invariant == "planted" and exc.value.detail == "in a worker"

    @staticmethod
    def sweep_failing_at(size, marker, monkeypatch):
        """run_sweep(8) on 2 forked workers, every case of ``size`` failing; level 8 touches ``marker``."""
        real = harness.check_case

        def failing(case, rng, summary):
            n = len(case.tableau.labels)
            if n == size:
                raise SweepFailure(case, "planted", f"at n = {size}")
            if n == 8:
                marker.touch()
                return
            real(case, rng, summary)

        monkeypatch.setattr(harness, "check_case", failing)  # inherited by forked workers
        fork_pool = functools.partial(
            futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")
        )
        monkeypatch.setattr(futures, "ProcessPoolExecutor", fork_pool)
        with pytest.raises(SweepFailure) as exc:
            run_sweep(8, workers=2)
        return exc.value

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_failure_reported_does_not_depend_on_the_worker_count(self, workers, monkeypatch):
        tableaux = [case.tableau for case in enumerate_cases(5)][:: 6 * 7]  # 42 cases each
        # Taken by stride, the 5th would be in shard 0 of 2, which is read before shard 1 and the 2nd.
        planted = {tableaux[1], tableaux[4]}
        real = harness.check_case

        def failing(case, rng, summary):
            if case.tableau in planted:
                raise SweepFailure(case, "planted")
            real(case, rng, summary)

        monkeypatch.setattr(harness, "check_case", failing)  # inherited by forked workers
        fork_pool = functools.partial(
            futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")
        )
        monkeypatch.setattr(futures, "ProcessPoolExecutor", fork_pool)
        with pytest.raises(SweepFailure) as exc:
            run_sweep(6, workers=workers)
        assert exc.value.case.tableau == tableaux[1] == Tableau([[3, 6, 9, 12], [15]])

    def test_pool_stops_at_the_first_failure(self, tmp_path, monkeypatch):
        marker = tmp_path / "level-8-started"
        assert self.sweep_failing_at(1, marker, monkeypatch).detail == "at n = 1"
        assert not marker.exists()

    def test_running_shards_stop_after_a_failure(self, tmp_path, monkeypatch):
        # Levels 7 and 8 reach the workers before the level-6 failure reaches the caller:
        # cancelling queued tasks cannot stop them, the stop event must.
        marker = tmp_path / "level-8-started"
        assert self.sweep_failing_at(6, marker, monkeypatch).detail == "at n = 6"
        assert not marker.exists()

    def test_running_shards_stop_when_the_caller_stops_reading(self, tmp_path, monkeypatch):
        # No job raises here: the caller reads a failure and stops, as the oracle sweep does.
        marker = tmp_path / "level-8-started"
        real = harness.check_case

        def marking(case, rng, summary):
            if len(case.tableau.labels) == 8:
                marker.touch()
            real(case, rng, summary)

        monkeypatch.setattr(harness, "check_case", marking)  # inherited by forked workers
        fork_pool = functools.partial(
            futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")
        )
        monkeypatch.setattr(futures, "ProcessPoolExecutor", fork_pool)
        shards = harness._shards(sweep_level_failing_at_6, 8, 2)
        passed = 0
        for part in shards:
            if part == "failed":
                break
            passed += part.cases_total
        shards.close()
        assert passed == sum(INVOLUTION_NUMBERS[n] * (n + 1) * (n + 2) for n in range(6))
        assert not marker.exists()


class TestBumpStabilityMemo:
    # Bump stability reads row 0 and y alone: a level shard checks each such pair once,
    # a caller outside the sweep checks every case.

    @staticmethod
    def count_checks(monkeypatch):
        calls = []
        real = harness.check_modify_property
        monkeypatch.setattr(harness, "check_modify_property", lambda *args: calls.append(args) or real(*args))
        return calls

    def test_the_sweep_checks_each_pair_once_per_level(self, monkeypatch):
        calls = self.count_checks(monkeypatch)
        summary = run_sweep(4)
        # 2^(n-1) first rows times 2(n+1) values of y at level n >= 1; level 0 has no row.
        per_level = [len({(c.tableau.rows[0], c.y) for c in enumerate_cases(n) if c.tableau.rows}) for n in range(5)]
        assert per_level == [0, 4, 12, 32, 80]
        assert len(calls) == sum(per_level) == 128
        assert summary.cases_total == 412  # every case is still counted

    def test_check_case_alone_checks_every_case(self, monkeypatch):
        calls = self.count_checks(monkeypatch)
        summary = SweepSummary()
        cases = list(enumerate_cases(3))
        for case in cases:
            check_case(case, None, summary)
        assert calls == [(case.tableau.rows[0], case.y) for case in cases]
        assert len(calls) == summary.cases_total == 80

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_pair_is_reported_at_its_first_case(self, workers, monkeypatch):
        pair = ((3, 9), 19)  # row 0 of six tableaux of level 6, all in shard 1 of 2
        carriers = [case for case in enumerate_cases(6) if (case.tableau.rows[0], case.y) == pair]
        assert len({case.tableau for case in carriers}) == 6
        real = harness.check_modify_property

        def planted(row, y):
            if (row, y) == pair:
                raise AssertionError("planted")
            return real(row, y)

        monkeypatch.setattr(harness, "check_modify_property", planted)  # inherited by forked workers
        fork_pool = functools.partial(
            futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")
        )
        monkeypatch.setattr(futures, "ProcessPoolExecutor", fork_pool)
        with pytest.raises(SweepFailure) as exc:
            run_sweep(6, workers=workers)
        assert (exc.value.invariant, exc.value.detail) == ("modify_property", "planted")
        # The sixth case of its tableau: x = 1 is the first x that comes with y = 19.
        assert exc.value.case == carriers[0] == CaseDescriptor(Tableau([[3, 9], [6, 12], [15, 18]]), 1, 19)

    def test_a_level_returns_no_memo(self, monkeypatch):
        seen = []
        real = harness.check_case
        monkeypatch.setattr(harness, "check_case", lambda case, rng, s: seen.append(s.stable) or real(case, rng, s))
        parts = [harness._sweep_level(4), harness._sweep_level(4, 1, 2)]
        assert all(type(memo) is set for memo in seen) and len(seen) == 300 + 150
        assert [part.stable for part in parts] == [None, None]
        monkeypatch.setattr(harness, "_stop", SimpleNamespace(is_set=lambda: True))
        assert harness._sweep_level(4).stable is None  # a stopped level too


def patience_piles(word):
    """Patience sorting: each value goes on the leftmost pile whose top exceeds it."""
    tops = []
    for v in word:
        k = next((k for k, top in enumerate(tops) if top > v), len(tops))
        tops[k : k + 1] = [v]
    return len(tops)  # the length of the longest increasing subsequence


class TestRsk:
    def test_p_and_q_each_validated_once_per_word(self, monkeypatch):
        calls = []
        original = tableau._validate
        monkeypatch.setattr(tableau, "_validate", lambda rows: calls.append(rows) or original(rows))
        for word in ([], [3, 1, 2], [5, 2, 7, 1, 3, 8, 6, 4]):
            calls.clear()
            p, q = rsk(word)
            assert calls == [p.rows, q.rows]

    def test_empty_word(self):
        assert rsk([]) == (Tableau(), Tableau())

    def test_increasing_word(self):
        p, q = rsk([1, 2, 3])
        assert p == Tableau([[1, 2, 3]])
        assert q == Tableau([[1, 2, 3]])

    def test_bumping_word(self):
        p, q = rsk([3, 1, 2])
        assert p == Tableau([[1, 2], [3]])
        assert q == Tableau([[1, 3], [2]])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateInWord):
            rsk([1, 2, 1])

    @pytest.mark.parametrize("word", [[1, "a"], [-1], [True], [1.5, 2]], ids=repr)
    def test_non_natural_label_rejected(self, word):
        with pytest.raises(TableauError):
            rsk(word)

    def test_insertion_tableau_validated(self, monkeypatch):
        # A planted fault: every letter bisects to column 0, so 2 bumps 1 up into row 1.
        monkeypatch.setattr(harness, "bisect_left", lambda row, v: 0)
        with pytest.raises(ColumnNotIncreasing) as exc:
            rsk([1, 2])  # P = ((2,), (1,)); the recording tableau Q = ((1,), (2,)) is valid
        assert exc.value.box == (1, 0)

    @pytest.mark.parametrize(
        "words",
        [pytest.param(functools.partial(permutations, range(1, n + 1)), id=str(n)) for n in range(8)]
        + [
            pytest.param(functools.partial(random_words, seed), id=f"rsk-300-cells-seed-{seed}")
            for seed in (1, 2, 3)
        ],
    )
    def test_matches_row_insertion_one_value_at_a_time(self, words):
        for w in words():
            p, q_rows = Tableau(), []
            for step_index, v in enumerate(w, 1):
                p, trail = row_insert(p, v)
                r = trail.boxes[-1][0]
                if r == len(q_rows):
                    q_rows.append([])
                q_rows[r].append(step_index)
            assert rsk(list(w)) == (p, Tableau(q_rows))

    @pytest.mark.parametrize(
        "words",
        [pytest.param(functools.partial(permutations, range(1, n + 1)), id=str(n)) for n in range(8)]
        + [
            pytest.param(functools.partial(random_words, seed), id=f"rsk-300-cells-seed-{seed}")
            for seed in range(20)
        ],
    )
    def test_greene_shape(self, words):
        # Schensted (1961), Greene (1974): the first row of P is as long as the longest
        # increasing subsequence of the word, and P has as many rows as its longest
        # decreasing one.  Patience sorting counts both without bumping.
        for w in words():
            p, _ = rsk(list(w))
            assert (len(p.rows[0]) if p.rows else 0) == patience_piles(w)
            assert len(p.rows) == patience_piles([-v for v in w])

    @pytest.mark.parametrize("n", range(6))
    def test_shapes_agree_and_q_is_standard(self, n):
        for w in permutations(range(1, n + 1)):
            p, q = rsk(list(w))
            assert shape(p) == shape(q)
            assert sorted(p.labels) == sorted(w)
            assert sorted(q.labels) == list(range(1, n + 1))


class TestReversal:
    def test_trivial_sizes(self):
        assert reversal_check(0) is True
        assert reversal_check(1) is True

    def test_hand_run(self):
        p, _ = rsk([3, 1, 2])
        p_rev, _ = rsk([2, 1, 3])
        assert p == Tableau([[1, 2], [3]])
        assert p_rev == Tableau([[1, 3], [2]])
        assert p_rev == transpose(p)

    @pytest.mark.parametrize("n", range(6))
    def test_exhaustive(self, n):
        assert reversal_check(n) is True


class TestRelabelingInvariance:
    def test_commutation_commutes_with_relabeling(self):
        rng = random.Random(7)
        cases = [c for n in range(5) for c in enumerate_cases(n)]
        for case in rng.sample(cases, 60):
            values = sorted([*case.tableau.labels, case.x, case.y])
            offsets = [rng.randint(0, 3) for _ in values]
            image = {}
            shift = 0
            for v, off in zip(values, offsets):
                shift += off
                image[v] = v + shift
            relabeled = Tableau([[image[v] for v in row] for row in case.tableau.rows])
            before = commute_check(case.tableau, case.x, case.y)
            after = commute_check(relabeled, image[case.x], image[case.y])
            assert after.all_equal == before.all_equal
            assert after.intersection.variant == before.intersection.variant
            assert after.intersection.configuration == before.intersection.configuration
            expected = Tableau([[image[v] for v in row] for row in before.left.rows])
            assert after.left == expected
