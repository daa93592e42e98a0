import functools
import multiprocessing
import pickle
import random
import sys
from collections import Counter
from concurrent import futures
from itertools import permutations

import pytest

from schensted import (
    DuplicateInWord,
    InvariantViolation,
    RowNotIncreasing,
    SweepFailure,
    Tableau,
    TableauError,
    commute_check,
    enumerate_cases,
    enumerate_syt,
    reversal_check,
    row_insert,
    rsk,
    run_sweep,
)
from schensted import fused, harness, insertion, tableau
from schensted.harness import INVOLUTION_NUMBERS, CaseDescriptor, SweepSummary, check_case
from schensted.insertion import _bump

from conftest import WORKED_X, WORKED_Y, random_words


def row_insert_reversing_row_0(t, x):
    """A planted fault: row insertion whose trusted result has a decreasing first row."""
    result, trail = row_insert(t, x)
    first, *rest = result.rows
    return Tableau._trusted((first[::-1], *rest)), trail


def bump_reversing_row_0(rows, x, by_column=False):
    """A planted fault: a bump that leaves the first row of the row list decreasing."""
    steps = _bump(rows, x, by_column)
    rows[0] = rows[0][::-1]
    return steps


def bump_reporting_the_box_rows_up_at(step, rows_up=1):
    """A planted fault: a bump whose ``step``-th call reports its created box ``rows_up`` rows up."""
    calls = []

    def bump(rows, x, by_column=False):
        boxes, labels = _bump(rows, x, by_column)
        calls.append(x)
        if len(calls) == step:
            r, c = boxes[-1]
            boxes[-1] = (r + rows_up, c)
        return boxes, labels

    return bump


def brute_force_involution_count(n):
    """Independent oracle: involutions of S_n counted by direct enumeration."""
    count = 0
    for p in permutations(range(n)):
        if all(p[p[k]] == k for k in range(n)):
            count += 1
    return count


class TestEnumerateSyt:
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
                assert t.entries() == tuple(range(1, n + 1))
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
            labels = sorted([*case.tableau.entries(), case.x, case.y])
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

    @pytest.mark.parametrize("n", range(5))
    def test_case_invariants(self, n):
        for case in enumerate_cases(n):
            assert case.x != case.y
            assert case.x not in case.tableau
            assert case.y not in case.tableau
            assert case.tableau.size == n


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
            "part_ii_hypothesis_failures",
            "elapsed_seconds",
        ]


class TestCheckCase:
    def test_one_analysis_per_case(self, worked, monkeypatch):
        # Two insertions of each kind and one classification are all a case needs.
        counts = Counter()
        modules = [m for name, m in sys.modules.items() if name.startswith("schensted")]
        for name in ("row_insert", "column_insert", "classify_intersection"):
            original = getattr(sys.modules["schensted"], name)

            def counting(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        summary = SweepSummary()
        check_case(CaseDescriptor(worked, WORKED_X, WORKED_Y), None, summary)
        assert summary.cases_total == 1
        assert counts == {"row_insert": 2, "column_insert": 2, "classify_intersection": 1}

    def test_three_validations_per_case(self, worked, monkeypatch):
        # The fused result and the two slide_trail reconstructions, each checked
        # locally; the insertions build their tableaux unchecked, and no full
        # validation runs.  (The sweep also validates each relabelled tableau,
        # shared by the two orders of x and y.)
        full, local = [], []
        original_full, original_local = tableau._validate, tableau._check_writes
        monkeypatch.setattr(tableau, "_validate", lambda rows: full.append(rows) or original_full(rows))
        monkeypatch.setattr(
            insertion, "_check_writes", lambda *args: local.append(args) or original_local(*args)
        )
        check_case(CaseDescriptor(worked, WORKED_X, WORKED_Y), None, SweepSummary())
        assert (len(full), len(local)) == (0, 3)

    def test_planted_fault_in_row_insert_is_caught(self, worked, monkeypatch):
        monkeypatch.setattr(fused, "row_insert", row_insert_reversing_row_0)
        with pytest.raises(SweepFailure):
            check_case(CaseDescriptor(worked, WORKED_X, WORKED_Y), None, SweepSummary())


class TestSweepFailure:
    CASE = CaseDescriptor(Tableau.from_rows([[1, 3], [2]]), 4, 5)

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

    def test_pool_stops_at_the_first_failure(self, tmp_path, monkeypatch):
        marker = tmp_path / "level-8-started"
        real = harness.check_case

        def failing_at_1(case, rng, summary):
            size = case.tableau.size
            if size == 1:
                raise SweepFailure(case, "planted", "at n = 1")
            if size == 8:
                marker.touch()
                return
            real(case, rng, summary)

        monkeypatch.setattr(harness, "check_case", failing_at_1)  # inherited by forked workers
        fork_pool = functools.partial(
            futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")
        )
        monkeypatch.setattr(futures, "ProcessPoolExecutor", fork_pool)
        with pytest.raises(SweepFailure) as exc:
            run_sweep(8, workers=2)
        assert exc.value.detail == "at n = 1"
        assert not marker.exists()


class TestRsk:
    def test_insertion_tableau_validated_once_per_word(self, monkeypatch):
        monkeypatch.setattr(harness, "_bump", bump_reversing_row_0)
        with pytest.raises(RowNotIncreasing):
            rsk([1, 2])  # P = ((2, 1),); the recording tableau Q = ((1, 2),) is valid

    def test_empty_word(self):
        assert rsk([]) == (Tableau(), Tableau())

    def test_increasing_word(self):
        p, q = rsk([1, 2, 3])
        assert p == Tableau.from_rows([[1, 2, 3]])
        assert q == Tableau.from_rows([[1, 2, 3]])

    def test_bumping_word(self):
        p, q = rsk([3, 1, 2])
        assert p == Tableau.from_rows([[1, 2], [3]])
        assert q == Tableau.from_rows([[1, 3], [2]])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateInWord):
            rsk([1, 2, 1])

    @pytest.mark.parametrize("word", [[1, "a"], [-1], [True], [1.5, 2]], ids=repr)
    def test_non_natural_label_rejected(self, word):
        with pytest.raises(TableauError):
            rsk(word)

    def test_recording_tableau_validated(self, monkeypatch):
        monkeypatch.setattr(harness, "_bump", bump_reporting_the_box_rows_up_at(3))
        with pytest.raises(TableauError):
            rsk([2, 1, 3])  # Q = ((1,), (2, 3)): the third box is reported at (1, 1), not (0, 1)

    def test_recording_shape_compared_with_insertion_shape(self, monkeypatch):
        monkeypatch.setattr(harness, "_bump", bump_reporting_the_box_rows_up_at(2))
        with pytest.raises(InvariantViolation):
            rsk([1, 2])  # P = ((1, 2),), and the valid Q = ((1,), (2,)) has another shape

    @pytest.mark.parametrize("word", [[1], [1, 2], [2, 1]])
    def test_box_past_the_last_row_rejected(self, word, monkeypatch):
        monkeypatch.setattr(harness, "_bump", bump_reporting_the_box_rows_up_at(len(word), rows_up=2))
        with pytest.raises(InvariantViolation):
            rsk(word)

    @pytest.mark.parametrize(
        "words",
        [pytest.param(functools.partial(permutations, range(1, n + 1)), id=str(n)) for n in range(7)]
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
                r = trail.created_box[0]
                if r == len(q_rows):
                    q_rows.append([])
                q_rows[r].append(step_index)
            assert rsk(list(w)) == (p, Tableau.from_rows(q_rows))

    @pytest.mark.parametrize("n", range(6))
    def test_shapes_agree_and_q_is_standard(self, n):
        for w in permutations(range(1, n + 1)):
            p, q = rsk(list(w))
            assert p.shape == q.shape
            assert p.entries() == tuple(sorted(w))
            assert q.entries() == tuple(range(1, n + 1))


class TestReversal:
    def test_trivial_sizes(self):
        assert reversal_check(0) is True
        assert reversal_check(1) is True

    def test_hand_run(self):
        p, _ = rsk([3, 1, 2])
        p_rev, _ = rsk([2, 1, 3])
        assert p == Tableau.from_rows([[1, 2], [3]])
        assert p_rev == Tableau.from_rows([[1, 3], [2]])
        assert p_rev == p.transpose()

    @pytest.mark.parametrize("n", range(6))
    def test_exhaustive(self, n):
        assert reversal_check(n) is True


class TestRelabelingInvariance:
    def test_commutation_commutes_with_relabeling(self):
        rng = random.Random(7)
        cases = [c for n in range(5) for c in enumerate_cases(n)]
        for case in rng.sample(cases, 60):
            values = sorted(case.tableau.entries() + (case.x, case.y))
            offsets = [rng.randint(0, 3) for _ in values]
            image = {}
            shift = 0
            for v, off in zip(values, offsets):
                shift += off
                image[v] = v + shift
            relabeled = Tableau.from_rows(
                [[image[v] for v in row] for row in case.tableau.rows]
            )
            before = commute_check(case.tableau, case.x, case.y)
            after = commute_check(relabeled, image[case.x], image[case.y])
            assert after.all_equal == before.all_equal
            assert after.intersection.variant == before.intersection.variant
            assert after.intersection.configuration == before.intersection.configuration
            expected = Tableau.from_rows(
                [[image[v] for v in row] for row in before.left.rows]
            )
            assert after.left == expected
