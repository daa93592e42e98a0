import random
import sys
from collections import Counter
from itertools import permutations

import pytest

from schensted import (
    DuplicateInWord,
    Tableau,
    commute_check,
    enumerate_cases,
    enumerate_syt,
    reversal_check,
    rsk,
    run_sweep,
)
from schensted.harness import INVOLUTION_NUMBERS, CaseDescriptor, SweepSummary, check_case

from conftest import WORKED_X, WORKED_Y


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
        assert summary.failures == 0

    def test_small_sweep(self):
        summary = run_sweep(4)
        assert summary.cases_total == 412
        assert summary.failures == 0
        assert summary.part_ii_hypothesis_failures == 0
        # All five configurations already occur at n <= 4.
        assert all(v >= 1 for v in summary.configuration_counts.values())

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
        assert "failures=0" in lines
        assert any(line.startswith("cases_total=") for line in lines)


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
        check_case(CaseDescriptor(worked, WORKED_X, WORKED_Y), random.Random(0), summary)
        assert summary.cases_total == 1
        assert counts == {"row_insert": 2, "column_insert": 2, "classify_intersection": 1}


class TestRsk:
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
