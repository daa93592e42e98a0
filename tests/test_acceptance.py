"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` runs them as ordinary tests.
"""

import random
import sys
import time
from itertools import permutations

import pytest

from schensted import (
    Tableau,
    column_insert,
    commute_check,
    enumerate_syt,
    parse_tableau,
    render_tableau,
    row_insert,
    run_sweep,
)
from schensted.harness import check_modify_property

from conftest import (
    INVOLUTION_NUMBERS,
    WORKED_RESULT,
    WORKED_X,
    WORKED_Y,
    reversal_check,
)
from oracles import transpose

# Regression snapshot of the full n <= 8 sweep, frozen after the first
# verified run.
SNAPSHOT_N8 = {
    "cases_total": 91224,
    "variant_counts": {"disjoint": 32650, "shared_empty_box": 25924, "strong": 32650},
    "configuration_counts": {
        "JB": 14598,
        "IJB": 3886,
        "AJB": 3886,
        "IJ": 5140,
        "AB": 5140,
    },
}


def report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}", file=sys.stderr)


@pytest.fixture(scope="module")
def sweep7():
    start = time.perf_counter()
    summary = run_sweep(7)
    return summary, time.perf_counter() - start


@pytest.fixture(scope="module")
def sweep8():
    start = time.perf_counter()
    summary = run_sweep(8)
    return summary, time.perf_counter() - start


def test_criterion_1_worked_example_golden(worked):
    start = time.perf_counter()
    _, row_trail = row_insert(worked, WORKED_Y)
    _, col_trail = column_insert(WORKED_X, worked)
    cr = commute_check(worked, WORKED_X, WORKED_Y)
    elapsed = time.perf_counter() - start

    assert row_trail.labels == (9, 10, 13, 18, 19)
    assert len(row_trail.labels) == len(row_trail.boxes) - 1  # the created box has no label
    assert col_trail.labels == (11, 13, 14, 15)
    assert len(col_trail.labels) == len(col_trail.boxes) - 1
    inter = cr.intersection
    assert inter.variant == "strong"
    assert inter.s_box == (2, 1)
    assert (inter.i, inter.a, inter.s, inter.j, inter.b) == (10, 11, 13, 18, 14)
    expected = Tableau(WORKED_RESULT)
    assert cr.left == cr.right == cr.fused == expected
    assert elapsed < 0.010
    report(1, f"golden worked example reproduced bit-exactly in {elapsed * 1000:.2f} ms")


def test_criterion_2_commutation_by_exhaustion(sweep7):
    summary, elapsed = sweep7
    n7_cases = INVOLUTION_NUMBERS[7] * 36 * 2
    assert n7_cases == 16704
    assert summary.cases_total == sum(
        INVOLUTION_NUMBERS[n] * (n + 2) * (n + 1) for n in range(8)
    )
    assert sum(summary.variant_counts.values()) == summary.cases_total
    assert elapsed < 10.0
    report(
        2,
        f"commutation holds for all {summary.cases_total} cases up to n=7 "
        f"({n7_cases} at n=7) in {elapsed:.1f} s single-threaded",
    )


def test_criterion_3_lemma_suite_by_exhaustion(sweep7):
    # The sweep raises on the first weak intersection, multiple shared box,
    # sixth configuration, relative-position or below-agreement violation;
    # a clean summary therefore certifies zero violations of each.
    summary, _ = sweep7
    assert summary.part_ii_hypothesis_failures == 0
    assert set(summary.configuration_counts) == {"JB", "IJB", "AJB", "IJ", "AB"}
    assert sum(summary.configuration_counts.values()) == summary.variant_counts["strong"]
    report(3, "no lemma violation in any of the exhaustive cases up to n=7")


def test_criterion_4_configuration_coverage(sweep8):
    summary, elapsed = sweep8
    assert sum(summary.variant_counts.values()) == summary.cases_total
    assert summary.cases_total == SNAPSHOT_N8["cases_total"]
    assert summary.variant_counts == SNAPSHOT_N8["variant_counts"]
    assert summary.configuration_counts == SNAPSHOT_N8["configuration_counts"]
    assert all(v >= 1 for v in summary.variant_counts.values())
    assert all(v >= 1 for v in summary.configuration_counts.values())
    assert elapsed < 60.0
    report(
        4,
        f"all variants and all five configurations occur at n<=8; "
        f"counts match the frozen snapshot ({elapsed:.1f} s)",
    )


def test_criterion_5_bump_stability_randomized():
    rng = random.Random(20230601)
    start = time.perf_counter()
    checked = 0
    while checked < 10_000:
        size = rng.randint(1, 9)
        row = tuple(sorted(rng.sample(range(48), size)))
        x = rng.randrange(row[-1] + 1)
        if x in row:
            continue
        if check_modify_property(row, x) is not None:
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(5, f"both extremes of 10,000 random bump-stability rows passed in {elapsed:.2f} s")


def test_criterion_6_reversal_application():
    start = time.perf_counter()
    for n in range(8):
        assert reversal_check(n) is True
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(
        6,
        f"reversing a permutation transposes its insertion tableau for all "
        f"n<=7 ({elapsed:.1f} s)",
    )


def test_criterion_7_generation_cross_check():
    counts = [sum(1 for _ in enumerate_syt(n)) for n in range(9)]
    assert counts == [1, 1, 2, 4, 10, 26, 76, 232, 764]
    # Independent oracle: involutions counted by direct enumeration.
    for n in range(8):
        oracle = sum(
            1
            for p in permutations(range(n))
            if all(p[p[k]] == k for k in range(n))
        )
        assert counts[n] == oracle
    report(7, "tableau counts match 1,1,2,4,10,26,76,232,764 and the involution oracle")


def test_criterion_8_round_trip_and_duality():
    for n in range(7):
        for t in enumerate_syt(n):
            assert parse_tableau(render_tableau(t)) == t
            doubled = Tableau([[2 * v for v in row] for row in t.rows])
            for x in (0, 2 * n + 1, 1 if n else 3):
                ct_tab, ct = column_insert(x, doubled)
                rt_tab, rt = row_insert(transpose(doubled), x)
                assert ct_tab == transpose(rt_tab)
                assert ct.boxes == tuple((c, r) for r, c in rt.boxes)
                assert ct.labels == rt.labels
    report(8, "render/parse identity and row/column transpose duality hold at n<=6")
