"""Output checks that share no code with the library under test.

The sweep gate compares a ``run_sweep(7)`` summary with counts frozen from a
1-worker and a 2-worker run that agreed, and the total with the number of
cases derived from the involution numbers.  The random-large gate checks the
insertion tableau of each word by Greene's theorem (the first row of P is as
long as the longest increasing subsequence of the word), with the
subsequence found by patience sorting.
"""

from __future__ import annotations

from bisect import bisect_left

SWEEP_MAX_N = 7

SWEEP_VARIANTS = {"disjoint": 7884, "shared_empty_box": 6696, "strong": 7884}
SWEEP_CONFIGURATIONS = {"JB": 3694, "IJB": 888, "AJB": 888, "IJ": 1207, "AB": 1207}


def involution_number(n: int) -> int:
    """Number of standard Young tableaux with n cells: I(n) = I(n-1) + (n-1) I(n-2)."""
    prev, cur = 1, 1
    for k in range(2, n + 1):
        prev, cur = cur, cur + (k - 1) * prev
    return cur


def sweep_case_count(max_n: int) -> int:
    """Cases (T, x, y) up to size max_n: I(n) tableaux times (n+2)(n+1) ordered pairs."""
    return sum(involution_number(n) * (n + 1) * (n + 2) for n in range(max_n + 1))


SWEEP_CASES = sweep_case_count(SWEEP_MAX_N)


def sweep_gate(summary) -> list[str]:
    """Mismatches between a ``run_sweep(SWEEP_MAX_N)`` summary and the frozen counts."""
    problems = []
    if summary.cases_total != SWEEP_CASES:
        problems.append(f"cases_total={summary.cases_total}, expected {SWEEP_CASES}")
    for kind, expected in (("variant", SWEEP_VARIANTS), ("configuration", SWEEP_CONFIGURATIONS)):
        got = getattr(summary, f"{kind}_counts")
        if got != expected:
            problems.append(f"{kind} counts {got}, expected {expected}")
    if summary.part_ii_hypothesis_failures != 0:
        problems.append(f"part_ii_hypothesis_failures={summary.part_ii_hypothesis_failures}")
    return problems


def longest_increasing_subsequence(word) -> int:
    """Length of the longest strictly increasing subsequence, by patience sorting."""
    tops: list = []
    for v in word:
        k = bisect_left(tops, v)
        if k == len(tops):
            tops.append(v)
        else:
            tops[k] = v
    return len(tops)


def greene_gate(word, first_row_length: int) -> list[str]:
    lis = longest_increasing_subsequence(word)
    if first_row_length != lis:
        return [f"first row of P has {first_row_length} cells, the word's LIS is {lis}"]
    return []


def variant_gate(summary, cases: int) -> list[str]:
    """The variant counts of the checked cases must add up to their number."""
    counted = sum(summary.variant_counts.values())
    if counted != cases or summary.cases_total != cases:
        return [f"{cases} cases checked, summary counts {summary.cases_total}, variants sum to {counted}"]
    return []
