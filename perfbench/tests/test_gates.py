import random
from itertools import combinations

import pytest

import gates
from schensted import SweepSummary, rsk


def frozen_summary():
    s = SweepSummary()
    s.cases_total = gates.SWEEP_CASES
    s.variant_counts = dict(gates.SWEEP_VARIANTS)
    s.configuration_counts = dict(gates.SWEEP_CONFIGURATIONS)
    return s


def test_case_count_follows_from_the_involution_numbers():
    assert [gates.involution_number(n) for n in range(11)] == [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496]
    assert gates.SWEEP_CASES == 22464
    assert sum(gates.SWEEP_VARIANTS.values()) == gates.SWEEP_CASES
    assert sum(gates.SWEEP_CONFIGURATIONS.values()) == gates.SWEEP_VARIANTS["strong"]


def test_sweep_gate_passes_the_frozen_counts():
    assert gates.sweep_gate(frozen_summary()) == []


@pytest.mark.parametrize(
    "corrupt",
    [("cases_total", None)]
    + [("variant_counts", k) for k in gates.SWEEP_VARIANTS]
    + [("configuration_counts", k) for k in gates.SWEEP_CONFIGURATIONS]
    + [("part_ii_hypothesis_failures", None)],
)
def test_sweep_gate_trips_on_each_corrupted_count(corrupt):
    s = frozen_summary()
    attr, key = corrupt
    if key is None:
        setattr(s, attr, getattr(s, attr) + 1)
    else:
        getattr(s, attr)[key] += 1
    assert gates.sweep_gate(s)


def brute_force_lis(word):
    return max(
        (k for k in range(len(word) + 1) for sub in combinations(word, k) if list(sub) == sorted(sub)),
        default=0,
    )


def test_patience_sorting_matches_brute_force():
    rng = random.Random(3)
    for n in range(9):
        word = rng.sample(range(20), n)
        assert gates.longest_increasing_subsequence(word) == brute_force_lis(word)


def test_greene_gate_accepts_rsk_and_trips_on_a_wrong_first_row():
    word = random.Random(4).sample(range(2, 81, 2), 40)
    p, _ = rsk(word)
    assert gates.greene_gate(word, len(p.rows[0])) == []
    assert gates.greene_gate(word, len(p.rows[0]) + 1)


def test_variant_gate_trips_when_counts_do_not_add_up():
    s = SweepSummary()
    s.cases_total = 5
    s.variant_counts.update(disjoint=2, shared_empty_box=1, strong=2)
    assert gates.variant_gate(s, 5) == []
    s.variant_counts["strong"] += 1
    assert gates.variant_gate(s, 5)
    assert gates.variant_gate(s, 6)
