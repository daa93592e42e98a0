import random
from collections import Counter
from itertools import product
from types import SimpleNamespace

import pytest

from schensted import (
    ImpossibleConfiguration,
    IntersectionReport,
    MultipleSharedBoxes,
    NotAStrongIntersection,
    Tableau,
    WeakIntersectionDetected,
    check_relative_position,
    classify_intersection,
    column_insert,
    commute_check,
    enumerate_cases,
    row_insert,
)
from schensted.insertion import Trail

from conftest import WORKED_X, WORKED_Y
from oracles import POSSIBLE_ADJACENCIES, reference_outcome


def trails_of(t, x, y):
    _, col_trail = column_insert(x, t)
    _, row_trail = row_insert(t, y)
    return row_trail, col_trail


def band_trails(kind, width=4, max_steps=4):
    """Every trail of at most max_steps steps with step k in line k, on a width-wide grid."""
    for length in range(1, max_steps + 1):
        for others in product(range(width), repeat=length):
            boxes = [(k, o) if kind == "row" else (o, k) for k, o in enumerate(others)]
            # A label per box, so a box shared by both trails carries one label.
            labels = tuple(10 * r + c + 1 for r, c in boxes[:-1])
            yield Trail(kind, tuple(boxes), labels)


def random_band_trail(rng, kind, width=12, max_steps=10):
    """A trail of 1 to max_steps steps with step k in line k, drawn on a width-wide grid."""
    others = [rng.randrange(width) for _ in range(rng.randint(1, max_steps))]
    boxes = [(k, o) if kind == "row" else (o, k) for k, o in enumerate(others)]
    return Trail(kind, tuple(boxes), tuple(100 * r + c + 1 for r, c in boxes[:-1]))


class TestGeometricTrail:
    def test_single_step(self):
        trail = Trail("row", ((0, 0),), ())
        assert trail.boxes[-1] == (0, 0)

    def test_worked_example_row_trail(self, worked):
        _, trail = row_insert(worked, WORKED_Y)
        assert trail.boxes == ((0, 3), (1, 2), (2, 1), (3, 1), (4, 1), (5, 0))

    def test_worked_example_column_trail(self, worked):
        _, trail = column_insert(WORKED_X, worked)
        assert trail.boxes == ((3, 0), (2, 1), (2, 2), (1, 3), (1, 4))


class TestClassification:
    def test_disjoint(self):
        row_trail, col_trail = trails_of(Tableau([[1, 3], [2]]), 4, 5)
        report = classify_intersection(row_trail, col_trail, 4, 5)
        assert report.variant == "disjoint"

    def test_shared_empty_box_after_cascades(self):
        # Both trails end in the same new box at the end of the first row.
        row_trail, col_trail = trails_of(Tableau([[1, 3], [2]]), 0, 4)
        report = classify_intersection(row_trail, col_trail, 0, 4)
        assert report.variant == "shared_empty_box"
        assert report.s_box == (0, 2)
        assert (report.a, report.i) == (3, 4)

    def test_shared_empty_box(self):
        row_trail, col_trail = trails_of(Tableau([[2, 3]]), 1, 4)
        report = classify_intersection(row_trail, col_trail, 1, 4)
        assert report.variant == "shared_empty_box"
        assert report.s_box == (0, 2)
        assert (report.a, report.i) == (3, 4)

    def test_worked_example_strong(self, worked):
        row_trail, col_trail = trails_of(worked, WORKED_X, WORKED_Y)
        report = classify_intersection(row_trail, col_trail, WORKED_X, WORKED_Y)
        assert report.variant == "strong"
        assert report.s_box == (2, 1)
        assert (report.i, report.a, report.s, report.j, report.b) == (10, 11, 13, 18, 14)
        assert report.configuration == "JB"

    def test_strong_with_defaults(self):
        # S starts the row trail (i defaults to y) and b is the empty box.
        t = Tableau([[1, 4], [2, 5]])
        row_trail, col_trail = trails_of(t, 0, 3)
        report = classify_intersection(row_trail, col_trail, 0, 3)
        assert report.variant == "strong"
        assert report.s_box == (0, 1)
        assert (report.s, report.a, report.b) == (4, 1, None)
        assert (report.i, report.j) == (3, 5)

    def test_label_inequalities_around_s(self):
        for n in range(6):
            for case in enumerate_cases(n):
                row_trail, col_trail = trails_of(case.tableau, case.x, case.y)
                report = classify_intersection(row_trail, col_trail, case.x, case.y)
                if report.variant != "strong":
                    continue
                assert report.a < report.s
                assert report.i < report.s
                if report.b is not None:
                    assert report.s < report.b
                if report.j is not None:
                    assert report.s < report.j

    def test_weak_intersection_raises(self):
        # Hand-built crossing away from any shared box center.
        row_trail = Trail("row", ((0, 1), (1, 0)), (5,))
        col_trail = Trail("column", ((0, 0), (1, 1)), (1,))
        with pytest.raises(WeakIntersectionDetected):
            classify_intersection(row_trail, col_trail, 0, 2)

    def test_multiple_shared_boxes_raises(self):
        row_trail = Trail("row", ((0, 1), (1, 0)), (3,))
        col_trail = Trail("column", ((1, 0), (0, 1)), (7,))
        with pytest.raises(MultipleSharedBoxes):
            classify_intersection(row_trail, col_trail, 0, 1)


    def test_trails_of_the_wrong_kinds_raise(self, worked):
        row_trail, col_trail = trails_of(worked, WORKED_X, WORKED_Y)
        with pytest.raises(ValueError, match="expected a row trail and a column trail"):
            classify_intersection(col_trail, row_trail, WORKED_X, WORKED_Y)

    def test_shared_box_labeled_inconsistently_raises(self, worked):
        # S = (2, 1) is step 1 of the column trail, where 13 becomes 99.
        row_trail, col_trail = trails_of(worked, WORKED_X, WORKED_Y)
        col_trail = col_trail._replace(labels=(11, 99, 14, 15))
        with pytest.raises(MultipleSharedBoxes, match="labeled inconsistently"):
            classify_intersection(row_trail, col_trail, WORKED_X, WORKED_Y)

    def test_band_rule_violation_raises_value_error(self):
        # Step 1 of the row trail is in row 2, so its segment spans two row bands.
        row_trail = Trail("row", ((0, 1), (2, 0)), (5,))
        col_trail = Trail("column", ((3, 0), (3, 1)), (1,))
        with pytest.raises(ValueError, match="step k must lie"):
            classify_intersection(row_trail, col_trail, 0, 2)
        # Step 1 of the column trail is back in column 0.
        row_trail = Trail("row", ((0, 0),), ())
        col_trail = Trail("column", ((0, 1), (0, 0)), (4,))
        with pytest.raises(ValueError, match="step k must lie"):
            classify_intersection(row_trail, col_trail, 0, 2)

    def test_matches_rational_geometry_on_every_small_band_pair(self):
        row_trails = list(band_trails("row"))
        col_trails = list(band_trails("column"))
        assert len(row_trails) * len(col_trails) == 115_600
        seen = set()
        for row_trail in row_trails:
            for col_trail in col_trails:
                expected = reference_outcome(row_trail, col_trail)
                try:
                    report = classify_intersection(row_trail, col_trail, 0, 100)
                    actual = report.variant, report.configuration
                except (MultipleSharedBoxes, WeakIntersectionDetected, ImpossibleConfiguration) as err:
                    actual = type(err)
                assert actual == expected, (row_trail, col_trail)
                seen.add(expected)
        # The pairs reach every outcome and every configuration, so none of the checks is vacuous.
        assert seen == {
            ("disjoint", None), ("shared_empty_box", None),
            *(("strong", name) for name in POSSIBLE_ADJACENCIES.values()),
            MultipleSharedBoxes, WeakIntersectionDetected, ImpossibleConfiguration,
        }

    def test_matches_rational_geometry_on_wide_band_pairs(self):
        # The small grid above never lets a row segment jump more than 3 columns.
        rng = random.Random(0)
        weak = wide = 0
        for _ in range(20_000):
            row_trail = random_band_trail(rng, "row")
            col_trail = random_band_trail(rng, "column")
            expected = reference_outcome(row_trail, col_trail)
            try:
                report = classify_intersection(row_trail, col_trail, 0, 10_000)
                actual = report.variant, report.configuration
            except (MultipleSharedBoxes, WeakIntersectionDetected, ImpossibleConfiguration) as err:
                actual = type(err)
            assert actual == expected, (row_trail, col_trail)
            weak += expected is WeakIntersectionDetected
            cols = [c for _, c in row_trail.boxes]
            wide += any(abs(b - a) >= 4 for a, b in zip(cols, cols[1:]))
        # Most pairs have a long jump and some cross, so the crossing test is exercised.
        assert wide >= 10_000
        assert weak > 0


def reference_relative_position(row_trail, col_trail, s_box):
    """The all-pairs check that the band-rule one replaced: each box before S
    in one trail against each box after S in the other, with S found by search."""
    row_boxes, col_boxes = row_trail.boxes, col_trail.boxes
    ri, ci = row_boxes.index(s_box), col_boxes.index(s_box)
    # Each pair is (part before S, part after S, axis of the shared line).
    for before, after, axis in (
        (row_boxes[:ri], col_boxes[ci + 1 :], 1),
        (col_boxes[:ci], row_boxes[ri + 1 :], 0),
    ):
        for b1 in before:
            for b2 in after:
                if b1[axis] == b2[axis] and not b1[1 - axis] < b2[1 - axis]:
                    return False
    return True


class TestRelativePosition:
    def test_worked_example(self, worked):
        assert check_relative_position(commute_check(worked, WORKED_X, WORKED_Y)) is True

    def test_disjoint_pair_raises(self):
        with pytest.raises(NotAStrongIntersection):
            check_relative_position(commute_check(Tableau([[1, 3], [2]]), 4, 5))

    def test_shared_empty_box_raises(self):
        with pytest.raises(NotAStrongIntersection):
            check_relative_position(commute_check(Tableau([[2, 3]]), 1, 4))

    @pytest.mark.parametrize("n", range(6))
    def test_always_true_on_strong_intersections(self, n):
        for case in enumerate_cases(n):
            report = commute_check(case.tableau, case.x, case.y)
            if report.intersection.variant == "strong":
                assert check_relative_position(report)

    def test_matches_all_pairs_reference_on_every_small_band_pair(self):
        # Every box two band trails share before both their last steps, taken as S
        # whether or not classify_intersection would call the pair strong.
        col_trails = list(band_trails("column"))
        outcomes = Counter()
        for row_trail in band_trails("row"):
            for col_trail in col_trails:
                for s_box in set(row_trail.boxes[:-1]).intersection(col_trail.boxes[:-1]):
                    report = SimpleNamespace(
                        intersection=IntersectionReport("strong", s_box=s_box),
                        row_trail=row_trail,
                        col_trail=col_trail,
                    )
                    expected = reference_relative_position(row_trail, col_trail, s_box)
                    assert check_relative_position(report) == expected, (row_trail, col_trail, s_box)
                    outcomes[expected] += 1
        # Both answers occur, so the test would see a check that always says True.
        assert outcomes == {True: 38_968, False: 13_016}
