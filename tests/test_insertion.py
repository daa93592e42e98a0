import random
import re
from functools import partial
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schensted import (
    DuplicateLabel,
    RowNotIncreasing,
    Tableau,
    TableauError,
    TrailInconsistentWithTableau,
    TrailInvariantViolation,
    XAlreadyPresent,
    column_insert,
    commute_check,
    enumerate_cases,
    row_insert,
    rsk,
    slide_trail,
    validate_trail,
)
from schensted import fused, harness
from schensted.harness import check_modify_property
from schensted.insertion import Trail, _apply_placements, _bump, _trail_placements

from conftest import WORKED_COL_TRAIL, WORKED_ROW_TRAIL, WORKED_X, WORKED_Y, random_words
from oracles import transpose


def steps_of(trail):
    return list(zip(trail.boxes, trail.labels + (None,)))


class TestRowInsert:
    def test_into_empty(self):
        t, trail = row_insert(Tableau(), 4)
        assert t == Tableau([[4]])
        assert steps_of(trail) == [((0, 0), None)]

    def test_worked_example_trail(self, worked):
        t, trail = row_insert(worked, WORKED_Y)
        assert steps_of(trail) == WORKED_ROW_TRAIL
        assert t == Tableau(
            [[1, 3, 5, 8, 12, 16], [2, 6, 9, 15], [4, 10, 14], [11, 13], [17, 18], [19]]
        )

    def test_cascading_bumps(self):
        t, trail = row_insert(Tableau([[1, 3], [2]]), 0)
        assert t == Tableau([[0, 3], [1], [2]])
        assert steps_of(trail) == [((0, 0), 1), ((1, 0), 2), ((2, 0), None)]

    def test_already_present(self, worked):
        with pytest.raises(XAlreadyPresent):
            row_insert(worked, 13)


class TestColumnInsert:
    def test_into_empty(self):
        t, trail = column_insert(4, Tableau())
        assert t == Tableau([[4]])
        assert steps_of(trail) == [((0, 0), None)]

    def test_worked_example_trail(self, worked):
        t, trail = column_insert(WORKED_X, worked)
        assert steps_of(trail) == WORKED_COL_TRAIL
        assert t == Tableau(
            [[1, 3, 5, 9, 12, 16], [2, 6, 10, 14, 15], [4, 11, 13], [7, 18], [17, 19]]
        )

    def test_cascading_bumps(self):
        t, trail = column_insert(0, Tableau([[1, 3], [2]]))
        assert t == Tableau([[0, 1, 3], [2]])
        assert steps_of(trail) == [((0, 0), 1), ((0, 1), 3), ((0, 2), None)]

    def test_already_present(self, worked):
        with pytest.raises(XAlreadyPresent):
            column_insert(13, worked)


class TestBumpKernel:
    """The kernel's own record: the ``(row, col)`` box of every step, in both directions."""

    @pytest.mark.parametrize(
        "x,by_column,boxes,labels",
        [
            pytest.param(
                WORKED_Y,
                False,
                [box for box, _ in WORKED_ROW_TRAIL],
                [label for _, label in WORKED_ROW_TRAIL[:-1]],
                id="row-opens-a-row",
            ),
            pytest.param(20, False, [(0, 6)], [], id="row-appends"),
            pytest.param(
                WORKED_X,
                True,
                [box for box, _ in WORKED_COL_TRAIL],
                [label for _, label in WORKED_COL_TRAIL[:-1]],
                id="column",
            ),
            pytest.param(
                0,
                True,
                [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)],
                [1, 3, 5, 9, 12, 16],
                id="column-opens-a-column",
            ),
            pytest.param(20, True, [(5, 0)], [], id="column-opens-a-row"),
        ],
    )
    def test_records_the_box_of_every_step(self, worked, x, by_column, boxes, labels):
        rows = list(worked.rows)
        assert _bump(rows, x, by_column) == (boxes, labels)
        line = 1 if by_column else 0  # step k lies in column (row) k
        assert [box[line] for box in boxes] == list(range(len(boxes)))
        r, c = boxes[-1]
        assert rows[r][c] == (labels[-1] if labels else x) and len(rows[r]) == c + 1


class TestInsertedLabel:
    @pytest.mark.parametrize("x", [-3, True, 2.5, "4", [4]])
    def test_non_natural_rejected(self, worked, x):
        with pytest.raises(TableauError):
            row_insert(worked, x)
        with pytest.raises(TableauError):
            column_insert(x, worked)
        with pytest.raises(TableauError):
            slide_trail(worked, row_insert(worked, WORKED_Y)[1], x)


class TestApplyPlacements:
    def test_gap_raises(self):
        with pytest.raises(TableauError):
            _apply_placements(Tableau([[1, 3]]), [((0, 3), 5)])

    @pytest.mark.parametrize(
        "box",
        [(3, 0), (1, 2), (-1, 0)],
        ids=["two rows above the top row", "two columns past a row's end", "negative row"],
    )
    def test_write_leaving_a_gap_raises(self, box):
        with pytest.raises(TableauError) as exc:
            _apply_placements(Tableau([[1, 3], [2]]), [(box, 5)])
        assert exc.value.box == box

    @pytest.mark.parametrize("box", [(0, -1), (1, -1)], ids=["row 0", "row 1"])
    def test_a_negative_column_leaves_a_gap(self, box):
        # Column -1 would wrap onto the row's last label, and a later check would
        # raise a subclass at the same box: assert the kind of error, not only its box.
        t = Tableau([[1, 3], [2]])
        with pytest.raises(TableauError, match="leaves a gap") as exc:
            _apply_placements(t, [(box, 5)])
        assert type(exc.value) is TableauError and exc.value.box == box
        with pytest.raises(TableauError, match="leaves a gap"):  # the gap is found before the label
            _apply_placements(t, [(box, -5)])

    @pytest.mark.parametrize(
        "placements,rows",
        [
            ([((0, 2), 5), ((0, 3), 6)], [[1, 3, 5, 6], [2]]),
            ([((2, 0), 6), ((1, 1), 5)], [[1, 3], [2, 5], [6]]),
            ([((2, 0), 6), ((2, 1), 7), ((1, 1), 5)], [[1, 3], [2, 5], [6, 7]]),
            ([((2, 0), 6), ((3, 0), 7)], [[1, 3], [2], [6], [7]]),  # two rows opened
        ],
    )
    def test_new_boxes_after_their_left_neighbours(self, placements, rows):
        t = Tableau([[1, 3], [2]])
        assert _apply_placements(t, placements) == Tableau(rows)

    @pytest.mark.parametrize("label", [-5, True], ids=["negative", "bool"])
    def test_a_new_row_checks_its_label(self, label):
        # The box that opens a row is in bounds, so the label test, not the gap test, fails.
        with pytest.raises(TableauError, match="is not a natural") as exc:
            _apply_placements(Tableau([[1, 3], [2]]), [((2, 0), label)])
        assert type(exc.value) is TableauError

    @pytest.mark.parametrize(
        "placements,box",
        [
            ([((0, 3), 6), ((0, 2), 5)], (0, 3)),
            ([((2, 1), 7), ((2, 0), 6), ((1, 1), 5)], (2, 1)),
            ([((1, 1), 5), ((2, 0), 6), ((0, 3), 7), ((0, 2), 4)], (0, 3)),
        ],
    )
    def test_a_new_box_before_its_left_neighbour_leaves_a_gap(self, placements, box):
        with pytest.raises(TableauError) as exc:
            _apply_placements(Tableau([[1, 3], [2]]), placements)
        assert exc.value.box == box

    @pytest.mark.parametrize("n", range(6))
    def test_placement_order_does_not_matter(self, n):
        rng = random.Random(n)
        for case in enumerate_cases(n):
            t = case.tableau
            for inserted, (result, trail) in (
                (case.y, row_insert(t, case.y)),
                (case.x, column_insert(case.x, t)),
            ):
                placements = _trail_placements(trail, inserted)
                shuffled = rng.sample(placements, len(placements))
                in_order = _apply_placements(t, placements)
                assert in_order == result
                assert _apply_placements(t, placements[::-1]) == in_order
                assert _apply_placements(t, shuffled) == in_order

    def test_invalid_order_raises(self):
        with pytest.raises(RowNotIncreasing):
            _apply_placements(Tableau([[1, 3]]), [((0, 2), 2)])

    @pytest.mark.parametrize(
        "rows,placements,result",
        [
            ([[1, 4], [2]], [((0, 1), 3), ((1, 1), 4)], [[1, 3], [2, 4]]),  # to a new box
            ([[1, 3, 5], [2, 4]], [((0, 2), 4), ((1, 1), 5)], [[1, 3, 4], [2, 5]]),  # two swapped
        ],
    )
    def test_a_label_moved_to_another_box_passes(self, rows, placements, result):
        assert _apply_placements(Tableau(rows), placements) == Tableau(result)

    def test_the_label_of_a_box_not_written_is_a_duplicate(self):
        with pytest.raises(DuplicateLabel, match=r"\[3\] are in the tableau"):
            _apply_placements(Tableau([[1, 2], [3]]), [((0, 2), 3)])

    @pytest.mark.parametrize("first", [5, 4, 3], ids=["another label", "the same label", "its old label"])
    def test_a_box_named_twice_counts_its_old_label_once(self, first):
        # Only the last label of (0, 1) is written; its old label 3 counts as overwritten once.
        t = Tableau([[1, 3], [2]])
        assert _apply_placements(t, [((0, 1), first), ((0, 1), 4)]) == Tableau([[1, 4], [2]])
        assert _apply_placements(t, [((0, 1), first), ((0, 1), 3)]) == t

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_local_check_agrees_with_full_validation(self, data):
        t, placements = data.draw(placements_with_faults())
        try:
            expected = placed_naively(t, placements)
        except TableauError:
            expected = None
        try:
            got = _apply_placements(t, placements)
        except TableauError:  # any other exception fails the test
            got = None
        assert got == expected


def placed_naively(t, placements):
    """Every box of ``t`` updated by the placements, later ones winning, then ``Tableau(...)``."""
    cells = {(r, c): v for r, row in enumerate(t.rows) for c, v in enumerate(row)}
    cells.update(placements)
    if any(r < 0 or c < 0 for r, c in cells):
        raise TableauError("negative box")
    rows = []
    for r in range(1 + max((r for r, _ in cells), default=-1)):
        width = sum(1 for rr, _ in cells if rr == r)
        if any((r, c) not in cells for c in range(width)):
            raise TableauError(f"gap in row {r}")
        rows.append(tuple(cells[r, c] for c in range(width)))
    return Tableau(tuple(rows))


# Per order fault: the offset of the neighbour whose label is passed, that of the
# neighbour which must be absent for the fault to show there alone, and the direction.
SIDES = {
    "left": ((0, -1), (-1, 0), -1),
    "right": ((0, 1), (1, 0), 1),
    "lower": ((-1, 0), (0, -1), -1),
    "upper": ((1, 0), (0, 1), 1),
}
FAULTS = (
    "none", "gap", *SIDES, "ferrers", "twice", "untouched",
    "negative", "float", "not a number", "rewritten", "random",
)


@st.composite
def placements_with_faults(draw):
    """A valid tableau and placements: a trail slide with one planted fault, or random ones.

    The tableau has even labels, so an odd label breaks the order only against
    the neighbour it is written next to.  Random placements go to the cells,
    the end of every row (an outer corner, or a Ferrers break) and the first
    box of the next row.  The planted faults are a gap; an order break against
    each of the four neighbours of a written box; a Ferrers break; a label
    written twice; a duplicate of an untouched label; a negative label; a
    float equal to the label it overwrites; a bool or a string; and a bad
    placement that a later one to the same box replaces, which is no fault.
    Most are planted where no other rule is broken, so each rule is tested alone.
    """
    t, _ = rsk(draw(st.permutations(range(0, 2 * draw(st.integers(2, 16)), 2))))
    rows = t.rows
    cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
    ends = [(r, len(row)) for r, row in enumerate(rows)] + [(len(rows), 0)]
    fault = draw(st.sampled_from(FAULTS))
    if fault == "random":
        placement = st.tuples(st.sampled_from(cells + ends), st.integers(-3, 33))
        return t, draw(st.lists(placement, max_size=6))
    value = draw(st.integers(0, 16).map(lambda v: 2 * v + 1))
    insert = draw(st.sampled_from([lambda: row_insert(t, value), lambda: column_insert(value, t)]))
    placements = _trail_placements(insert()[1], value)
    written = {b for b, _ in placements}
    occupied = written.union(cells)
    last = placements[-1][0]
    above_all = max(t.labels) + 1  # odd, so not in the tableau
    if fault == "gap":
        gaps = [(r, len(row) + 1) for r, row in enumerate(rows)] + [(len(rows) + 1, 0), (-1, 0)]
        placements.append((draw(st.sampled_from(gaps)), above_all))
    elif fault in SIDES:
        (dr, dc), (rr, rc), sign = SIDES[fault]
        beside = [
            ((r, c), (r + dr, c + dc))
            for r, c in sorted(occupied)
            if (r + rr, c + rc) not in occupied
        ]
        beside = [(b, near) for b, near in beside if near not in written and near in cells]
        if beside:
            b, near = draw(st.sampled_from(beside))
            placements.append((b, rows[near[0]][near[1]] + sign))
    elif fault == "ferrers":  # a row above row 0 filled to one box past the row below
        slid = [len(row) for row in rows] + [0, 0]
        slid[last[0]] += 1
        r = draw(st.integers(1, len(rows) + (last[0] == len(rows))))
        for i, c in enumerate(range(slid[r], slid[r - 1] + 1)):
            placements.append(((r, c), above_all + 2 * i))
    elif fault == "twice":  # at the created box and at another end of a row, in order at both
        placements.append((last, above_all))
        placements.append((draw(st.sampled_from([b for b in ends if b != last])), above_all))
    elif fault == "untouched":  # the largest, at the created box, where it is likely in order
        untouched = [rows[r][c] for r, c in cells if (r, c) not in written]
        if untouched:
            placements.append((last, max(untouched)))
    elif fault == "negative":  # where it is in order
        placements.append(((0, 0), -1))
    elif fault in ("float", "not a number"):  # equal to the label it overwrites, if it can be
        b = draw(st.sampled_from([b for b in cells if b not in written] or cells))
        v = rows[b[0]][b[1]]
        bad = float(v) if fault == "float" else draw(st.sampled_from([v == 0, str(v)]))
        placements.append((b, bad))
    elif fault == "rewritten":
        placements.insert(0, (draw(st.sampled_from(sorted(written))), -1))
    return t, placements


class TestSlideTrail:
    def test_trivial(self):
        trail = Trail("row", ((0, 0),), ())
        assert slide_trail(Tableau(), trail, 4) == Tableau([[4]])

    def test_worked_example_column_trail(self, worked):
        _, trail = column_insert(WORKED_X, worked)
        intermediate = slide_trail(worked, trail, WORKED_X)
        rows = intermediate.rows
        assert (rows[3][0], rows[2][1], rows[2][2], rows[1][3], rows[1][4]) == (7, 11, 13, 14, 15)
        assert intermediate == column_insert(WORKED_X, worked)[0]

    @pytest.mark.parametrize(
        "boxes, labels",
        [(((0, 0),), (1,)), (((0, 0),), ()), ((), ())],
        ids=["labeled box of T", "unlabeled box of T", "empty"],
    )
    def test_trail_not_ending_in_a_new_box(self, boxes, labels):
        with pytest.raises(TrailInconsistentWithTableau):
            slide_trail(Tableau([[1]]), Trail("row", boxes, labels), 0)

    def test_inconsistent_trail(self, worked):
        trail = Trail("row", ((0, 0), (5, 0)), (99,))
        with pytest.raises(TrailInconsistentWithTableau):
            slide_trail(worked, trail, 7)
        # An unlabeled step before the last, off the tableau: a trail fault, not a tableau fault.
        for trail in (
            Trail("row", ((0, 1), (0, 2)), (None,)),
            Trail("column", ((1, 0), (2, 0)), (None,)),
        ):
            with pytest.raises(TrailInconsistentWithTableau):
                slide_trail(Tableau([[1]]), trail, 0)

    def test_negative_box_does_not_wrap_onto_a_label(self):
        # Python's index -1 reads label 3, which the trail names, so only the
        # bounds check keeps this a trail fault rather than a gap in the placements.
        trail = Trail("row", ((0, -1), (1, 0)), (3,))
        with pytest.raises(TrailInconsistentWithTableau):
            slide_trail(Tableau([[1, 3]]), trail, 0)

    def test_inserted_value_already_present(self, worked):
        _, trail = row_insert(worked, WORKED_Y)
        with pytest.raises(XAlreadyPresent):
            slide_trail(worked, trail, 13)

    @pytest.mark.parametrize("n", range(5))
    def test_reconstructs_both_insertions_exhaustively(self, n):
        for case in enumerate_cases(n):
            t, x, y = case.tableau, case.x, case.y
            rt_tab, rt = row_insert(t, y)
            ct_tab, ct = column_insert(x, t)
            assert slide_trail(t, rt, y) == rt_tab
            assert slide_trail(t, ct, x) == ct_tab


class TestTrailInvariants:
    @pytest.mark.parametrize(
        "trail, message",
        [
            (Trail("row", (), ()), "every box but the created one"),
            (Trail("row", ((0, 0), (1, 0)), ()), "every box but the created one"),
            (Trail("column", ((0, 0),), (5,)), "every box but the created one"),
            (Trail("row", ((0, 1), (1, 0)), (None,)), "every box but the created one"),
            (Trail("row", ((0, 1), (1, 0), (2, 0)), (5, 3)), "strictly increase"),
            (Trail("row", ((0, 0), (2, 0)), (5,)), "row-trail step 1 not in row 1"),
            (Trail("column", ((0, 0), (0, 2)), (5,)), "column-trail step 1 not in column 1"),
            (Trail("row", ((0, 0), (1, 1)), (5,)), "row-trail columns must weakly decrease"),
            (Trail("column", ((0, 0), (1, 1)), (5,)), "column-trail rows must weakly decrease"),
        ],
        ids=[
            "no boxes", "too few labels", "labeled created box", "None label",
            "labels not increasing", "row step off its row", "column step off its column",
            "row trail column increases", "column trail row increases",
        ],
    )
    def test_validate_trail_rejects(self, trail, message):
        with pytest.raises(TrailInvariantViolation, match=message):
            validate_trail(trail)

    @pytest.mark.parametrize("n", range(5))
    def test_well_formedness_and_growth(self, n):
        for case in enumerate_cases(n):
            t, x, y = case.tableau, case.x, case.y
            rt_tab, rt = row_insert(t, y)
            ct_tab, ct = column_insert(x, t)
            for trail, tab, v in ((rt, rt_tab, y), (ct, ct_tab, x)):
                validate_trail(trail)
                assert len(tab.labels) == len(t.labels) + 1
                r, c = trail.boxes[-1]  # the created box: in tab, just past the end of t's row r
                assert c < len(tab.rows[r])
                assert c == (len(t.rows[r]) if r < len(t.rows) else 0)
                assert sorted(tab.labels) == sorted([*t.labels, v])

    @pytest.mark.parametrize("n", range(5))
    def test_bumping_determinism(self, n):
        # Re-inserting a trail label into the next label's row bumps exactly it.
        for case in enumerate_cases(n):
            t, y = case.tableau, case.y
            _, rt = row_insert(t, y)
            labels = (y,) + rt.labels
            for u, box, label in zip(labels, rt.boxes, rt.labels):
                _, one_row = row_insert(Tableau([t.rows[box[0]]]), u)
                assert one_row.labels[:1] == (label,)


def enumerated_insertions(n):
    return [(case.tableau, case.x) for case in enumerate_cases(n)]


def random_large_insertions(seed, cells=200, values=25):
    """RSK tableau of a random word of even labels, with odd values to insert.

    The values include one below and one above every label, so the column walk
    runs through the whole first row and opens a new row at the top.
    """
    rng = random.Random(seed)
    labels = range(2, 8 * cells + 2, 2)
    p, _ = rsk(rng.sample(labels, cells))
    xs = [1, 8 * cells + 1] + rng.sample(range(3, 8 * cells, 2), values - 2)
    return [(p, x) for x in xs]


class TestTransposeDuality:
    @pytest.mark.parametrize(
        "insertions",
        [pytest.param(partial(enumerated_insertions, n), id=str(n)) for n in range(5)]
        + [
            pytest.param(partial(random_large_insertions, seed), id=f"rsk-200-cells-seed-{seed}")
            for seed in (1, 2, 3)
        ],
    )
    def test_column_insert_is_conjugated_row_insert(self, insertions):
        for t, x in insertions():
            ct_tab, ct = column_insert(x, t)
            rt_tab, rt = row_insert(transpose(t), x)
            assert ct_tab == transpose(rt_tab)
            assert ct.boxes == tuple((c, r) for r, c in rt.boxes)
            assert ct.labels == rt.labels


def case_pairs(n):
    return [(case.tableau, case.x, case.y) for case in enumerate_cases(n)]


def random_large_pairs(seed, cells=300):
    """An rsk tableau of ``cells`` even labels with pairs of distinct odd values."""
    insertions = random_large_insertions(seed, cells)
    return [(t, x, y) for (t, x), (_, y) in zip(insertions, insertions[1:])]


def rows_copy(t):
    return [list(row) for row in t.rows]


PAIRS = [pytest.param(partial(case_pairs, n), id=str(n)) for n in range(6)] + [
    pytest.param(partial(random_large_pairs, seed), id=f"rsk-300-cells-seed-{seed}")
    for seed in (1, 2, 3)
]


class TestRowsNotShared:
    """The kernel writes rows in place as lists; no list may leak into or out of a tableau."""

    @pytest.mark.parametrize("pairs", PAIRS)
    def test_results_are_tuples_and_inputs_unchanged(self, pairs):
        for t, x, y in pairs():
            before = rows_copy(t)
            after_row, row_trail = row_insert(t, y)
            after_col, col_trail = column_insert(x, t)
            inserted = rows_copy(after_row), rows_copy(after_col)
            results = [
                after_row,
                after_col,
                slide_trail(t, row_trail, y),
                slide_trail(t, col_trail, x),
                row_insert(after_col, y)[0],  # inserting into a result leaves it as it was
                column_insert(x, after_row)[0],
            ]
            for result in results:
                assert all(type(row) is tuple for row in result.rows)
                hash(result)
            assert (rows_copy(t), rows_copy(after_row), rows_copy(after_col)) == (before, *inserted)

    @pytest.mark.parametrize("pairs", PAIRS)
    def test_placements_copy_only_the_rows_they_write(self, pairs, monkeypatch):
        # The fused result too: it names S twice and may open a row with J.
        passed = []

        def recording(t, placements):
            passed.append(placements)
            return _apply_placements(t, placements)

        monkeypatch.setattr(fused, "_apply_placements", recording)
        for t, x, y in pairs():
            rows, before = t.rows, rows_copy(t)
            results = []
            for trail, v in ((row_insert(t, y)[1], y), (column_insert(x, t)[1], x)):
                placements = _trail_placements(trail, v)
                results.append((placements, _apply_placements(t, placements)))
            fused_result = commute_check(t, x, y).fused
            results.append((passed.pop(), fused_result))
            assert not passed
            for placements, result in results:
                assert t.rows is rows and rows_copy(t) == before
                assert all(type(row) is tuple for row in result.rows)
                hash(result)
                written = {r for (r, _), _ in placements}
                for r, row in enumerate(rows):
                    assert (result.rows[r] is row) == (r not in written), (r, written)

    @pytest.mark.parametrize("pairs", PAIRS)
    def test_insertions_copy_only_the_rows_they_write(self, pairs):
        for t, x, y in pairs():
            rows = t.rows
            for result, trail in (row_insert(t, y), column_insert(x, t)):
                assert all(type(row) is tuple for row in result.rows)
                written = {r for r, _ in trail.boxes}
                for r, row in enumerate(rows):
                    assert (result.rows[r] is row) == (r not in written), (r, written)

    @pytest.mark.parametrize(
        "words",
        [pytest.param(partial(permutations, range(1, n + 1)), id=str(n)) for n in range(6)]
        + [
            pytest.param(partial(random_words, seed), id=f"rsk-300-cells-seed-{seed}")
            for seed in (1, 2, 3)
        ],
    )
    def test_rsk_rows_are_tuples(self, words):
        for w in words():
            word = list(w)
            for result in rsk(word):
                assert all(type(row) is tuple for row in result.rows)
                hash(result)
            assert word == list(w)


def bumped_and_modified_rows(row, x, bump=_bump):
    """check_modify_property's result, and the rows it bumps x into after the row itself."""
    seen = []

    def spy(rows, x, by_column=False):
        seen.append(tuple(rows[0]))  # before the bump writes into it
        return bump(rows, x, by_column)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_bump", spy)
        y = check_modify_property(row, x)
    assert seen[0] == row
    return y, seen[1:]


def bump_off_by_one_when(fault):
    """A planted fault: a bump that reports the label after the bumped one on rows where ``fault`` holds."""

    def bump(rows, x, by_column=False):
        planted = fault(rows[0])
        steps, labels = _bump(rows, x, by_column)
        return steps, [labels[0] + 1] if planted and labels else labels

    return bump


class TestBumpStability:
    def test_seeded_random_instances(self):
        rng = random.Random(20230601)
        for _ in range(500):
            # At most 7 labels below 40, then 40: a gap below 40 is left for x, which bumps.
            row = (*sorted(rng.sample(range(40), rng.randint(0, 7))), 40)
            x = rng.choice([v for v in range(40) if v not in row])
            y, modified = bumped_and_modified_rows(row, x)
            assert y == min(v for v in row if v > x)
            assert len(modified) == 2
            for m in modified:
                assert min(v for v in m if v > x) == y

    def test_append_case_returns_none(self):
        assert bumped_and_modified_rows((1, 2), 9) == (None, [])

    @pytest.mark.parametrize(
        "row,x,bumped",
        [
            pytest.param((), 5, None, id="empty-row"),
            pytest.param((1, 3, 5, 9, 12, 16), 8, 9, id="worked-row-0"),
            pytest.param((2, 6, 10, 15), 9, 10, id="worked-row-1"),
        ],
    )
    def test_returns_the_bumped_label(self, row, x, bumped):
        assert check_modify_property(row, x) == bumped

    def test_x_already_present(self):
        with pytest.raises(XAlreadyPresent):
            check_modify_property((1, 3), 3)

    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=2, unique=True))
    def test_bumped_element_is_stable(self, labels):
        row = tuple(sorted(labels))[1:]
        x = sorted(labels)[0]
        assert check_modify_property(row, x) == row[0]

    def test_the_worked_extremes(self):
        assert bumped_and_modified_rows((2, 6, 10, 15, 20), 9) == (
            10,
            [(2, 6, 10, 11, 12), (0, 1, 10, 14, 18)],
        )

    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=2, unique=True))
    def test_extremes_lie_in_the_random_modification_range(self, labels):
        # The range the sweep's random modification once drew from: label k left
        # of y anywhere in [k, its old value], steps of 1 to 4 right of it.
        x, row = labels[0], tuple(sorted(labels[1:]))
        y, modified = bumped_and_modified_rows(row, x)
        if y is None:
            assert x > row[-1] and modified == []
            return
        p = row.index(y)
        tightest, loosest = modified
        for m in modified:
            assert len(m) == len(row) and m[p] == y
            assert all(a < b for a, b in zip(m, m[1:]))
            assert all(k <= m[k] <= row[k] for k in range(p))
            assert all(1 <= b - a <= 4 for a, b in zip(m[p:], m[p + 1 :]))
        assert tightest[: p + 1] == row[: p + 1] and loosest[:p] == tuple(range(p))
        assert tightest[p:] == tuple(range(y, y + len(row) - p))
        assert loosest[p:] == tuple(range(y, y + 4 * (len(row) - p), 4))

    @pytest.mark.parametrize(
        "fault,caught_on",
        [
            pytest.param(lambda row: row[0] == 0, (0, 1, 10, 14), id="zero-first-loosest"),
            pytest.param(lambda row: row[3] == 11, (2, 6, 10, 11), id="adjacent-next-tightest"),
        ],
    )
    def test_planted_fault_is_caught_on_an_extreme(self, fault, caught_on):
        row, x = (2, 6, 10, 15), 9  # the fault does not hold on the row itself
        assert not fault(row)
        expected = f"modified row {caught_on} bumped 11, expected 10"
        with pytest.raises(AssertionError, match=f"^{re.escape(expected)}$"):
            bumped_and_modified_rows(row, x, bump_off_by_one_when(fault))
