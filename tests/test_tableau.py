import dataclasses
import enum
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schensted import (
    ColumnNotIncreasing,
    DuplicateLabel,
    RowNotIncreasing,
    ShapeNotFerrers,
    Tableau,
    TableauError,
    column_insert,
    dump_tableau,
    enumerate_syt,
    parse_tableau,
    row_insert,
    rsk,
    slide_trail,
)
from schensted.insertion import _apply_placements, _trail_placements
from schensted.tableau import check_label

from conftest import WORKED_ROWS
from oracles import conjugate, shape, transpose


class TestConstruction:
    def test_empty(self):
        assert Tableau([]).rows == ()
        assert len(Tableau().labels) == 0

    def test_worked_example_is_valid(self, worked):
        assert len(worked.labels) == 17

    def test_shape_not_ferrers(self):
        with pytest.raises(ShapeNotFerrers) as exc:
            Tableau([[1, 2], [3, 4, 5]])
        assert exc.value.box == (1, 2)

    def test_empty_row_rejected(self):
        with pytest.raises(ShapeNotFerrers):
            Tableau([[1, 2], []])

    def test_row_not_increasing(self):
        with pytest.raises(RowNotIncreasing) as exc:
            Tableau([[2, 1]])
        assert exc.value.box == (0, 1)

    def test_column_not_increasing(self):
        with pytest.raises(ColumnNotIncreasing) as exc:
            Tableau([[2, 3], [1, 4]])
        assert exc.value.box == (1, 0)

    @pytest.mark.parametrize(
        "rows,first,box",
        [([[1, 2], [2]], (0, 1), (1, 0)), ([[1, 5], [3, 6], [5]], (0, 1), (2, 0))],
        ids=["adjacent-rows", "two-rows-apart"],
    )
    def test_duplicate_label(self, rows, first, box):
        with pytest.raises(DuplicateLabel) as exc:
            Tableau(rows)
        assert str(exc.value) == f"label {rows[box[0]][box[1]]} appears at {first} and {box}"
        assert exc.value.box == box

    @pytest.mark.parametrize("bad", [True, 1.5, "a", -1], ids=repr)
    @pytest.mark.parametrize("box", [(0, 0), (0, 2), (1, 1)])
    def test_non_natural_label_rejected_at_its_box(self, bad, box):
        rows = [[1, 3, 5], [2, 4]]
        rows[box[0]][box[1]] = bad
        with pytest.raises(TableauError) as exc:
            Tableau(rows)
        assert type(exc.value) is TableauError and exc.value.box == box
        assert str(exc.value) == f"label {bad!r} at {box} is not a natural"

    def test_int_subclass_label_accepted(self):
        Label = enum.IntEnum("Label", "ONE TWO THREE")
        t = Tableau([[Label.ONE, 3], [Label.TWO]])
        assert t.rows == ((1, 3), (2,)) and type(t.rows[0][0]) is Label

    @pytest.mark.parametrize("good", [0, 7, 2**70, enum.IntEnum("Label", "ONE").ONE], ids=repr)
    def test_check_label_accepts_a_natural(self, good):
        assert check_label(good) is None

    @pytest.mark.parametrize("bad", [True, False, -1, 1.5, "3", None], ids=repr)
    def test_check_label_rejects_anything_else(self, bad):
        with pytest.raises(TableauError) as exc:
            check_label(bad)
        assert type(exc.value) is TableauError and exc.value.box is None
        assert str(exc.value) == f"label {bad!r} is not a natural"

    def test_list_rows_are_stored_as_tuples(self):
        # Insertion results share the rows they do not write, so a row must not be a list.
        rows = [[1, 3], [4]]
        t = Tableau(rows)
        assert t.rows == ((1, 3), (4,)) and t == Tableau(((1, 3), (4,)))
        row_insert(t, 2)
        _apply_placements(t, [((0, 1), 2)])
        assert t.rows == ((1, 3), (4,)) and rows == [[1, 3], [4]]
        assert t.labels == {1, 3, 4}


# Rows whose column 0 does not decrease from the first line to the last, so
# parse_tableau reads them in storage order and reports their fault.
INVALID_ROWS = [
    (ShapeNotFerrers, [[1, 2], [3, 4, 5]]),
    (RowNotIncreasing, [[2, 1]]),
    (ColumnNotIncreasing, [[2, 3], [1, 4], [5]]),
    (DuplicateLabel, [[1, 2], [2]]),
    (TableauError, [[-1, 2]]),
]


class TestValidationBoundaries:
    ENTRY_POINTS = {
        "constructor": lambda rows: Tableau(tuple(tuple(row) for row in rows)),
        "parse_tableau": lambda rows: parse_tableau(
            "\n".join(" ".join(map(str, row)) for row in rows)
        ),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("error,rows", INVALID_ROWS)
    def test_every_public_entry_rejects_every_fault(self, entry, error, rows):
        with pytest.raises(error) as exc:
            self.ENTRY_POINTS[entry](rows)
        assert type(exc.value) is error

    def test_trusted_skips_validation(self):
        t = Tableau._trusted(((2, 1),))
        assert t.rows == ((2, 1),)
        with pytest.raises(RowNotIncreasing):
            Tableau(t.rows)

    def test_trusted_equals_validated(self, worked):
        trusted = Tableau._trusted(worked.rows)
        assert trusted == worked and hash(trusted) == hash(worked)
        assert transpose(worked) == Tableau(transpose(worked).rows)


class TestAccessors:
    def test_shape(self, worked):
        assert shape(Tableau()) == ()
        assert shape(worked) == (6, 4, 3, 2, 2)
        assert shape(Tableau([[1, 3], [2]])) == (2, 1)

    def test_contains(self, worked):
        assert 13 in worked
        assert 7 not in worked

    def test_labels(self):
        assert Tableau([[1, 3], [2]]).labels == {1, 2, 3}

    def test_transpose(self, worked):
        assert transpose(Tableau()) == Tableau()
        assert transpose(Tableau([[1, 3], [2]])) == Tableau([[1, 2], [3]])
        assert transpose(transpose(worked)) == worked

    def test_transpose_shape_is_conjugate(self, worked):
        assert shape(transpose(worked)) == conjugate(shape(worked))
        assert conjugate(conjugate(shape(worked))) == shape(worked)


class TestTransposeProperties:
    @pytest.mark.parametrize("n", range(6))
    def test_involution_and_entries_over_corpus(self, n):
        for t in enumerate_syt(n):
            tt = transpose(t)
            assert tt.labels == t.labels
            assert transpose(tt) == t
            assert shape(tt) == conjugate(shape(t))


class TestTextFormat:
    def test_round_trip(self, worked):
        assert parse_tableau(dump_tableau(worked)) == worked

    def test_empty_file(self):
        assert parse_tableau("") == Tableau()
        assert parse_tableau("\n# only a comment\n") == Tableau()

    def test_comments_and_blank_lines(self):
        text = "# header\n1 3 5\n\n2 6  # inline\n4\n"
        assert parse_tableau(text) == Tableau([[1, 3, 5], [2, 6], [4]])

    def test_display_order_accepted(self):
        # French rendering lists the first row last; parsing recovers it.
        assert parse_tableau("2\n1 3") == Tableau([[1, 3], [2]])

    def test_a_rectangle_in_display_order(self):
        assert parse_tableau("3 4\n1 2").rows == ((1, 2), (3, 4))

    def test_column_0_picks_the_reading_that_is_reported(self):
        # 2 > 1 in column 0, so the lines are read in display order: row 0 is "1 2 4",
        # and the 2 of "2 3" repeats it.  Read in storage order, row 1 would be too long.
        with pytest.raises(DuplicateLabel) as exc:
            parse_tableau("2 3\n1 2 4")
        assert exc.value.box == (1, 0)

    def test_invalid_token(self):
        with pytest.raises(TableauError):
            parse_tableau("1 x 3")

    @pytest.mark.parametrize("text", ["1_0", "+1", "\u0663 \u0664", "1.0", "\u00b2", "-1"])
    def test_only_ascii_digit_tokens(self, text):
        with pytest.raises(TableauError) as exc:
            parse_tableau(text)
        assert type(exc.value) is TableauError

    def test_invalid_tableau(self):
        with pytest.raises(TableauError):
            parse_tableau("1 2\n3 4 5\n9")


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, unique=True))
def test_single_row_construction(labels):
    row = tuple(sorted(labels))
    t = Tableau((row,))
    assert shape(t) == (len(row),)
    assert tuple(sorted(t.labels)) == row


def row_scan(t, v):
    return any(v in row for row in t.rows)


@st.composite
def indexed_tableaux(draw):
    """Tableaux from every producer, each paired with how it was made."""
    n = draw(st.integers(0, 24))
    word = draw(st.permutations(range(2, 2 * n + 2, 2)))  # even labels; odd values are gaps
    p, q = rsk(word)
    gaps = st.integers(0, n).map(lambda g: 2 * g + 1)
    x, y = draw(st.lists(gaps, min_size=2, max_size=2, unique=True))
    after_row, row_trail = row_insert(p, y)
    after_col, col_trail = column_insert(x, p)
    syt = list(enumerate_syt(min(n, 6)))
    made = {
        "constructor": Tableau(p.rows),
        "parse_tableau": parse_tableau(dump_tableau(p)),
        "enumerate_syt": draw(st.sampled_from(syt)),
        "rsk P": p,
        "rsk Q": q,
        "row_insert": after_row,
        "column_insert": after_col,
        "row_insert of column_insert": row_insert(after_col, y)[0],
        "slide_trail": slide_trail(p, row_trail, y),
        "_apply_placements": _apply_placements(p, _trail_placements(col_trail, x)),
    }
    made["pickled, index not built"] = pickle.loads(pickle.dumps(Tableau._trusted(p.rows)))
    made["pickled result"] = pickle.loads(pickle.dumps(after_row))  # its index not yet formed
    made["pickled, index formed"] = pickle.loads(pickle.dumps(p))  # from its rows, read by row_insert
    return made


class TestLabelIndex:
    @settings(max_examples=200, deadline=None)
    @given(indexed_tableaux())
    def test_index_matches_a_row_scan(self, made):
        for source, t in made.items():
            plain = Tableau._trusted(t.rows)
            assert t.labels == {v for row in t.rows for v in row}, source
            top = max(t.labels, default=0)
            for v in [*range(-1, top + 3), True, False, 2.0, "3"]:  # every label and every gap
                assert (v in t) == row_scan(t, v), (source, v)
            assert "labels" in vars(t) and "labels" not in vars(plain)
            assert plain == t and hash(plain) == hash(t) and repr(plain) == repr(t), source
            assert "labels" not in vars(plain)  # equality, hash and repr read the rows alone

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_results_of_results_match_a_row_scan(self, data):
        # A chain of three insertions; each checks its value against its parent's index.
        n = data.draw(st.integers(0, 16))
        t, _ = rsk(data.draw(st.permutations(range(2, 2 * n + 2, 2))))  # odd values are gaps
        gaps = st.integers(0, n + 2).map(lambda g: 2 * g + 1)
        values = data.draw(st.lists(gaps, min_size=3, max_size=3, unique=True))
        chain = []
        for x in values:
            t, _ = data.draw(st.sampled_from([row_insert, lambda t, x: column_insert(x, t)]))(t, x)
            chain.append(t)
        top = 2 * n + 7
        for depth, t in enumerate(chain, 1):
            copies = [t, pickle.loads(pickle.dumps(t))]
            for copy in copies:
                for v in [*range(-1, top + 3), True, False, 2.0, "3"]:  # every label and every gap
                    assert (v in copy) == row_scan(copy, v), (depth, v)
            for copy in copies:
                assert copy.labels == {v for row in copy.rows for v in row}, depth

    def test_a_result_keeps_no_reference_to_its_parent(self):
        parent = Tableau(WORKED_ROWS)
        ref = weakref.ref(parent)
        result, _ = column_insert(0, parent)
        del parent
        assert ref() is None
        assert result.labels == {0, *(v for row in WORKED_ROWS for v in row)}

    def test_a_result_of_a_result_keeps_no_reference_to_either_parent(self):
        parent = Tableau(WORKED_ROWS)
        middle, _ = column_insert(0, parent)
        refs = [weakref.ref(parent), weakref.ref(middle)]
        result, _ = row_insert(middle, 7)
        del parent, middle
        assert [ref() for ref in refs] == [None, None]
        assert result.labels == {0, 7, *(v for row in WORKED_ROWS for v in row)}

    def test_a_tableau_replaced_from_a_result_forms_its_own_index(self):
        # dataclasses.replace builds through the constructor: it validates the new rows
        # and forms their index from them, carrying over nothing of the result's index.
        result, _ = row_insert(Tableau(WORKED_ROWS), 8)
        assert 8 in result and 19 in result and 7 not in result and 20 not in result
        made = dataclasses.replace(result, rows=((1, 2), (3,)))
        assert vars(made).keys() == {"rows"}
        assert 3 in made and 8 not in made and 19 not in made
        assert made.labels == {1, 2, 3}
        with pytest.raises(RowNotIncreasing):
            dataclasses.replace(result, rows=((2, 1),))
