import pytest
from hypothesis import given
from hypothesis import strategies as st

from schensted import (
    ColumnNotIncreasing,
    DuplicateLabel,
    RowNotIncreasing,
    ShapeNotFerrers,
    Tableau,
    TableauError,
    conjugate,
    dump_tableau,
    enumerate_syt,
    parse_tableau,
)

from conftest import WORKED_ROWS


class TestConstruction:
    def test_empty(self):
        assert Tableau.from_rows([]).rows == ()
        assert Tableau().size == 0

    def test_worked_example_is_valid(self, worked):
        assert worked.size == 17

    def test_shape_not_ferrers(self):
        with pytest.raises(ShapeNotFerrers) as exc:
            Tableau.from_rows([[1, 2], [3, 4, 5]])
        assert exc.value.box == (1, 2)

    def test_empty_row_rejected(self):
        with pytest.raises(ShapeNotFerrers):
            Tableau.from_rows([[1, 2], []])

    def test_row_not_increasing(self):
        with pytest.raises(RowNotIncreasing) as exc:
            Tableau.from_rows([[2, 1]])
        assert exc.value.box == (0, 1)

    def test_column_not_increasing(self):
        with pytest.raises(ColumnNotIncreasing) as exc:
            Tableau.from_rows([[2, 3], [1, 4]])
        assert exc.value.box == (1, 0)

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            Tableau.from_rows([[1, 2], [2]])

    def test_negative_label_rejected(self):
        with pytest.raises(TableauError):
            Tableau.from_rows([[-1, 2]])


# Rows whose display-order reading is invalid too, so parse_tableau reports them.
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
        "from_rows": Tableau.from_rows,
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
        assert worked.transpose() == Tableau(worked.transpose().rows)


class TestAccessors:
    def test_shape(self, worked):
        assert Tableau().shape == ()
        assert worked.shape == (6, 4, 3, 2, 2)
        assert Tableau.from_rows([[1, 3], [2]]).shape == (2, 1)

    def test_contains(self, worked):
        assert 13 in worked
        assert 7 not in worked

    def test_get_outside_shape(self):
        t = Tableau.from_rows([[1, 3], [2]])
        assert t.get((1, 1)) is None
        assert t.get((0, 1)) == 3

    def test_entries(self):
        assert Tableau.from_rows([[1, 3], [2]]).entries() == (1, 2, 3)

    def test_transpose(self, worked):
        assert Tableau().transpose() == Tableau()
        assert Tableau.from_rows([[1, 3], [2]]).transpose() == Tableau.from_rows(
            [[1, 2], [3]]
        )
        assert worked.transpose().transpose() == worked

    def test_transpose_shape_is_conjugate(self, worked):
        assert worked.transpose().shape == conjugate(worked.shape)
        assert conjugate(conjugate(worked.shape)) == worked.shape


class TestTransposeProperties:
    @pytest.mark.parametrize("n", range(6))
    def test_involution_and_entries_over_corpus(self, n):
        for t in enumerate_syt(n):
            tt = t.transpose()
            assert tt.entries() == t.entries()
            assert tt.transpose() == t
            assert tt.shape == conjugate(t.shape)


class TestTextFormat:
    def test_round_trip(self, worked):
        assert parse_tableau(dump_tableau(worked)) == worked

    def test_empty_file(self):
        assert parse_tableau("") == Tableau()
        assert parse_tableau("\n# only a comment\n") == Tableau()

    def test_comments_and_blank_lines(self):
        text = "# header\n1 3 5\n\n2 6  # inline\n4\n"
        assert parse_tableau(text) == Tableau.from_rows([[1, 3, 5], [2, 6], [4]])

    def test_display_order_accepted(self):
        # French rendering lists the first row last; parsing recovers it.
        assert parse_tableau("2\n1 3") == Tableau.from_rows([[1, 3], [2]])

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
    assert t.shape == (len(row),)
    assert t.entries() == row
