import pickle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schensted import (
    CaseDescriptor,
    IntersectionReport,
    InvalidResult,
    LabelsNotDistinct,
    NotAStrongIntersection,
    Tableau,
    TableauError,
    XAlreadyPresent,
    classify_intersection,
    column_insert,
    commute_check,
    enumerate_cases,
    resolve_conflict,
    row_insert,
    rsk,
    trail_agreement,
)
from schensted import fused
from schensted.fused import _fused

from conftest import WORKED_RESULT, WORKED_X, WORKED_Y
from oracles import evacuation, growth_insertion_tableau, jeu_de_taquin_tableau, transpose


class TestResolveConflict:
    def test_worked_example_branch(self):
        assert resolve_conflict(a=11, i=10, s=13) == (10, 13, 11)

    def test_i_greater_than_a(self):
        assert resolve_conflict(a=1, i=3, s=4) == (1, 3, 4)

    def test_i_less_than_a(self):
        assert resolve_conflict(a=2, i=1, s=5) == (1, 5, 2)

    def test_empty_s_places_nothing_in_one_successor(self):
        assert resolve_conflict(a=3, i=4, s=None) == (3, 4, None)
        assert resolve_conflict(a=3, i=2, s=None) == (2, None, 3)

    def test_rejects_equal_labels(self):
        with pytest.raises(LabelsNotDistinct):
            resolve_conflict(a=2, i=2, s=5)

    def test_rejects_wrong_order(self):
        with pytest.raises(LabelsNotDistinct):
            resolve_conflict(a=7, i=1, s=5)


class TestFusedInsert:
    def test_worked_example(self, worked):
        assert commute_check(worked, WORKED_X, WORKED_Y).fused == Tableau(WORKED_RESULT)

    def test_shared_empty_box_a_into_s(self):
        # i=4 > a=3: a takes the shared box, i goes to its right.
        assert commute_check(Tableau([[2, 3]]), 1, 4).fused == Tableau([[1, 2, 3, 4]])

    def test_shared_empty_box_i_into_s(self):
        # i=2 < a=3: i takes the shared box, a goes above.
        assert commute_check(Tableau([[2, 4]]), 3, 1).fused == Tableau([[1, 4], [2], [3]])

    def test_strong_with_empty_b(self):
        assert commute_check(Tableau([[1, 4], [2, 5]]), 0, 3).fused == Tableau(
            [[0, 1, 3], [2, 4], [5]]
        )

    def test_disjoint(self):
        t = Tableau([[1, 3], [2]])
        assert commute_check(t, 4, 5).fused == Tableau([[1, 3, 5], [2], [4]])


class TestFusedValidation:
    """The fused result is what is under test, so ``_fused`` always validates it."""

    T = Tableau([[1, 3], [2]])

    def test_row_trail_of_another_tableau(self):
        _, col = column_insert(4, self.T)
        _, row = row_insert(Tableau([[1, 3, 4, 6]]), 5)  # bumps from box (0, 3)
        with pytest.raises(InvalidResult):
            _fused(self.T, 4, 5, col, row, IntersectionReport("disjoint"))

    def test_trail_of_another_value(self):
        _, col = column_insert(4, self.T)
        _, row = row_insert(self.T, 5)  # appends at (0, 2), where 0 breaks the row
        report = classify_intersection(row, col, 4, 5)
        assert _fused(self.T, 4, 5, col, row, report) == commute_check(self.T, 4, 5).fused
        with pytest.raises(InvalidResult):
            _fused(self.T, 4, 0, col, row, report)


class TestCommuteCheck:
    def test_equal_values_rejected(self, worked):
        with pytest.raises(LabelsNotDistinct, match="x and y must differ, got 7"):
            commute_check(worked, 7, 7)

    @pytest.mark.parametrize(
        "x,y,error",
        [
            (13, WORKED_Y, XAlreadyPresent),  # x in T
            (WORKED_X, 13, XAlreadyPresent),  # y in T
            (WORKED_X, WORKED_X, LabelsNotDistinct),
            (-1, WORKED_Y, TableauError),
            (WORKED_X, -1, TableauError),
            (True, WORKED_Y, TableauError),
            (WORKED_X, False, TableauError),
        ],
    )
    def test_bad_values_raise_before_the_compositions(self, worked, monkeypatch, x, y, error):
        # The two compositions insert unchecked: the x == y test and the checked
        # insertions x→T and T←y must raise first, each its own exception class.
        grown = []
        monkeypatch.setattr(fused, "_grow", lambda *args: grown.append(args))
        with pytest.raises(error) as exc:
            commute_check(worked, x, y)
        assert type(exc.value) is error and grown == []

    def test_public_chains_check_every_value(self, worked):
        with pytest.raises(XAlreadyPresent):
            row_insert(column_insert(WORKED_X, worked)[0], WORKED_X)
        with pytest.raises(XAlreadyPresent):
            column_insert(WORKED_Y, row_insert(worked, WORKED_Y)[0])

    def test_empty(self):
        report = commute_check(Tableau(), 1, 2)
        assert report.all_equal
        assert report.left == Tableau([[1, 2]])

    def test_worked_example(self, worked):
        report = commute_check(worked, WORKED_X, WORKED_Y)
        assert report.all_equal
        assert report.left == Tableau(WORKED_RESULT)
        assert report.intersection.variant == "strong"
        assert report.intersection.configuration == "JB"

    def test_report_carries_the_trails(self, worked):
        report = commute_check(worked, WORKED_X, WORKED_Y)
        assert (report.after_col, report.col_trail) == column_insert(WORKED_X, worked)
        assert (report.after_row, report.row_trail) == row_insert(worked, WORKED_Y)
        assert report.left_row_trail == row_insert(report.after_col, WORKED_Y)[1]

    @pytest.mark.parametrize("n", range(6))
    def test_exhaustive_commutation(self, n):
        for case in enumerate_cases(n):
            report = commute_check(case.tableau, case.x, case.y)
            assert report.all_equal, case


class TestTrailAgreement:
    def test_worked_example_below(self, worked):
        assert trail_agreement(commute_check(worked, WORKED_X, WORKED_Y)) is None  # no part differs
        # Both row trails pass through 9 at (0,3) and 10 at (1,2).
        after_col, _ = column_insert(WORKED_X, worked)
        _, trail2 = row_insert(after_col, WORKED_Y)
        assert list(zip(trail2.boxes[:2], trail2.labels[:2])) == [
            ((0, 3), 9),
            ((1, 2), 10),
        ]

    def test_not_strong_raises(self):
        with pytest.raises(NotAStrongIntersection):
            trail_agreement(commute_check(Tableau([[1, 3], [2]]), 4, 5))
        with pytest.raises(NotAStrongIntersection):
            trail_agreement(commute_check(Tableau([[2, 3]]), 1, 4))

    @pytest.mark.parametrize("n", range(6))
    def test_exhaustive_agreement(self, n):
        for case in enumerate_cases(n):
            report = commute_check(case.tableau, case.x, case.y)
            if report.intersection.variant != "strong":
                continue
            assert trail_agreement(report) is None, case


class TestStrongCasePlacement:
    @pytest.mark.parametrize("n", range(6))
    def test_s_stays_in_b_when_i_below_a(self, n):
        # With i < a the crossing label ends up in the column successor box,
        # both in x→T and in the final tableau.
        for case in enumerate_cases(n):
            t, x, y = case.tableau, case.x, case.y
            report = commute_check(t, x, y)
            inter = report.intersection
            if inter.variant != "strong" or inter.i > inter.a:
                continue
            _, col_trail = column_insert(x, t)
            ci = col_trail.boxes.index(inter.s_box)
            b_box = col_trail.boxes[ci + 1]
            after_col, _ = column_insert(x, t)
            r, c = b_box
            assert after_col.rows[r][c] == inter.s
            assert report.left.rows[r][c] == inter.s


class TestIndependentOracles:
    def test_growth_diagram_gives_both_compositions(self):
        # (x→T)←y and x→(T←y) are both P of x·w(T)·y, where the reading word
        # w(T) runs from the last row down to row 0.
        for n in range(7):
            for case in enumerate_cases(n):
                report = commute_check(case.tableau, case.x, case.y)
                reading = [v for row in reversed(case.tableau.rows) for v in row]
                p = growth_insertion_tableau([case.x, *reading, case.y])
                assert p == report.left == report.right, case

    def test_transpose_duality(self):
        # Transposing swaps row and column insertion: the case (Tᵗ, y, x) runs the
        # original's trails transposed, so S is reflected, a↔i, b↔j, IJB↔AJB, IJ↔AB.
        dual_configuration = {
            None: None, "JB": "JB", "IJB": "AJB", "AJB": "IJB", "IJ": "AB", "AB": "IJ"
        }
        for n in range(7):
            for case in enumerate_cases(n):
                report = commute_check(case.tableau, case.x, case.y)
                dual = commute_check(transpose(case.tableau), case.y, case.x)
                inter = report.intersection
                expected = inter._replace(
                    s_box=inter.s_box and inter.s_box[::-1],
                    a=inter.i,
                    i=inter.a,
                    b=inter.j,
                    j=inter.b,
                    configuration=dual_configuration[inter.configuration],
                )
                assert dual.intersection == expected, case
                assert dual.left == transpose(report.right), case
                assert dual.right == transpose(report.left), case

    def test_evacuation_duality(self):
        # The case (T, x, y) goes to (evac T, N − y, N − x).  With P(w#) = evac P(w),
        # T ← y becomes (N − y) → evac T and x → T becomes evac T ← (N − x), so the
        # image runs the two compositions the other way round.  It also swaps the
        # disjoint and strong crossings of the trails.
        image_variant = {
            "disjoint": "strong", "strong": "disjoint", "shared_empty_box": "shared_empty_box"
        }
        for n in range(7):
            big = 3 * n + 3  # N: the sweep's labels lie in 1..3n + 2
            evacuated = {}
            for case in enumerate_cases(n):
                t = case.tableau
                if t not in evacuated:
                    evacuated[t] = evacuation(t, big)
                    assert evacuation(evacuated[t], big) == t, t
                report = commute_check(t, case.x, case.y)
                image = commute_check(evacuated[t], big - case.y, big - case.x)
                variant = image_variant[report.intersection.variant]
                assert image.intersection.variant == variant, case
                assert evacuation(image.left, big) == report.right, case
                assert evacuation(image.right, big) == report.left, case

    def test_jeu_de_taquin(self):
        # Rectifying x ∗ T ∗ y slides labels and never bumps: it shares no code
        # with _bump, the placement step or the conflict rule.
        for n in range(8):
            for case in enumerate_cases(n):
                report = commute_check(case.tableau, case.x, case.y)
                p = jeu_de_taquin_tableau(case.tableau, case.x, case.y)
                assert p == report.left == report.right == report.fused, case

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_jeu_de_taquin_on_random_words(self, data):
        # P of a random word of multiples of 3, with x and y drawn from the gaps.
        cells = data.draw(st.integers(min_value=0, max_value=300), label="cells")
        word = data.draw(st.permutations(range(3, 3 * cells + 3, 3)), label="word")
        gaps = [v for v in range(1, 3 * cells + 3) if v % 3]
        x, y = data.draw(st.lists(st.sampled_from(gaps), min_size=2, max_size=2, unique=True))
        t, _ = rsk(word)
        report = commute_check(t, x, y)
        p = jeu_de_taquin_tableau(t, x, y)
        assert p == report.left == report.right == report.fused


RECORDS = {  # each record type, read from a fresh analysis of the worked case, and its first field
    "Trail": (lambda report: report.row_trail, "kind"),
    "IntersectionReport": (lambda report: report.intersection, "variant"),
    "CommutationReport": (lambda report: report, "left"),
    "CaseDescriptor": (lambda report: CaseDescriptor(report.after_col, WORKED_X, WORKED_Y), "tableau"),
}


class TestRecords:
    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_immutable_values(self, worked, name):
        read, field = RECORDS[name]
        record, again = (read(commute_check(worked, WORKED_X, WORKED_Y)) for _ in range(2))
        assert type(record).__name__ == name and record is not again
        assert record == again and hash(record) == hash(again) and repr(record) == repr(again)
        assert repr(record).startswith(f"{name}({field}=")
        assert pickle.loads(pickle.dumps(record)) == record
        with pytest.raises(AttributeError):
            setattr(record, field, None)
