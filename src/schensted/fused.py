"""Fused simultaneous insertion and the three-way commutation check.

``commute_check`` is the one analysis of a case.  Its ``fused`` result
computes (x→T)←y in a single pass: it takes the column trail of x→T and the
row trail of T←y, both read off the *original* tableau, slides each label to
the next box of its own trail, and lets one conflict rule overwrite the box
where the two trails meet and its two successors.  The compositional
insertions are the oracle the fused result must match; the lemma checks read
the trails from the same report.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .insertion import InvariantViolation, Trail, column_insert, row_insert
from .insertion import _apply_placements, _trail_placements
from .tableau import Label, Tableau, TableauError
from .trails import IntersectionReport, NotAStrongIntersection, classify_intersection


class LabelsNotDistinct(ValueError):
    pass


class InvalidResult(InvariantViolation):
    """The fused slide produced an invalid tableau (never expected)."""


class CommutationReport(NamedTuple):
    left: Tableau  # (x→T)←y
    right: Tableau  # x→(T←y)
    fused: Tableau
    intersection: IntersectionReport
    all_equal: bool
    after_col: Tableau  # x→T
    col_trail: Trail  # column trail of x→T
    after_row: Tableau  # T←y
    row_trail: Trail  # row trail of T←y
    left_row_trail: Trail  # row trail of (x→T)←y


def resolve_conflict(
    a: Label, i: Label, s: Optional[Label]
) -> tuple[Label, Optional[Label], Optional[Label]]:
    """The labels of S, B and J (``None`` for none) where the two trails meet at S.

    ``a`` and ``i`` both want to slide into S, while ``s`` (``None`` when S
    was empty) could slide into either successor box; the order of ``a`` and
    ``i`` decides.
    """
    if len({a, i, s}) != 3:
        raise LabelsNotDistinct(f"a={a}, i={i}, s={s} must be pairwise distinct")
    if s is not None and not (a < s and i < s):
        raise LabelsNotDistinct(f"expected a={a} < s={s} and i={i} < s={s}")
    if i < a:
        return i, s, a
    return a, i, s


def _fused(
    t: Tableau, x: Label, y: Label, col: Trail, row: Trail, report: IntersectionReport
) -> Tableau:
    """Slide both trails of ``t`` at once; the conflict rule overrides S, B and J."""
    placements = _trail_placements(col, x) + _trail_placements(row, y)  # later ones win
    if report.variant != "disjoint":
        s_box, s = report.s_box, report.s
        if s is None:  # S ends both trails: B and J are its right and upper neighbors.
            b_box, j_box = (s_box[0], s_box[1] + 1), (s_box[0] + 1, s_box[1])
        else:  # B and J follow S in the column and in the row trail.
            b_box, j_box = col.boxes[s_box[1] + 1], row.boxes[s_box[0] + 1]
        targets = zip((s_box, b_box, j_box), resolve_conflict(report.a, report.i, s))
        placements += [(box, v) for box, v in targets if v is not None]
    try:
        return _apply_placements(t, placements)
    except TableauError as err:
        raise InvalidResult(f"fused slide produced an invalid tableau: {err}") from err


def commute_check(t: Tableau, x: Label, y: Label) -> CommutationReport:
    """Compare (x→T)←y, x→(T←y), and the fused one-pass computation.

    Each of the four insertions runs once and the trails are classified once;
    the report keeps both trails of T, the single insertions, and the row
    trail of (x→T)←y.  ``left`` and ``right`` share no code with the fused slide.
    The first two insertions check x and y; any error raised after them is the
    analysis's own and leaves as an ``InvariantViolation``.
    """
    if x == y:
        raise LabelsNotDistinct(f"x and y must differ, got {x}")
    after_col, col_trail = column_insert(x, t)
    after_row, row_trail = row_insert(t, y)
    try:
        left, left_row_trail = row_insert(after_col, y)
        right, _ = column_insert(x, after_row)
        intersection = classify_intersection(row_trail, col_trail, x, y)
        fused = _fused(t, x, y, col_trail, row_trail, intersection)
    except InvariantViolation:
        raise
    except Exception as err:
        raise InvariantViolation(f"{type(err).__name__}: {err}") from err
    return CommutationReport(
        left=left,
        right=right,
        fused=fused,
        intersection=intersection,
        all_equal=left == right == fused,
        after_col=after_col,
        col_trail=col_trail,
        after_row=after_row,
        row_trail=row_trail,
        left_row_trail=left_row_trail,
    )


def trail_agreement(report: CommutationReport) -> Optional[str]:
    """Compare the row trails of T←y and (x→T)←y around the crossing row.

    Requires a strong intersection at some box S.  Returns the name of the first
    part where the two trails differ in boxes or labels, or None when they agree
    on all three: every row strictly below S's row; the part-II hypothesis, their
    first box above the crossing row, which the third part implies and which is
    compared before it so that its failure shows alone; every row strictly above.
    """
    inter = report.intersection
    if inter.variant != "strong":
        raise NotAStrongIntersection(f"intersection is {inter.variant}")
    k = inter.s_box[0]
    before, after = report.row_trail, report.left_row_trail
    for name, part in (
        ("trail_agreement_below", slice(k)),
        ("part_ii_hypothesis", slice(k + 1, k + 2)),  # a created box agrees only with a created box
        ("trail_agreement_above", slice(k + 1, None)),
    ):
        if before.boxes[part] != after.boxes[part] or before.labels[part] != after.labels[part]:
            return name
    return None
