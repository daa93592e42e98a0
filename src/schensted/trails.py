"""Geometric trails, intersection classification, and the adjacency analysis.

A trail becomes a broken line through the centers of its boxes.  Step k of a
row trail lies in row k and step k of a column trail in column k, so every
row-trail segment spans one row band and every column-trail segment one
column band.  No vertex of one trail can then lie inside a segment of the
other: the two broken lines touch either at a shared box or by a strict
crossing, which integer cross products detect exactly.  They are taken on the
(row, col) coordinates themselves: the map to box centers is a translation, a
positive scaling and an axis swap.  Translation and scaling keep the sign of
every cross product; the swap flips every sign, which leaves each product of
two cross products, and so each crossing test, unchanged.

Two trails on the same tableau either share no point (disjoint), share only
their final unlabeled box, or share exactly one labeled box S.  In the last
case the neighbors of S inside the two trails are reported: ``a``/``b`` are
the column-trail predecessor and successor labels, ``i``/``j`` the row-trail
ones, with ``a`` defaulting to the column-inserted value and ``i`` to the
row-inserted one when S starts its trail.  S is step ``s_box[0]`` of the row
trail and step ``s_box[1]`` of the column trail; both lemma checks on S read it
from the ``commute_check`` report.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Literal, NamedTuple, Optional

from .insertion import InvariantViolation, Trail
from .tableau import BoxCoord, Label

if TYPE_CHECKING:  # fused imports this module
    from .fused import CommutationReport

Variant = Literal["disjoint", "shared_empty_box", "strong"]

# The only adjacency patterns possible around a shared labeled box, as letters in the order I, A, J, B.
CONFIGURATIONS = ("JB", "IJB", "AJB", "IJ", "AB")


class WeakIntersectionDetected(InvariantViolation):
    """The broken lines cross away from a shared box center (never expected)."""


class MultipleSharedBoxes(InvariantViolation):
    """The trails share more than one box (never expected)."""


class ImpossibleConfiguration(InvariantViolation):
    """The adjacency pattern around S is not one of the five possible ones."""


class NotAStrongIntersection(ValueError):
    pass


class IntersectionReport(NamedTuple):
    variant: Variant
    s_box: Optional[BoxCoord] = None
    s: Optional[Label] = None
    a: Optional[Label] = None
    b: Optional[Label] = None
    i: Optional[Label] = None
    j: Optional[Label] = None
    configuration: Optional[str] = None


def _cross(o: BoxCoord, p: BoxCoord, q: BoxCoord) -> int:
    return (p[0] - o[0]) * (q[1] - o[1]) - (q[0] - o[0]) * (p[1] - o[1])


def _cross_strictly(p1: BoxCoord, p2: BoxCoord, q1: BoxCoord, q2: BoxCoord) -> bool:
    """Whether segments p1p2 and q1q2 cross at a point inside both."""
    return (
        _cross(q1, q2, p1) * _cross(q1, q2, p2) < 0
        and _cross(p1, p2, q1) * _cross(p1, p2, q2) < 0
    )


def classify_intersection(
    row_trail: Trail, col_trail: Trail, x: Label, y: Label
) -> IntersectionReport:
    """Classify how the row trail of T←y meets the column trail of x→T.

    Both trails must come from the same tableau.  Raises if the trails share
    more than one box or if their broken lines cross anywhere other than at
    the center of a shared box; either event would contradict the
    intersection lemmas and signals a bug (or a counterexample).  Raises
    ValueError for a trail whose step k is not in row (column) k.
    """
    if row_trail.kind != "row" or col_trail.kind != "column":
        raise ValueError("expected a row trail and a column trail")
    row_boxes = row_trail.boxes
    col_boxes = col_trail.boxes
    # The crossing test below is exact only when every segment spans one band.
    rows_in_band = list(map(itemgetter(0), row_boxes)) == list(range(len(row_boxes)))
    if not rows_in_band or list(map(itemgetter(1), col_boxes)) != list(range(len(col_boxes))):
        raise ValueError("trail step k must lie in row k (row trail) or column k (column trail)")
    shared = [bx for bx in row_boxes if 0 <= bx[1] < len(col_boxes) and col_boxes[bx[1]] == bx]
    if len(shared) > 1:
        raise MultipleSharedBoxes(f"trails share boxes {shared}")

    last = len(col_boxes) - 1  # column segment m joins boxes m and m + 1
    cols = list(map(itemgetter(1), row_boxes))
    for k, (a, b) in enumerate(zip(cols, cols[1:])):
        # Row segment k, from column a to column b, can only cross the column segments between.
        for m in range(b, min(a, last)) if b < a else range(a, min(b, last)):
            if _cross_strictly(row_boxes[k], row_boxes[k + 1], col_boxes[m], col_boxes[m + 1]):
                raise WeakIntersectionDetected(
                    f"row-trail segment {k} crosses column-trail segment {m}"
                )

    if not shared:
        return IntersectionReport("disjoint")

    s_box = shared[0]
    ri, ci = s_box  # S is step ri of the row trail and step ci of the column trail
    row_labels, col_labels = row_trail.labels, col_trail.labels
    row_final = ri == len(row_boxes) - 1
    col_final = ci == len(col_boxes) - 1
    if row_final != col_final:
        # A shared box empty in one trail but labeled in the other cannot happen.
        raise MultipleSharedBoxes(
            f"shared box {s_box} is final in exactly one trail"
        )
    a = col_labels[ci - 1] if ci > 0 else x
    i = row_labels[ri - 1] if ri > 0 else y
    if row_final:
        return IntersectionReport("shared_empty_box", s_box=s_box, a=a, i=i)

    s = row_labels[ri]
    if col_labels[ci] != s:
        raise MultipleSharedBoxes(f"shared box {s_box} labeled inconsistently")
    b = col_labels[ci + 1] if ci + 1 < len(col_labels) else None  # None when B is the created box
    j = row_labels[ri + 1] if ri + 1 < len(row_labels) else None
    configuration = (
        ("I" if ri > 0 and row_boxes[ri - 1] == (ri - 1, ci) else "")
        + ("A" if ci > 0 and col_boxes[ci - 1] == (ri, ci - 1) else "")
        + ("J" if row_boxes[ri + 1] == (ri + 1, ci) else "")
        + ("B" if col_boxes[ci + 1] == (ri, ci + 1) else "")
    )
    if configuration not in CONFIGURATIONS:
        raise ImpossibleConfiguration(f"adjacency {sorted(configuration)} around {s_box}")
    return IntersectionReport(
        "strong", s_box=s_box, s=s, a=a, b=b, i=i, j=j, configuration=configuration
    )


def check_relative_position(report: CommutationReport) -> bool:
    """Verify the separation of the trail parts around S in a ``commute_check`` report.

    In every column occupied by both, the row-trail part before S must lie
    strictly below the column-trail part after S; symmetrically, in every row
    occupied by both, the column-trail part before S must lie strictly to the
    left of the row-trail part after S.  The intersection must be strong.
    """
    if report.intersection.variant != "strong":
        raise NotAStrongIntersection(f"intersection is {report.intersection.variant}")
    ri, ci = report.intersection.s_box
    row_boxes, col_boxes = report.row_trail.boxes, report.col_trail.boxes
    # The other trail's box in column c (row r) is its step c (r), after S when c > ci (r > ri).
    below = all(k < col_boxes[c][0] for k, c in row_boxes[:ri] if ci < c < len(col_boxes))
    return below and all(m < row_boxes[r][1] for r, m in col_boxes[:ci] if ri < r < len(row_boxes))
