"""Row and column bumping insertion with full trail recording.

The trail of an insertion is its boxes plus the labels they held: the boxes it
activates, ending at the newly created box, and the label each box but the
created one held *before* the insertion.  The insertion itself can be
reconstructed from the trail alone: slide every trail label to the next trail
box and drop the inserted value into the first box (see :func:`slide_trail`).
Both directions run one bumping loop, which records the box of every step.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import count
from operator import ge, itemgetter
from typing import Iterable, Literal, NamedTuple

from .tableau import BoxCoord, ColumnNotIncreasing, DuplicateLabel, Label, RowNotIncreasing
from .tableau import ShapeNotFerrers, Tableau, TableauError, check_label

TrailKind = Literal["row", "column"]


class XAlreadyPresent(ValueError):
    pass


class TrailInconsistentWithTableau(ValueError):
    pass


class InvariantViolation(AssertionError):
    """A computed result breaks an invariant the library relies on (never expected)."""


class TrailInvariantViolation(InvariantViolation):
    """A produced trail breaks one of its structural invariants."""


class Trail(NamedTuple):
    kind: TrailKind
    boxes: tuple[BoxCoord, ...]  # step k in row (column) k; the last is the created box
    labels: tuple[Label, ...]  # the label each box but the created one held


def validate_trail(trail: Trail) -> None:
    """Check every structural trail invariant; raise on the first violation."""
    boxes, labels = trail.boxes, trail.labels
    if len(labels) != len(boxes) - 1 or None in labels:
        raise TrailInvariantViolation("every box but the created one must carry a label")
    if any(map(ge, labels, labels[1:])):
        raise TrailInvariantViolation("trail labels must strictly increase")
    # Step k lies in row (column) k; the other coordinate weakly decreases.
    line, across, own = ("row", "columns", 0) if trail.kind == "row" else ("column", "rows", 1)
    for k, box in enumerate(boxes):  # a loop: on a trail's few boxes, faster than map()
        if box[own] != k:
            raise TrailInvariantViolation(f"{line}-trail step {k} not in {line} {k}")
    for a, b in zip(boxes, boxes[1:]):
        if a[1 - own] < b[1 - own]:
            raise TrailInvariantViolation(f"{line}-trail {across} must weakly decrease")


def _bump(
    rows: list[list[Label] | tuple[Label, ...]], x: Label, by_column: bool = False
) -> tuple[list[BoxCoord], list[Label]]:
    """Bump ``x`` through the rows of ``rows``, or through its columns, in place.

    Row k (column k) swaps the incoming value for its smallest larger entry,
    which moves on to row (column) k + 1; a larger value is appended.  Past the
    last row a new row is opened empty and written like any other, as in
    ``render_tableau``.  Column k is ``rows[r][k]`` for the first ``height``
    rows: one box per column, no transposing.  Rows are written as lists, a
    tuple row copied on its first write; rows not written stay as they are.
    Returns the ``(row, col)`` box of each step and the labels bumped out of them.
    """
    boxes, labels = [], []
    n = height = len(rows)  # n stays the row count until the bump ends
    for k in count():
        if by_column:
            while height and len(rows[height - 1]) <= k:
                height -= 1  # rows that reach column k
            r, c = bisect_left(rows, x, 0, height, key=itemgetter(k)), k
        elif k < n:
            r, c = k, bisect_left(rows[k], x)
        else:
            r, c = n, 0
        boxes.append((r, c))
        if r == n:
            rows.append([])
        row = rows[r]
        if type(row) is tuple:
            row = rows[r] = list(row)
        if c == len(row):
            row.append(x)
            return boxes, labels
        labels.append(row[c])
        row[c], x = x, row[c]


def _insert(t: Tableau, x: Label, kind: TrailKind) -> tuple[Tableau, Trail]:
    if type(x) is not int or x < 0:  # the common case skips the call
        check_label(x)
    if x in t:
        raise XAlreadyPresent(f"{x} already present in tableau")
    return _grow(t, x, kind)


def _grow(t: Tableau, x: Label, kind: TrailKind) -> tuple[Tableau, Trail]:
    """Insert ``x`` unchecked: the caller knows it is a natural not in ``t``."""
    rows = list(t.rows)
    boxes, labels = _bump(rows, x, by_column=kind == "column")
    for r, _ in boxes:  # the rows the bump wrote; tuple() returns a row already turned back
        rows[r] = tuple(rows[r])
    return Tableau._trusted(tuple(rows)), Trail(kind, tuple(boxes), tuple(labels))


def row_insert(t: Tableau, x: Label) -> tuple[Tableau, Trail]:
    """Insert ``x`` by rows (T ← x), bumping upward from the first row."""
    return _insert(t, x, "row")


def column_insert(x: Label, t: Tableau) -> tuple[Tableau, Trail]:
    """Insert ``x`` by columns (x → T), bumping rightward from the first column."""
    return _insert(t, x, "column")


def slide_trail(t: Tableau, trail: Trail, inserted: Label) -> Tableau:
    """Rebuild an insertion result from its trail.

    Each labeled step's label moves to the next step's box and ``inserted`` fills the first box.
    Raises TableauError unless ``inserted`` is a natural, XAlreadyPresent if it is in the tableau,
    and TrailInconsistentWithTableau unless the trail has one label fewer than boxes, ends in a
    box not in the tableau, and labels every other box with the tableau's label there.
    """
    if type(inserted) is not int or inserted < 0:  # before hashing it
        check_label(inserted)
    if inserted in t:
        raise XAlreadyPresent(f"{inserted} already present in tableau")
    boxes, labels = trail.boxes, trail.labels
    if len(labels) != len(boxes) - 1:
        raise TrailInconsistentWithTableau("every box but the created one must carry a label")
    rows = t.rows
    n = len(rows)
    r, c = boxes[-1]  # the created box
    if 0 <= r < n and 0 <= c < len(rows[r]):  # a negative index would wrap
        raise TrailInconsistentWithTableau("trail does not end in a new box")
    for (r, c), label in zip(boxes, labels):  # a negative index would wrap
        if not (0 <= r < n and 0 <= c < len(rows[r])) or rows[r][c] != label:
            raise TrailInconsistentWithTableau(f"box {(r, c)} does not hold label {label}")
    return _apply_placements(t, _trail_placements(trail, inserted))


def _trail_placements(trail: Trail, inserted: Label) -> list[tuple[BoxCoord, Label]]:
    """Normal sliding: box k receives the previous label, box 0 the inserted value."""
    return list(zip(trail.boxes, (inserted,) + trail.labels))


def _apply_placements(t: Tableau, placements: Iterable[tuple[BoxCoord, Label]]) -> Tableau:
    """Write each ``(box, label)`` into a copy of ``t`` in the order given, then check the result.

    Boxes are written in the order of their first placement, each with its last label.
    A new box named before its left neighbour leaves a gap.  Box ``(n, 0)`` opens row n
    empty, to be written like any other, as in ``render_tableau``.  No caller needs a
    sort: a trail has one new box, its last; the fused slide's two created boxes lie in
    different rows or are one box S, and in the shared-empty case B or J is named after S.
    Only the rows written are copied, and only they are turned back into tuples, each
    once its box is checked: the result shares every other row with ``t``.

    Only what the writes can break is checked, each label by ``check_label`` before it
    is hashed or compared.  The result is a tableau exactly when each written box is
    ordered against its left, right, lower and upper neighbours and, above row 0, has a
    lower neighbour, and the written labels are distinct, those new to ``t`` (not the
    old label of an overwritten box) absent from ``t``.  This uses nothing of why the
    labels were written: two adjacent boxes not written are adjacent in ``t``; a row
    longer than the row below ends in a written box outside ``t`` with no lower
    neighbour; and a written label also found at a box not written is that box's label
    in ``t``, so, ``t``'s labels being distinct, no overwritten box's old label: it is new.
    """
    rows = list(t.rows)
    n = len(rows)  # the row count, one more for each row opened
    written = dict(placements)
    overwritten = []
    for (r, c), label in written.items():
        if r == n and c == 0:  # opens row n empty
            rows.append(row := [])
            n += 1
        elif not (0 <= r < n and 0 <= c <= len(row := rows[r])):  # the box's one bounds test
            raise TableauError(f"placing {label} at {(r, c)} leaves a gap", (r, c))
        if type(label) is not int or label < 0:
            check_label(label)
        if type(row) is tuple:
            row = rows[r] = list(row)
        if c < len(row):  # a box of t: each box is written once, so it still holds t's label
            overwritten.append(row[c])
            row[c] = label
        else:
            row.append(label)
    for (r, c), v in written.items():
        row = rows[r]
        if c and row[c - 1] >= v or c + 1 < len(row) and v >= row[c + 1]:
            raise RowNotIncreasing(f"row {r} not strictly increasing around column {c}", (r, c))
        if r:  # row 0 has no lower neighbour
            if c >= len(below := rows[r - 1]):
                raise ShapeNotFerrers(f"row {r} is longer than row {r - 1}", (r, c))
            if below[c] >= v:
                raise ColumnNotIncreasing(f"column {c} not strictly increasing around row {r}", (r, c))
        if r + 1 < n and c < len(above := rows[r + 1]) and v >= above[c]:
            raise ColumnNotIncreasing(f"column {c} not strictly increasing around row {r}", (r, c))
        rows[r] = tuple(row)  # a row already turned back stays as it is
    labels = set(written.values())
    if len(labels) != len(written):
        raise DuplicateLabel("a label is written twice")
    new = labels.difference(overwritten)
    if not new.isdisjoint(t.labels):
        raise DuplicateLabel(f"written labels {sorted(new & t.labels)} are in the tableau")
    return Tableau._trusted(tuple(rows))
