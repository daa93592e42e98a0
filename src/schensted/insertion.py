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
from operator import ge, itemgetter, lt
from typing import Iterable, Literal, NamedTuple

from .tableau import BoxCoord, Label, Tableau, TableauError, _check_writes, check_label

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

    @property
    def created_box(self) -> BoxCoord:
        return self.boxes[-1]


def validate_trail(trail: Trail) -> None:
    """Check every structural trail invariant; raise on the first violation."""
    boxes, labels = trail.boxes, trail.labels
    if not boxes:
        raise TrailInvariantViolation("trail has no boxes")
    if len(labels) != len(boxes) - 1 or None in labels:
        raise TrailInvariantViolation("every box but the created one must carry a label")
    if any(map(ge, labels, labels[1:])):
        raise TrailInvariantViolation("trail labels must strictly increase")
    # Step k lies in row (column) k; the other coordinate weakly decreases.
    line, across, own = ("row", "columns", 0) if trail.kind == "row" else ("column", "rows", 1)
    if list(map(itemgetter(own), boxes)) != list(range(len(boxes))):
        k = next(k for k, box in enumerate(boxes) if box[own] != k)
        raise TrailInvariantViolation(f"{line}-trail step {k} not in {line} {k}")
    coords = list(map(itemgetter(1 - own), boxes))
    if any(map(lt, coords, coords[1:])):
        raise TrailInvariantViolation(f"{line}-trail {across} must weakly decrease")


def _bump(
    rows: list[list[Label] | tuple[Label, ...]], x: Label, by_column: bool = False
) -> tuple[list[BoxCoord], list[Label]]:
    """Bump ``x`` through the rows of ``rows``, or through its columns, in place.

    Row k (column k) swaps the incoming value for its smallest larger entry,
    which moves on to row (column) k + 1; a larger value is appended, past the
    last row opening a new one.  Column k is ``rows[r][k]`` for the first
    ``height`` rows: one box per column, no transposing.  Rows are written as
    lists, a tuple row copied on its first write; rows not written stay as they
    are.  Returns the ``(row, col)`` box of each step and the labels bumped out
    of them.
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
            rows.append([x])
            return boxes, labels
        row = rows[r]
        if type(row) is tuple:
            row = rows[r] = list(row)
        if c == len(row):
            row.append(x)
            return boxes, labels
        labels.append(row[c])
        row[c], x = x, row[c]


def _insert(t: Tableau, x: Label, kind: TrailKind) -> tuple[Tableau, Trail]:
    check_label(x)
    base, added = t._index()
    if x in base or x in added:
        raise XAlreadyPresent(f"{x} already present in tableau")
    rows = list(t.rows)
    boxes, labels = _bump(rows, x, by_column=kind == "column")
    for r, _ in boxes:  # the rows the bump wrote; tuple() returns a row already turned back
        rows[r] = tuple(rows[r])
    result = Tableau._trusted(tuple(rows), (base, added + (x,)))
    return result, Trail(kind, tuple(boxes), tuple(labels))


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
    and TrailInconsistentWithTableau if the trail is empty, ends in a box of the tableau, or has a
    box before the last that is unlabeled or whose label is not the tableau's.
    """
    check_label(inserted)  # before hashing it
    if inserted in t:
        raise XAlreadyPresent(f"{inserted} already present in tableau")
    boxes, labels = trail.boxes, trail.labels
    rows = t.rows
    n = len(rows)
    r, c = boxes[-1] if boxes else (0, 0)  # the created box
    if not boxes or 0 <= r < n and 0 <= c < len(rows[r]):  # Tableau.get inlined, as below
        raise TrailInconsistentWithTableau("trail does not end in a new box")
    if len(labels) != len(boxes) - 1 or None in labels:
        raise TrailInconsistentWithTableau("every box but the created one must carry a label")
    for (r, c), label in zip(boxes, labels):  # Tableau.get inlined: a negative index would wrap
        if not (0 <= r < n and 0 <= c < len(rows[r])) or rows[r][c] != label:
            raise TrailInconsistentWithTableau(f"box {(r, c)} does not hold label {label}")
    return _apply_placements(t, _trail_placements(trail, inserted))


def _trail_placements(trail: Trail, inserted: Label) -> list[tuple[BoxCoord, Label]]:
    """Normal sliding: box k receives the previous label, box 0 the inserted value."""
    return list(zip(trail.boxes, (inserted,) + trail.labels))


def _apply_placements(t: Tableau, placements: Iterable[tuple[BoxCoord, Label]]) -> Tableau:
    """Write each ``(box, label)`` into a copy of ``t`` in the order given, leaving no gap.

    Boxes are written in the order of their first placement, each with its last label.
    A new box named before its left neighbour leaves a gap.  No caller needs a sort: a
    trail has one new box, its last; the fused slide's two created boxes lie in different
    rows or are one box S, and in the shared-empty case B or J is named after S.
    Only what the writes can break is checked, each label by ``check_label`` before
    ``_check_writes`` hashes or compares it.  Only the rows written are copied, and only
    they are turned back into tuples: the result shares every other row with ``t``.
    """
    rows = list(t.rows)
    n = len(rows)  # the row count, one more for each row opened
    written = dict(placements)
    copied, overwritten = [], []
    for (r, c), label in written.items():
        if 0 <= r < n and 0 <= c <= len(row := rows[r]):  # the box's one bounds test
            if type(label) is not int or label < 0:
                check_label(label)
            if type(row) is tuple:
                row = rows[r] = list(row)
                copied.append(r)
            if c < len(row):  # a box of t: each box is written once, so it still holds t's label
                overwritten.append(row[c])
                row[c] = label
            else:
                row.append(label)
        elif r == n and c == 0:  # opens row n with its label
            if type(label) is not int or label < 0:
                check_label(label)
            rows.append([label])
            copied.append(r)
            n += 1
        else:
            raise TableauError(f"placing {label} at {(r, c)} leaves a gap", (r, c))
    _check_writes(t, rows, written, overwritten)
    for r in copied:
        rows[r] = tuple(rows[r])
    return Tableau._trusted(tuple(rows))
