"""Row and column bumping insertion with full trail recording.

The trail of an insertion is the sequence of boxes it activates, each carrying
the label that box held *before* the insertion, followed by the newly created
box (which is unlabeled).  The insertion itself can be reconstructed from the
trail alone: slide every trail label to the next trail box and drop the
inserted value into the first box (see :func:`slide_trail`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import count
from operator import itemgetter
from typing import Iterable, Literal, NamedTuple, Optional

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


class TrailStep(NamedTuple):
    box: BoxCoord
    label: Optional[Label]  # None only for the final, newly created box


@dataclass(frozen=True)
class Trail:
    kind: TrailKind
    steps: tuple[TrailStep, ...]
    boxes: tuple[BoxCoord, ...] = field(init=False, repr=False, compare=False)
    labels: tuple[Label, ...] = field(init=False, repr=False, compare=False)  # final box excluded

    def __post_init__(self) -> None:
        # Built once: read many times per case, and a cached_property costs more.
        boxes, labels = zip(*self.steps) if self.steps else ((), ())
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "labels", labels[:-1])

    @property
    def created_box(self) -> BoxCoord:
        return self.steps[-1].box


def validate_trail(trail: Trail) -> None:
    """Check every structural trail invariant; raise on the first violation."""
    steps = trail.steps
    if not steps:
        raise TrailInvariantViolation("trail has no steps")
    if steps[-1].label is not None:
        raise TrailInvariantViolation("final trail step must be unlabeled")
    for s in steps[:-1]:
        if s.label is None:
            raise TrailInvariantViolation("only the final step may be unlabeled")
    labels = trail.labels
    if any(u >= v for u, v in zip(labels, labels[1:])):
        raise TrailInvariantViolation("trail labels must strictly increase")
    # Step k lies in row (column) k; the other coordinate weakly decreases.
    line, other = ("row", 1) if trail.kind == "row" else ("column", 0)
    for k, s in enumerate(steps):
        if s.box[1 - other] != k:
            raise TrailInvariantViolation(f"{line}-trail step {k} not in {line} {k}")
    coords = [s.box[other] for s in steps]
    if any(a < b for a, b in zip(coords, coords[1:])):
        across = "columns" if line == "row" else "rows"
        raise TrailInvariantViolation(f"{line}-trail {across} must weakly decrease")


def _bump(
    rows: list[list[Label] | tuple[Label, ...]], x: Label, by_column: bool = False
) -> list[tuple[BoxCoord, Optional[Label]]]:
    """Bump ``x`` through the rows of ``rows``, or through its columns, in place.

    Row k (column k) swaps the incoming value for its smallest larger entry,
    which moves on to row (column) k + 1; a larger value is appended, past the
    last row opening a new one.  Column k is ``rows[r][k]`` for the first
    ``height`` rows: one box per column, no transposing.  Rows are written as
    lists, a tuple row copied on its first write; rows not written stay as they
    are.  Returns ``((row, col), bumped label or None)`` per step.
    """
    steps = []
    n = height = len(rows)  # n stays the row count until the bump ends
    for k in count():
        if by_column:
            while height and len(rows[height - 1]) <= k:
                height -= 1  # rows that reach column k
            r = bisect_left(rows, x, 0, height, key=itemgetter(k))
            c = k
        elif k < n:
            r = k
            c = bisect_left(rows[k], x)
        else:
            r = n
            c = 0
        if r == n:
            rows.append([])
        row = rows[r]
        if type(row) is tuple:
            row = rows[r] = list(row)
        if c == len(row):
            row.append(x)
            steps.append(((r, c), None))
            return steps
        bumped = row[c]
        steps.append(((r, c), bumped))
        row[c] = x
        x = bumped


def insert_into_row(row: tuple[Label, ...], x: Label) -> tuple[tuple[Label, ...], Optional[Label]]:
    """Bump ``x`` into one strictly increasing row: the first step of ``_bump``.

    Appends when ``x`` exceeds everything; otherwise replaces the smallest
    element greater than ``x`` and reports it as bumped.
    """
    if x in row:
        raise XAlreadyPresent(f"{x} already present in row")
    rows = [row]
    _, bumped = _bump(rows, x)[0]
    return tuple(rows[0]), bumped


def row_insert(t: Tableau, x: Label) -> tuple[Tableau, Trail]:
    """Insert ``x`` by rows (T ← x), bumping upward from the first row."""
    check_label(x)
    if x in t:
        raise XAlreadyPresent(f"{x} already present in tableau")
    rows = list(t.rows)
    steps = tuple(map(TrailStep._make, _bump(rows, x)))
    return Tableau._trusted(tuple(map(tuple, rows))), Trail("row", steps)


def column_insert(x: Label, t: Tableau) -> tuple[Tableau, Trail]:
    """Insert ``x`` by columns (x → T), bumping rightward from the first column."""
    check_label(x)
    if x in t:
        raise XAlreadyPresent(f"{x} already present in tableau")
    rows = list(t.rows)
    steps = tuple(map(TrailStep._make, _bump(rows, x, by_column=True)))
    return Tableau._trusted(tuple(map(tuple, rows))), Trail("column", steps)


def slide_trail(t: Tableau, trail: Trail, inserted: Label) -> Tableau:
    """Rebuild an insertion result from its trail.

    Each labeled step's label moves to the next step's box and ``inserted``
    fills the first box.  Raises TrailInconsistentWithTableau when the trail
    is empty, ends in a box of the tableau, or has a step before the last that
    is unlabeled or does not match the tableau it claims to come from.
    """
    if inserted in t:
        raise XAlreadyPresent(f"{inserted} already present in tableau")
    if not trail.steps or t.get(trail.created_box) is not None:
        raise TrailInconsistentWithTableau("trail does not end in a new box")
    for step in trail.steps[:-1]:
        if step.label is None or t.get(step.box) != step.label:
            raise TrailInconsistentWithTableau(
                f"box {step.box} does not hold label {step.label}"
            )
    return _apply_placements(t, _trail_placements(trail, inserted))


def _trail_placements(trail: Trail, inserted: Label) -> list[tuple[BoxCoord, Label]]:
    """Normal sliding: box k receives the previous label, box 0 the inserted value."""
    return list(zip(trail.boxes, (inserted,) + trail.labels))


def _apply_placements(t: Tableau, placements: Iterable[tuple[BoxCoord, Label]]) -> Tableau:
    """Write each ``(box, label)`` into a copy of ``t`` in (row, col) order, leaving no gap.

    A later placement to the same box wins; only what the writes can break is checked.
    """
    rows = [list(row) for row in t.rows]
    written = sorted(dict(placements).items(), key=itemgetter(0))
    for (r, c), label in written:
        if 0 <= r < len(rows) and 0 <= c < len(rows[r]):
            rows[r][c] = label
        elif 0 <= r < len(rows) and c == len(rows[r]):
            rows[r].append(label)
        elif r == len(rows) and c == 0:
            rows.append([label])
        else:
            raise TableauError(f"placing {label} at {(r, c)} leaves a gap", (r, c))
    _check_writes(t, rows, written)
    return Tableau._trusted(tuple(map(tuple, rows)))
