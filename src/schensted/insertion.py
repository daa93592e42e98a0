"""Row and column bumping insertion with full trail recording.

The trail of an insertion is the sequence of boxes it activates, each carrying
the label that box held *before* the insertion, followed by the newly created
box (which is unlabeled).  The insertion itself can be reconstructed from the
trail alone: slide every trail label to the next trail box and drop the
inserted value into the first box (see :func:`slide_trail`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import starmap
from operator import itemgetter
from typing import Iterable, Literal, Optional

from .tableau import BoxCoord, Label, Tableau, TableauError, check_label, transpose_rows

TrailKind = Literal["row", "column"]


class XAlreadyPresent(ValueError):
    pass


class TrailInconsistentWithTableau(ValueError):
    pass


class InvariantViolation(AssertionError):
    """A computed result breaks an invariant the library relies on (never expected)."""


class TrailInvariantViolation(InvariantViolation):
    """A produced trail breaks one of its structural invariants."""


@dataclass(frozen=True)
class TrailStep:
    box: BoxCoord
    label: Optional[Label]  # None only for the final, newly created box


@dataclass(frozen=True)
class Trail:
    kind: TrailKind
    steps: tuple[TrailStep, ...]

    @property
    def boxes(self) -> tuple[BoxCoord, ...]:
        return tuple(s.box for s in self.steps)

    @property
    def labels(self) -> tuple[Label, ...]:
        """Labels of the bumped boxes, in trail order (final box excluded)."""
        return tuple(s.label for s in self.steps[:-1])

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


def _bump(lines: list[tuple[Label, ...]], x: Label) -> list[tuple[BoxCoord, Optional[Label]]]:
    """Bump ``x`` through ``lines[0], lines[1], ...``, rewriting the lines in place.

    Each line swaps the incoming value for its smallest larger entry, which moves
    on; a value larger than the whole line (or past the last line) is appended.
    Returns ``((line, position), bumped label or None)`` per step.  Row insertion
    runs it on the rows, column insertion on the columns.
    """
    steps = []
    for k, line in enumerate(lines):
        pos = bisect_left(line, x)
        if pos == len(line):
            lines[k] = line + (x,)
            steps.append(((k, pos), None))
            return steps
        steps.append(((k, pos), line[pos]))
        lines[k] = line[:pos] + (x,) + line[pos + 1 :]
        x = line[pos]
    lines.append((x,))
    steps.append(((len(lines) - 1, 0), None))
    return steps


def insert_into_row(row: tuple[Label, ...], x: Label) -> tuple[tuple[Label, ...], Optional[Label]]:
    """Bump ``x`` into one strictly increasing row: the first step of ``_bump``.

    Appends when ``x`` exceeds everything; otherwise replaces the smallest
    element greater than ``x`` and reports it as bumped.
    """
    if x in row:
        raise XAlreadyPresent(f"{x} already present in row")
    lines = [row]
    _, bumped = _bump(lines, x)[0]
    return lines[0], bumped


def row_insert(t: Tableau, x: Label) -> tuple[Tableau, Trail]:
    """Insert ``x`` by rows (T ← x), bumping upward from the first row."""
    check_label(x)
    if x in t:
        raise XAlreadyPresent(f"{x} already present in tableau")
    rows = list(t.rows)
    steps = tuple(starmap(TrailStep, _bump(rows, x)))
    return Tableau._trusted(tuple(rows)), Trail("row", steps)


def column_insert(x: Label, t: Tableau) -> tuple[Tableau, Trail]:
    """Insert ``x`` by columns (x → T): row bumping on the columns of ``t``."""
    check_label(x)
    if x in t:
        raise XAlreadyPresent(f"{x} already present in tableau")
    cols = list(transpose_rows(t.rows))
    steps = tuple(TrailStep((r, c), label) for (c, r), label in _bump(cols, x))
    return Tableau._trusted(transpose_rows(cols)), Trail("column", steps)


def slide_trail(t: Tableau, trail: Trail, inserted: Label) -> Tableau:
    """Rebuild an insertion result from its trail.

    Each labeled step's label moves to the next step's box and ``inserted``
    fills the first box.  Raises TrailInconsistentWithTableau when the trail
    is empty, ends in a box of the tableau, or has a labeled step that does
    not match the tableau it claims to come from.
    """
    if inserted in t:
        raise XAlreadyPresent(f"{inserted} already present in tableau")
    if not trail.steps or t.get(trail.created_box) is not None:
        raise TrailInconsistentWithTableau("trail does not end in a new box")
    for step in trail.steps[:-1]:
        if t.get(step.box) != step.label:
            raise TrailInconsistentWithTableau(
                f"box {step.box} does not hold label {step.label}"
            )
    return _apply_placements(t, _trail_placements(trail, inserted))


def _trail_placements(trail: Trail, inserted: Label) -> list[tuple[BoxCoord, Label]]:
    """Normal sliding: box k receives the previous label, box 0 the inserted value."""
    return list(zip(trail.boxes, (inserted,) + trail.labels))


def _apply_placements(t: Tableau, placements: Iterable[tuple[BoxCoord, Label]]) -> Tableau:
    """Write each ``(box, label)`` into a copy of ``t`` in (row, col) order, leaving no gap."""
    rows = [list(row) for row in t.rows]
    for (r, c), label in sorted(placements, key=itemgetter(0)):
        if 0 <= r < len(rows) and 0 <= c < len(rows[r]):
            rows[r][c] = label
        elif 0 <= r < len(rows) and c == len(rows[r]):
            rows[r].append(label)
        elif r == len(rows) and c == 0:
            rows.append([label])
        else:
            raise TableauError(f"placing {label} at {(r, c)} leaves a gap", (r, c))
    return Tableau(tuple(map(tuple, rows)))
