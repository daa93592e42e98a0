"""Young tableau value type, validity rules, and the plain-text file format.

A tableau is stored as a tuple of rows, row 0 being the first row (drawn at
the bottom in the French convention).  Rows and columns increase strictly and
all labels are pairwise distinct naturals.

Validation runs only at the boundaries, where rows come from outside or from
the step under test:

- ``Tableau(...)`` and ``parse_tableau``;
- ``insertion._apply_placements``, the one placement step, which writes and
  checks only the boxes placed: the fused result and the ``slide_trail``
  reconstructions.  ``_validate``, the full check, is its independent oracle;
- the tableaux ``P`` and ``Q`` that ``rsk`` returns, each once per word;
- one labelled tableau per SYT in ``harness.enumerate_cases``, shared by its cases;
- each inserted value (``check_label``): ``row_insert``, ``column_insert``, ``slide_trail``, ``rsk``.

Rows the library derives itself from a valid tableau (bumping, transposing,
enumerating) are wrapped by the private ``Tableau._trusted`` without a check.

``Tableau.labels`` is the frozenset of a tableau's labels, formed from its
rows on first read; the placement step reads it.  A result of ``row_insert``
or ``column_insert`` copies no index: it keeps the index of the tableau its
chain of insertions started from and the tuple of labels inserted since, and
``v in t`` reads those two.  ``v in t`` and the next insertion scan that tuple,
and the next insertion copies it, so both cost one step per insertion chained;
``check_case`` chains two.  Neither is a field: ``==``, ``hash`` and ``repr``
read the rows alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Optional

Label = int
BoxCoord = tuple[int, int]  # (row, col), both 0-based
Shape = tuple[int, ...]
Rows = tuple[tuple[Label, ...], ...]
Index = tuple[frozenset[Label], tuple[Label, ...]]  # a formed label index, the labels added since


class TableauError(ValueError):
    """A tableau invariant is violated; ``box`` points at the offender."""

    def __init__(self, message: str, box: Optional[BoxCoord] = None):
        super().__init__(message)
        self.box = box


class ShapeNotFerrers(TableauError):
    pass


class RowNotIncreasing(TableauError):
    pass


class ColumnNotIncreasing(TableauError):
    pass


class DuplicateLabel(TableauError):
    pass


def check_label(v: object) -> None:
    """Raise TableauError unless ``v`` is a natural number (``bool`` excluded)."""
    if type(v) is int and v >= 0:  # the common case returns before the isinstance tests
        return
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise TableauError(f"label {v!r} is not a natural")


def _validate(rows: Rows) -> None:  # the placement step's oracle: share no code with it
    for r, row in enumerate(rows):
        if len(row) == 0:
            raise ShapeNotFerrers(f"row {r} is empty", (r, 0))
        if r > 0 and len(row) > len(rows[r - 1]):
            raise ShapeNotFerrers(f"row {r} is longer than row {r - 1}", (r, len(rows[r - 1])))
    row_of: dict[Label, int] = {}  # each label's row; its column is looked up only to report it
    below: tuple[Label, ...] = ()
    for r, row in enumerate(rows):
        left = -1  # below every natural: column 0 has no left neighbour
        for c, v in enumerate(row):
            # check_label, inlined (a call per cell costs a third); an exact int skips isinstance
            if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)) or v < 0:
                raise TableauError(f"label {v!r} at {(r, c)} is not a natural", (r, c))
            if left >= v:
                raise RowNotIncreasing(f"row {r} not strictly increasing at column {c}", (r, c))
            if r and below[c] >= v:
                raise ColumnNotIncreasing(f"column {c} not strictly increasing at row {r}", (r, c))
            if v in row_of:
                first = (row_of[v], rows[row_of[v]].index(v))
                raise DuplicateLabel(f"label {v} appears at {first} and {(r, c)}", (r, c))
            row_of[v] = r
            left = v
        below = row


@dataclass(frozen=True)
class Tableau:
    """Immutable tableau; ``rows[0]`` is the first (bottom) row."""

    rows: Rows = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))  # results share rows
        _validate(self.rows)

    @classmethod
    def _trusted(cls, rows: Rows, index: Optional[Index] = None) -> "Tableau":
        """Wrap valid rows without ``_validate``; ``index``, when given, holds their labels."""
        t = object.__new__(cls)
        state = t.__dict__  # written directly: the dataclass is frozen
        state["rows"] = rows
        if index is not None:
            state["_index_parts"] = index
        return t

    def _index(self) -> Index:
        """Every label: the index a chain of insertions started from, the labels inserted since."""
        return self.__dict__.get("_index_parts") or (self.labels, ())

    @cached_property
    def labels(self) -> frozenset[Label]:
        """Every label of the tableau."""
        return frozenset(chain.from_iterable(self.rows))

    @property
    def shape(self) -> Shape:
        return tuple(len(row) for row in self.rows)

    def transpose(self) -> "Tableau":
        """Reflect across the diagonal: box (r, c) moves to (c, r)."""
        rows = self.rows
        width = len(rows[0]) if rows else 0
        return Tableau._trusted(
            tuple(tuple(row[c] for row in rows if len(row) > c) for c in range(width))
        )

    def __contains__(self, v: Label) -> bool:
        base, added = self._index()
        return v in base or v in added


def parse_tableau(text: str) -> Tableau:
    """Parse the plain-text tableau format.

    One row per line, labels as space-separated decimal naturals, ``#``
    starts a comment, blank lines are ignored, an empty file is the empty
    tableau.  Rows are expected row 0 first.  Column 0 increases from row 0,
    so lines are in display order (French rendering puts row 0 last) exactly
    when the first line's first label is larger than the last line's; they
    are then reversed, and rendered output parses back to the same tableau.
    """
    rows: list[tuple[Label, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise TableauError(f"line {lineno}: labels must be decimal naturals")
        rows.append(tuple(map(int, tokens)))
    if rows and rows[0][0] > rows[-1][0]:
        rows.reverse()
    return Tableau(tuple(rows))


def dump_tableau(t: Tableau) -> str:
    """Serialize in the storage order (row 0 first); inverse of parse_tableau."""
    return "\n".join(" ".join(str(v) for v in row) for row in t.rows)
