"""ASCII and LaTeX rendering of tableaux, with optional trail annotation.

French orientation (first row at the bottom) is the default; English flips
the vertical order.  With trails supplied, row-trail cells get a trailing
underscore (ascii) or ``\\underline`` (latex), column-trail cells a leading
bar, and each trail's newly created box is drawn as ``*`` / ``\\emptyset``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

from .insertion import Trail
from .tableau import BoxCoord, Tableau


@dataclass(frozen=True)
class RenderOptions:
    convention: Literal["french", "english"] = "french"
    format: Literal["ascii", "latex"] = "ascii"


def _cell_texts(
    t: Tableau, row_trail: Optional[Trail], col_trail: Optional[Trail], fmt: str
) -> dict[BoxCoord, str]:
    row_boxes = set(row_trail.boxes) if row_trail else set()
    col_boxes = set(col_trail.boxes) if col_trail else set()
    latex = (r"\emptyset", r"\underline{%s}", r"\mid\!\!%s")
    empty, under, bar = latex if fmt == "latex" else ("*", "%s_", "|%s")  # new box, trail marks
    cells: dict[BoxCoord, str] = {}
    boxes = {(r, c) for r, row in enumerate(t.rows) for c in range(len(row))}
    for box in boxes | row_boxes | col_boxes:
        label = t.get(box)
        text = str(label) if label is not None else empty
        if box in row_boxes:
            text = under % text
        if box in col_boxes:
            text = bar % text
        cells[box] = text
    return cells


def render_tableau(
    t: Tableau, options: RenderOptions = RenderOptions(),
    row_trail: Optional[Trail] = None, col_trail: Optional[Trail] = None,
) -> str:
    """Render a tableau, marking the trails given; the plain ascii form parses back."""
    cells = _cell_texts(t, row_trail, col_trail, options.format)
    if not cells:
        return "" if options.format == "ascii" else "\\begin{ytableau}\n\\end{ytableau}"
    nrows = max(r for r, _ in cells) + 1
    lines = []
    for r in range(nrows):
        cols = sorted(c for (rr, c) in cells if rr == r)
        lines.append([cells[(r, c)] for c in cols])
    if options.format == "latex":
        order = reversed(lines) if options.convention == "french" else lines
        body = " \\\\\n".join(" & ".join(line) for line in order)
        return "\\begin{ytableau}\n%s\n\\end{ytableau}" % body
    widths: dict[int, int] = {}
    for line in lines:
        for c, text in enumerate(line):
            widths[c] = max(widths.get(c, 0), len(text))
    rendered = [
        " ".join(text.rjust(widths[c]) for c, text in enumerate(line)).rstrip()
        for line in lines
    ]
    if options.convention == "french":
        rendered.reverse()
    return "\n".join(rendered)


def render_trail(trail: Trail) -> str:
    """One step per line: ``row col label``, with ``_`` for the final box."""
    return "\n".join(f"{r} {c} {label}" for (r, c), label in zip(trail.boxes, trail.labels + ("_",)))
