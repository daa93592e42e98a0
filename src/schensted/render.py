"""ASCII and LaTeX rendering of tableaux, with optional trail annotation.

French orientation (first row at the bottom) is the default; English flips
the vertical order.  With trails supplied, each trail cell is marked in place
in its row: row-trail cells get a trailing underscore (ascii) or
``\\underline`` (latex), column-trail cells a leading bar, and each trail's
newly created box is drawn as ``*`` / ``\\emptyset``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Literal, Optional

from .insertion import Trail
from .tableau import Tableau


@dataclass(frozen=True)
class RenderOptions:
    convention: Literal["french", "english"] = "french"
    format: Literal["ascii", "latex"] = "ascii"


def render_tableau(
    t: Tableau, options: RenderOptions = RenderOptions(),
    row_trail: Optional[Trail] = None, col_trail: Optional[Trail] = None,
) -> str:
    """Render a tableau row by row, marking the trails given; the plain ascii form parses back.

    Trail boxes are marked in place.  Every box of a trail but its last must be in
    ``t``; the last, the new box, is drawn at the end of its row or as a new row.
    A trail box neither in ``t`` nor next to it that way raises ValueError.
    """
    latex = (r"\emptyset", r"\underline{%s}", r"\mid\!\!%s")  # the new box, row and column marks
    empty, under, bar = latex if options.format == "latex" else ("*", "%s_", "|%s")
    lines = [list(map(str, row)) for row in t.rows]
    for trail, mark in ((row_trail, under), (col_trail, bar)):
        for r, c in trail.boxes if trail else ():
            if r == len(lines) and c == 0:
                lines.append([])
            if not (0 <= r < len(lines) and 0 <= c <= len(lines[r])):
                raise ValueError(f"trail box {(r, c)} is neither in the tableau nor next to it")
            if c == len(lines[r]):
                lines[r].append(empty)
            lines[r][c] = mark % lines[r][c]
    if not lines:
        return "" if options.format == "ascii" else "\\begin{ytableau}\n\\end{ytableau}"
    if options.format == "latex":
        order = reversed(lines) if options.convention == "french" else lines
        body = " \\\\\n".join(" & ".join(line) for line in order)
        return "\\begin{ytableau}\n%s\n\\end{ytableau}" % body
    widths = [max(map(len, column)) for column in zip_longest(*lines, fillvalue="")]
    rendered = [" ".join(text.rjust(w) for text, w in zip(line, widths)) for line in lines]
    if options.convention == "french":
        rendered.reverse()
    return "\n".join(rendered)


def render_trail(trail: Trail) -> str:
    """One step per line: ``row col label``, with ``_`` for the final box."""
    return "\n".join(f"{r} {c} {label}" for (r, c), label in zip(trail.boxes, trail.labels + ("_",)))
