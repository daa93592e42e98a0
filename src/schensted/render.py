"""ASCII and LaTeX rendering of tableaux, with optional trail annotation.

French orientation (first row at the bottom) is the default; English flips
the vertical order.  Each trail is marked in place by its kind, row trails
first: row-trail cells get a trailing underscore (ascii) or ``\\underline``
(latex), column-trail cells a leading bar, and each trail's newly created
box is drawn as ``*`` / ``\\emptyset``.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Literal

from .insertion import Trail
from .tableau import Tableau


def render_tableau(
    t: Tableau, *trails: Trail,
    convention: Literal["french", "english"] = "french", format: Literal["ascii", "latex"] = "ascii",
) -> str:
    """Render a tableau row by row, marking each trail by its kind; the plain ascii form parses back.

    Row trails are marked before column trails, in place.  Every box of a trail but its last
    must be in ``t``; the last, the new box, is drawn at the end of its row or as a new row.
    A trail box neither in ``t`` nor next to it that way raises ValueError.
    """
    latex = (r"\emptyset", r"\underline{%s}", r"\mid\!\!%s")  # the new box, row and column marks
    empty, under, bar = latex if format == "latex" else ("*", "%s_", "|%s")
    lines = [list(map(str, row)) for row in t.rows]
    for trail in sorted(trails, reverse=True):  # row trails first, as "row" > "column"
        mark = under if trail.kind == "row" else bar
        for r, c in trail.boxes:
            if r == len(lines) and c == 0:
                lines.append([])
            if not (0 <= r < len(lines) and 0 <= c <= len(lines[r])):
                raise ValueError(f"trail box {(r, c)} is neither in the tableau nor next to it")
            if c == len(lines[r]):
                lines[r].append(empty)
            lines[r][c] = mark % lines[r][c]
    if not lines:
        return "" if format == "ascii" else "\\begin{ytableau}\n\\end{ytableau}"
    if format == "latex":
        order = reversed(lines) if convention == "french" else lines
        body = " \\\\\n".join(" & ".join(line) for line in order)
        return "\\begin{ytableau}\n%s\n\\end{ytableau}" % body
    widths = [max(map(len, column)) for column in zip_longest(*lines, fillvalue="")]
    rendered = [" ".join(text.rjust(w) for text, w in zip(line, widths)) for line in lines]
    if convention == "french":
        rendered.reverse()
    return "\n".join(rendered)


def render_trail(trail: Trail) -> str:
    """One step per line: ``row col label``, with ``_`` for the final box."""
    return "\n".join(f"{r} {c} {label}" for (r, c), label in zip(trail.boxes, trail.labels + ("_",)))
