"""Independent oracles: reference results that share no code with the path they check.

Each function here rebuilds a result of the library by a different route:

- ``shape``, ``conjugate`` and ``transpose``, the transpose-duality reference;
- ``growth_insertion_tableau`` (Fomin's growth diagram), ``jeu_de_taquin_tableau``
  (Schützenberger's rectification) and ``evacuation``, which give P of a word
  without bumping;
- ``reference_outcome``, which classifies how two trails meet by exact rational
  geometry, without the band rule.

The module imports only ``Tableau`` and exception classes from ``schensted``, so
no oracle calls the bumping, placement or trail code it is compared against;
``tests/test_oracles.py`` reads the imports and holds that.  The tests import
these functions, and so does ``frontier/oracle_sweep.py``.
"""

from fractions import Fraction
from itertools import zip_longest

from schensted import (
    ImpossibleConfiguration,
    MultipleSharedBoxes,
    Tableau,
    WeakIntersectionDetected,
)


def shape(t):
    """Row lengths of ``t``, row 0 first."""
    return tuple(len(row) for row in t.rows)


def conjugate(parts):
    """Conjugate (transposed) partition of a shape: the oracle for ``transpose``."""
    return tuple(sum(1 for n in parts if n > c) for c in range(parts[0])) if parts else ()


def transpose(t):
    """Reflect ``t`` across the diagonal, box (r, c) to (c, r), validated by ``Tableau(...)``."""
    width = len(t.rows[0]) if t.rows else 0
    return Tableau([[row[c] for row in t.rows if len(row) > c] for c in range(width)])


def growth_insertion_tableau(word):
    """P of a word of distinct labels, by Fomin's local rules on shapes alone.

    Cell (i, j) of the growth diagram holds the shape of P of the first i
    letters kept to the j smallest labels.  Its shape follows from the three
    below and to its left: a letter of rank j adds a box to the first row;
    otherwise two different neighbours give their union, and two equal ones
    that grew by a box in row r grow one more in row r + 1.  No insertion is
    run.  Fomin 1995; Stanley, EC2 7.13.
    """
    labels = sorted(word)
    m = len(labels)

    def grow(shape, r):
        return shape[:r] + (shape[r] + 1,) + shape[r + 1 :] if r < len(shape) else shape + (1,)

    def added_row(small, large):
        return next((r for r, part in enumerate(small) if part != large[r]), len(small))

    previous = [()] * (m + 1)  # previous[j]: the shape at (i - 1, j)
    for letter in word:
        current = [()]
        for j in range(1, m + 1):
            rho, mu, nu = previous[j - 1], previous[j], current[j - 1]
            if labels[j - 1] == letter:  # then rho == mu == nu
                current.append(grow(rho, 0))
            elif mu != nu:
                current.append(tuple(map(max, zip_longest(mu, nu, fillvalue=0))))
            elif mu == rho:
                current.append(mu)
            else:
                current.append(grow(mu, added_row(rho, mu) + 1))
        previous = current
    rows = []
    for j in range(1, m + 1):  # the label of rank j sits in the box that step j adds
        r = added_row(previous[j - 1], previous[j])
        if r == len(rows):
            rows.append([])
        rows[r].append(labels[j - 1])
    return Tableau(rows)


def jeu_de_taquin_tableau(t, x, y):
    """(x→T)←y as the rectification of the skew tableau x ∗ T ∗ y, by jeu de taquin.

    With T of shape λ and ℓ rows, row 0 of the skew tableau holds λ₁ + 1 inner
    cells and then y, row r + 1 one inner cell and then row r of T, and row
    ℓ + 1 holds x alone.  Its reading word is x·w(T)·y, so its rectification is
    P(x·w(T)·y), whatever order the slides take (Schützenberger 1977; Fulton,
    Young Tableaux, 1.2).  Each inner corner is slid out, the last inner row
    first: the hole takes the smaller of its right and upper neighbours until it
    has neither.  No insertion is run.
    """
    width = len(t.rows[0]) if t.rows else 0
    skew = [[None] * (width + 1) + [y], *([None, *row] for row in t.rows), [x]]

    def slide(r, c):
        while True:
            right = skew[r][c + 1] if c + 1 < len(skew[r]) else None
            up = skew[r + 1][c] if r + 1 < len(skew) and c < len(skew[r + 1]) else None
            if right is None and up is None:
                break
            if up is None or right is not None and right < up:
                skew[r][c], c = right, c + 1
            else:
                skew[r][c], r = up, r + 1
        skew[r].pop()  # the hole ends its row
        if not skew[r]:  # only the top row can empty
            skew.pop()

    for r in range(len(t.rows), 0, -1):
        slide(r, 0)
    for c in range(width, -1, -1):
        slide(0, c)
    return Tableau(skew)


def evacuation(t, big):
    """Schützenberger's evacuation of ``t``, each label v complemented to ``big`` − v.

    The reading word w of ``t`` has P(w) = t, and the reverse complement w# of w
    has P(w#) = evac t (Schützenberger 1963; Fulton, Young Tableaux, A.1).  The
    growth diagram gives that P without bumping.
    """
    reading = [v for row in reversed(t.rows) for v in row]
    return growth_insertion_tableau([big - v for v in reversed(reading)])


# Reference geometry: the exact rational contact finder that the integer
# crossing test replaced.  It finds every contact point of two broken lines,
# shares no code with classify_intersection, and does not rely on the band rule.
def _cross(o, p, q):
    return (p[0] - o[0]) * (q[1] - o[1]) - (q[0] - o[0]) * (p[1] - o[1])


def _on_segment(p, q, m):
    """Whether collinear point m lies within the bounding box of segment pq."""
    return min(p[0], q[0]) <= m[0] <= max(p[0], q[0]) and min(p[1], q[1]) <= m[1] <= max(
        p[1], q[1]
    )


def _segment_meetings(p1, p2, q1, q2):
    """None for no contact, ``[point]`` for a point contact, ``[]`` for an overlap."""
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    if ((d1 > 0 > d2) or (d1 < 0 < d2)) and ((d3 > 0 > d4) or (d3 < 0 < d4)):
        t = Fraction(d1, d1 - d2)
        return [(p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))]
    touches = set()
    for d, m, (a, b) in ((d1, p1, (q1, q2)), (d2, p2, (q1, q2)), (d3, q1, (p1, p2)), (d4, q2, (p1, p2))):
        if d == 0 and _on_segment(a, b, m):
            touches.add((Fraction(m[0]), Fraction(m[1])))
    if not touches:
        return None
    if len(touches) > 1:
        return []
    return [touches.pop()]


def _polyline_meetings(verts1, verts2):
    """All contact points of two polylines; None means a positive-length overlap."""
    points = set()
    segs1 = list(zip(verts1, verts1[1:]))
    segs2 = list(zip(verts2, verts2[1:]))
    if not segs1 or not segs2:
        singles, other_verts, other_segs = (
            (verts1, verts2, segs2) if not segs1 else (verts2, verts1, segs1)
        )
        for v in singles:
            if v in other_verts or any(_cross(p, q, v) == 0 and _on_segment(p, q, v) for p, q in other_segs):
                points.add((Fraction(v[0]), Fraction(v[1])))
        return points
    for p1, p2 in segs1:
        for q1, q2 in segs2:
            if (
                max(p1[0], p2[0]) < min(q1[0], q2[0])
                or max(q1[0], q2[0]) < min(p1[0], p2[0])
                or max(p1[1], p2[1]) < min(q1[1], q2[1])
                or max(q1[1], q2[1]) < min(p1[1], p2[1])
            ):
                continue  # bounding boxes apart
            met = _segment_meetings(p1, p2, q1, q2)
            if met == []:
                return None
            points.update(met or ())
    return points


# Each possible set of neighbors of S on the trails, and its name in the paper.
POSSIBLE_ADJACENCIES = {frozenset(p): p for p in ("JB", "IJB", "AJB", "IJ", "AB")}


def reference_outcome(row_trail, col_trail):
    """The (variant, configuration) pair, or the exception class, implied by the rational geometry."""
    row_boxes, col_boxes = row_trail.boxes, col_trail.boxes
    shared = [bx for bx in row_boxes if bx in col_boxes]
    if len(shared) > 1:
        return MultipleSharedBoxes
    center = lambda bx: (2 * bx[1] + 1, 2 * bx[0] + 1)  # noqa: E731
    meetings = _polyline_meetings(
        tuple(map(center, row_boxes)), tuple(map(center, col_boxes))
    )
    allowed = {(Fraction(x), Fraction(y)) for x, y in map(center, shared)}
    if meetings is None or meetings - allowed:
        return WeakIntersectionDetected
    if not shared:
        return "disjoint", None
    (r0, c0), ri, ci = shared[0], row_boxes.index(shared[0]), col_boxes.index(shared[0])
    row_final, col_final = ri == len(row_boxes) - 1, ci == len(col_boxes) - 1
    if row_final != col_final:
        return MultipleSharedBoxes
    if row_final:
        return "shared_empty_box", None
    neighbors = (
        ("A", col_boxes, ci - 1, (r0, c0 - 1)),
        ("B", col_boxes, ci + 1, (r0, c0 + 1)),
        ("I", row_boxes, ri - 1, (r0 - 1, c0)),
        ("J", row_boxes, ri + 1, (r0 + 1, c0)),
    )
    adjacency = frozenset(name for name, boxes, k, box in neighbors if k >= 0 and boxes[k] == box)
    configuration = POSSIBLE_ADJACENCIES.get(adjacency)
    return ("strong", configuration) if configuration else ImpossibleConfiguration
