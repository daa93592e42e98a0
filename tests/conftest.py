import random
from itertools import permutations

import pytest

from schensted import Tableau, rsk

# Number of standard Young tableaux with n cells, n = 0, 1, 2, ...
INVOLUTION_NUMBERS = (1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496)

# Worked example: the tableau with both trails crossing at (2, 1).
WORKED_ROWS = [[1, 3, 5, 9, 12, 16], [2, 6, 10, 15], [4, 13, 14], [11, 18], [17, 19]]
WORKED_RESULT = [[1, 3, 5, 8, 12, 16], [2, 6, 9, 14, 15], [4, 10, 13], [7, 11], [17, 18], [19]]
WORKED_X = 7  # column-inserted
WORKED_Y = 8  # row-inserted

WORKED_ROW_TRAIL = [
    ((0, 3), 9),
    ((1, 2), 10),
    ((2, 1), 13),
    ((3, 1), 18),
    ((4, 1), 19),
    ((5, 0), None),
]
WORKED_COL_TRAIL = [
    ((3, 0), 11),
    ((2, 1), 13),
    ((2, 2), 14),
    ((1, 3), 15),
    ((1, 4), None),
]


@pytest.fixture
def worked() -> Tableau:
    return Tableau(WORKED_ROWS)


def random_words(seed, cells=300):
    """One seeded random word of ``cells`` distinct labels, in a list."""
    return [random.Random(seed).sample(range(1, 4 * cells), cells)]


def reversal_check(n):
    """Whether P(reversed w) = transpose(P(w)) for every permutation w of 1..n."""
    for w in permutations(range(1, n + 1)):
        p, _ = rsk(list(w))
        p_rev, _ = rsk(list(reversed(w)))
        if p_rev != p.transpose():
            return False
    return True
