"""Bumping insertion on Young tableaux with trail recording and analysis.

The library provides the tableau value type, row and column insertion with
explicit trails, classification of how a row trail and a column trail meet,
a fused one-pass computation of (x→T)←y, and an exhaustive harness that
re-checks the commutation of the two insertions and every supporting
invariant at small sizes.
"""

import types as _types

from .fused import (
    CommutationReport,
    InvalidResult,
    LabelsNotDistinct,
    commute_check,
    resolve_conflict,
    trail_agreement,
)
from .harness import (
    CaseDescriptor,
    DuplicateInWord,
    SweepFailure,
    SweepSummary,
    enumerate_cases,
    enumerate_syt,
    rsk,
    run_sweep,
)
from .insertion import (
    InvariantViolation,
    Trail,
    TrailInconsistentWithTableau,
    TrailInvariantViolation,
    XAlreadyPresent,
    column_insert,
    row_insert,
    slide_trail,
    validate_trail,
)
from .render import render_tableau, render_trail
from .tableau import (
    BoxCoord,
    ColumnNotIncreasing,
    DuplicateLabel,
    Label,
    RowNotIncreasing,
    ShapeNotFerrers,
    Tableau,
    TableauError,
    dump_tableau,
    parse_tableau,
)
from .trails import (
    ImpossibleConfiguration,
    IntersectionReport,
    MultipleSharedBoxes,
    NotAStrongIntersection,
    WeakIntersectionDetected,
    check_relative_position,
    classify_intersection,
)

__all__ = [k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _types.ModuleType)]
__version__ = "0.1.0"
