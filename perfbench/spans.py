"""In-memory span recorder and the wrappers that trace the library's layers.

A span is one call into a layer: its name, start, end, the span that was open
when it started (its parent) and the id of the case it served.  Spans are kept
in flat arrays while the benchmark runs and written out once it ends.

The library is traced from outside: each traced function is replaced, in every
``schensted`` module that holds it, by a wrapper that opens and closes a span.
Calls inside a module resolve through that module's globals, so they are
traced too.  ``Tableau.__init__`` is wrapped on the class, which traces every
construction (and with it the validation that runs in ``__post_init__``).
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# (module, attribute, span name).  Several attributes may share one span name.
TRACED_FUNCTIONS = (
    ("insertion", "row_insert", "insertion.row_insert"),
    ("insertion", "column_insert", "insertion.column_insert"),
    ("insertion", "slide_trail", "insertion.slide_trail"),
    ("insertion", "validate_trail", "insertion.validate_trail"),
    ("trails", "classify_intersection", "trails.classify_intersection"),
    ("trails", "check_relative_position", "trails.check_relative_position"),
    ("fused", "fused_insert", "fused.fused_insert"),
    ("fused", "commute_check", "fused.commute_check"),
    ("fused", "trail_agreement_below", "fused.trail_agreement"),
    ("fused", "trail_agreement_above", "fused.trail_agreement"),
    ("harness", "check_modify_property", "harness.modify_property"),
    ("harness", "rsk", "harness.rsk"),
)
CONSTRUCT = "tableau.construct"
CASE = "harness.check_case"
ENUMERATE = "harness.enumerate"

SPAN_FIELDS = (("name", "i"), ("parent", "i"), ("case", "i"), ("start", "d"), ("end", "d"))


class SpanRecorder:
    """Spans in start order, as parallel arrays indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1  # innermost open span, -1 when none is open
        self.case_id = 0  # case served by new spans: outside a case, the next one
        self.cases = 0  # cases opened so far

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: float, end: float, parent: int = -1, case: int = 0) -> int:
        """Append a finished span; spans must be added in start order."""
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.case.append(case)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.case.append(self.case_id)
        self.end.append(0.0)
        self.current = idx
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.current = self.parent[idx]

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> array:
        """Each span's duration minus the part of it that its children cover."""
        start, end, parent = self.start, self.end, self.parent
        n = len(start)
        covered = array("d", bytes(8 * n))
        reach = array("d", [float("-inf")]) * n  # latest end among the children seen so far
        for i in range(n):  # in start order, so children are merged left to right
            p = parent[i]
            if p < 0:
                continue
            lo = max(start[i], start[p], reach[p])
            hi = min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
            if end[i] > reach[p]:
                reach[p] = end[i]
        return array("d", (end[i] - start[i] - covered[i] for i in range(n)))

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, self seconds and inclusive seconds."""
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for i, self_s in enumerate(self.self_times()):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["self_s"] += self_s
            row["total_s"] += self.end[i] - self.start[i]
        return out

    def write(self, path: Path) -> None:
        """One JSON header line, then each field's array in SPAN_FIELDS order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "count": len(self), "fields": SPAN_FIELDS,
                  "byteorder": sys.byteorder}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for field, _ in SPAN_FIELDS:
                getattr(self, field).tofile(f)

    @classmethod
    def read(cls, path: Path) -> "SpanRecorder":
        rec = cls()
        with open(path, "rb") as f:
            header = json.loads(f.readline())
            for name in header["names"]:
                rec.name_id(name)
            for field, _ in SPAN_FIELDS:
                getattr(rec, field).fromfile(f, header["count"])
        return rec


def _span(rec: SpanRecorder, name: str, fn):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    return traced


def _case_span(rec: SpanRecorder, fn):
    nid = rec.name_id(CASE)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.case_id = rec.cases
        rec.cases += 1
        idx = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)
            rec.case_id = rec.cases

    return traced


def _iteration_spans(rec: SpanRecorder, name: str, fn):
    """Trace a generator function: one span per item it produces."""
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            idx = rec.open(nid)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                rec.close(idx)
            yield item

    return traced


class Patches:
    """Replacements of module and class attributes, undone by ``restore``."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace_everywhere(self, package: str, original, replacement) -> None:
        """Replace ``original`` under every name that any module of ``package`` holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def install(rec: SpanRecorder, package) -> Patches:
    """Trace the layers of the imported ``package`` (the ``schensted`` module).

    A function the library no longer has is skipped; its metrics then read 0.
    """
    patches = Patches()
    name = package.__name__
    modules = {m: sys.modules.get(f"{name}.{m}") for m in ("tableau", "insertion", "trails", "fused", "harness")}
    for mod, attr, span in TRACED_FUNCTIONS:
        fn = getattr(modules[mod], attr, None)
        if fn is not None:
            patches.replace_everywhere(name, fn, _span(rec, span, fn))
    harness = modules["harness"]
    if hasattr(harness, "check_case"):
        patches.replace_everywhere(name, harness.check_case, _case_span(rec, harness.check_case))
    if hasattr(harness, "enumerate_cases"):
        patches.replace_everywhere(
            name, harness.enumerate_cases, _iteration_spans(rec, ENUMERATE, harness.enumerate_cases)
        )
    tableau_cls = modules["tableau"].Tableau
    patches.set(tableau_cls, "__init__", _span(rec, CONSTRUCT, tableau_cls.__init__))
    return patches
