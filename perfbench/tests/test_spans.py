import pytest

import schensted
import spans


def synthetic_tree():
    """root [0, 10] with children a [1, 4] and b [3, 6] (overlapping) and c [8, 12]
    (sticking out of root); a has a child d [2, 3]."""
    rec = spans.SpanRecorder()
    root = rec.add("root", 0.0, 10.0)
    a = rec.add("a", 1.0, 4.0, parent=root)
    rec.add("d", 2.0, 3.0, parent=a)
    rec.add("b", 3.0, 6.0, parent=root)
    rec.add("c", 8.0, 12.0, parent=root)
    return rec


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    rec = synthetic_tree()
    # root: children cover [1, 6] and [8, 10] -> 7 of 10; a: d covers 1 of 3.
    assert list(rec.self_times()) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])
    totals = rec.totals()
    assert totals["root"] == {"calls": 1, "self_s": pytest.approx(3.0), "total_s": pytest.approx(10.0)}
    assert totals["a"]["self_s"] == pytest.approx(2.0)


def test_spans_written_out_read_back_unchanged(tmp_path):
    rec = synthetic_tree()
    rec.write(tmp_path / "spans.bin")
    back = spans.SpanRecorder.read(tmp_path / "spans.bin")
    assert back.names == rec.names
    for field, _ in spans.SPAN_FIELDS:
        assert getattr(back, field) == getattr(rec, field)


def test_traced_sweep_counts_calls_per_case_and_restores_the_library():
    from schensted import harness, insertion, tableau

    originals = (harness.check_case, harness.row_insert, insertion.row_insert, tableau.Tableau.__init__)
    rec = spans.SpanRecorder()
    patches = spans.install(rec, schensted)
    try:
        summary = harness.run_sweep(3, workers=1, seed=0)
    finally:
        patches.restore()
    assert (harness.check_case, harness.row_insert, insertion.row_insert, tableau.Tableau.__init__) == originals

    totals = rec.totals()
    assert rec.cases == summary.cases_total == 112
    assert totals[spans.CASE]["calls"] == 112
    assert totals[spans.ENUMERATE]["calls"] == 112 + 4  # one more step ends each level's iteration
    # commute_check runs the fused insertion once per case.
    assert totals["fused.fused_insert"]["calls"] == 112
    for name, row in totals.items():
        assert 0 <= row["self_s"] <= row["total_s"], name
    # Every span inside a case carries that case's id.
    case_span = rec.name_id(spans.CASE)
    for i in range(len(rec)):
        p = rec.parent[i]
        if p >= 0 and rec.name[p] == case_span:
            assert rec.case[i] == rec.case[p]
