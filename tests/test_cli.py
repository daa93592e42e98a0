import os
import re
import subprocess
import sys
import types

import pytest

import schensted
from schensted import (
    ImpossibleConfiguration,
    InvalidResult,
    InvariantViolation,
    MultipleSharedBoxes,
    SweepSummary,
    Tableau,
    TrailInvariantViolation,
    WeakIntersectionDetected,
    commute_check,
    enumerate_syt,
    parse_tableau,
    render_tableau,
    render_trail,
    row_insert,
)
from schensted.cli import main

from conftest import WORKED_ROWS
from conftest import WORKED_X, WORKED_Y


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.txt"
    path.write_text("\n".join(" ".join(str(v) for v in row) for row in WORKED_ROWS))
    return str(path)


class TestRendering:
    def test_french_ascii(self):
        t = Tableau([[1, 3], [2]])
        assert render_tableau(t) == "2\n1 3"

    def test_english_ascii(self):
        t = Tableau([[1, 3], [2]])
        assert render_tableau(t, convention="english") == "1 3\n2"

    def test_empty(self):
        assert render_tableau(Tableau()) == ""

    def test_latex(self):
        t = Tableau([[1, 3], [2]])
        out = render_tableau(t, format="latex")
        assert out == "\\begin{ytableau}\n2 \\\\\n1 & 3\n\\end{ytableau}"

    def test_annotated_trails(self, worked):
        worked_t = worked
        _, trail = row_insert(worked_t, 8)
        out = render_tableau(worked_t, trail)
        assert "9_" in out
        assert "*" in out  # the newly created box

    def test_both_worked_trails(self, worked):
        # S = (2, 1) is in both trails, so 13 carries both marks.
        report = commute_check(worked, WORKED_X, WORKED_Y)
        trails = (report.row_trail, report.col_trail)
        assert render_tableau(worked, *trails).splitlines() == [
            " *_",
            " 17  19_",
            "|11  18_",
            "  4 |13_ |14",
            "  2    6 10_ |15 |*",
            "  1    3   5  9_ 12 16",
        ]
        assert render_tableau(worked, *trails, format="latex").splitlines() == [
            r"\begin{ytableau}",
            r"\underline{\emptyset} \\",
            r"17 & \underline{19} \\",
            r"\mid\!\!11 & \underline{18} \\",
            r"4 & \mid\!\!\underline{13} & \mid\!\!14 \\",
            r"2 & 6 & \underline{10} & \mid\!\!15 & \mid\!\!\emptyset \\",
            r"1 & 3 & 5 & \underline{9} & 12 & 16",
            r"\end{ytableau}",
        ]

    @pytest.mark.parametrize("format", ["ascii", "latex"])
    def test_marks_do_not_depend_on_the_order_of_the_trails(self, worked, format):
        # S = (2, 1) is on both trails; its row mark goes on first whichever trail comes first.
        report = commute_check(worked, WORKED_X, WORKED_Y)
        row_first = render_tableau(worked, report.row_trail, report.col_trail, format=format)
        assert render_tableau(worked, report.col_trail, report.row_trail, format=format) == row_first

    def test_shared_empty_box(self):
        t = Tableau([[2, 3]])
        report = commute_check(t, 1, 4)  # both trails end in the new box (0, 2)
        assert report.intersection.s_box == (0, 2)
        out = render_tableau(t, report.row_trail, report.col_trail)
        assert out == "|2 |3 |*_"

    def test_trail_of_another_tableau_raises(self, worked):
        _, trail = row_insert(worked, WORKED_Y)  # its first box, (0, 3), is past the end of [1]
        with pytest.raises(ValueError, match=r"trail box \(0, 3\)"):
            render_tableau(Tableau([[1]]), trail)

    def test_trail_serialization(self, worked):
        _, trail = row_insert(worked, 8)
        assert render_trail(trail).splitlines() == [
            "0 3 9",
            "1 2 10",
            "2 1 13",
            "3 1 18",
            "4 1 19",
            "5 0 _",
        ]

    @pytest.mark.parametrize("n", range(6))
    def test_round_trip_over_corpus(self, n):
        for t in enumerate_syt(n):
            assert parse_tableau(render_tableau(t)) == t
            assert parse_tableau(render_tableau(t, convention="english")) == t


class TestInsertCommand:
    def test_row_insert(self, worked_file, capsys):
        assert main(["insert", "--mode", "row", "--value", "8", "--file", worked_file]) == 0
        out = capsys.readouterr().out
        assert "0 3 9" in out and "5 0 _" in out
        assert "1 3 5 8 12 16" in " ".join(out.split())

    def test_col_insert(self, worked_file, capsys):
        assert main(["insert", "--mode", "col", "--value", "7", "--file", worked_file]) == 0
        out = capsys.readouterr().out
        assert "3 0 11" in out and "1 4 _" in out

    def test_insert_into_empty_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["insert", "--mode", "row", "--value", "5"]) == 0
        assert "5" in capsys.readouterr().out

    def test_value_already_present(self, worked_file, capsys):
        assert main(["insert", "--mode", "row", "--value", "13", "--file", worked_file]) == 2

    def test_invalid_input_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n3 4 5\n9")
        assert main(["insert", "--mode", "row", "--value", "7", "--file", str(bad)]) == 2
        assert "row 1" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["insert", "--mode", "row", "--value", "7", "--file", "/nonexistent"]) == 2


class TestCommuteCommand:
    def test_worked_example(self, worked_file, capsys):
        assert main(["commute", "--x", "7", "--y", "8", "--file", worked_file]) == 0
        out = capsys.readouterr().out
        assert "EQUAL" in out
        assert "intersection: variant=strong, s_box=(2, 1), s=13, a=11, b=14, i=10, j=18, configuration=JB" in out

    @pytest.mark.parametrize("convention", ["french", "english"])
    def test_worked_example_layout(self, convention, worked_file, capsys):
        argv = ["commute", "--x", "7", "--y", "8", "--convention", convention, "--file", worked_file]
        assert main(argv) == 0
        rows = [  # first row first
            " 1  3  5  8 12 16          1  3  5  8 12 16    1  3  5  8 12 16",
            " 2  6  9 14 15             2  6  9 14 15       2  6  9 14 15",
            " 4 10 13                   4 10 13             4 10 13",
            " 7 11                      7 11                7 11",
            "17 18                     17 18               17 18",
            "19                        19                  19",
        ]
        assert capsys.readouterr().out.splitlines() == [
            "(x->T)<-y with x=7, y=8   x->(T<-y)           fused            ",  # not stripped
            *(rows[::-1] if convention == "french" else rows),
            "",
            "intersection: variant=strong, s_box=(2, 1), s=13, a=11, b=14, i=10, j=18, configuration=JB",
            "EQUAL",
        ]

    def test_a_shorter_result_is_bottom_aligned(self, worked_file, capsys, monkeypatch):
        analyse = schensted.cli.commute_check
        short = Tableau([[1, 2], [3]])
        monkeypatch.setattr(
            "schensted.cli.commute_check",
            lambda *args: analyse(*args)._replace(right=short, all_equal=False),
        )
        assert main(["commute", "--x", "7", "--y", "8", "--file", worked_file]) == 1
        assert capsys.readouterr().out.splitlines()[:7] == [
            "(x->T)<-y with x=7, y=8   x->(T<-y)   fused            ",
            "19                                    19",
            "17 18                                 17 18",
            " 7 11                                  7 11",
            " 4 10 13                               4 10 13",
            " 2  6  9 14 15            3            2  6  9 14 15",
            " 1  3  5  8 12 16         1 2          1  3  5  8 12 16",
        ]

    def test_porcelain(self, worked_file, capsys):
        assert main(
            ["commute", "--x", "7", "--y", "8", "--porcelain", "--file", worked_file]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert "all_equal=true" in out
        assert "intersection.variant=strong" in out
        assert "left.row0=1 3 5 8 12 16" in out

    def test_empty_tableau(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["commute", "--x", "1", "--y", "2"]) == 0
        assert "EQUAL" in capsys.readouterr().out

    def test_equal_values(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n"))
        assert main(["commute", "--x", "3", "--y", "3"]) == 2
        assert capsys.readouterr().err == "error: x and y must differ, got 3\n"

    @pytest.mark.parametrize("x,y", [(13, 8), (7, 13)])
    def test_value_already_in_the_tableau(self, x, y, worked_file, capsys):
        assert main(["commute", "--x", str(x), "--y", str(y), "--file", worked_file]) == 2
        assert capsys.readouterr().err == "error: 13 already present in tableau\n"

    @pytest.mark.parametrize("exc", [ValueError, IndexError])
    def test_an_error_of_the_analysis_exits_1_with_one_line(self, exc, worked_file, capsys, monkeypatch):
        # x and y are valid here, so the error is the analysis's own, not bad input.
        from schensted import fused

        def broken(*args):
            raise exc("planted")

        monkeypatch.setattr(fused, "classify_intersection", broken)
        assert main(["commute", "--x", "7", "--y", "8", "--file", worked_file]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"invariant violated: InvariantViolation: {exc.__name__}: planted\n"

    def test_one_analysis_per_command(self, worked_file, monkeypatch):
        calls = []
        analyse = schensted.commute_check

        def counting(*args):
            calls.append(args)
            return analyse(*args)

        for module in ("schensted.cli", "schensted.harness"):
            monkeypatch.setattr(f"{module}.commute_check", counting)
        assert main(["commute", "--x", "7", "--y", "8", "--file", worked_file]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "exc",
        [
            TrailInvariantViolation,
            WeakIntersectionDetected,
            MultipleSharedBoxes,
            ImpossibleConfiguration,
            InvalidResult,
        ],
    )
    def test_invariant_violation_exits_1_with_one_line(self, exc, worked_file, capsys, monkeypatch):
        assert issubclass(exc, InvariantViolation)

        def broken(t, x, y):
            raise exc("trails cross at (1, 2)")

        monkeypatch.setattr("schensted.cli.commute_check", broken)
        assert main(["commute", "--x", "7", "--y", "8", "--file", worked_file]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invariant violated: ") and "trails cross at (1, 2)" in err
        assert err.count("\n") == 1


class TestVerifyCommand:
    def test_small_sweep(self, capsys):
        assert main(["verify", "--max-n", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "checked 112 cases up to n=3"
        assert "cases_total=112" in out

    def test_stdout_is_the_same_at_any_worker_count(self, capsys, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)  # so that --workers 2 is not clamped to 1
        outputs = []
        for workers in ("1", "2"):
            assert main(["verify", "--max-n", "3", "--workers", workers]) == 0
            captured = capsys.readouterr()
            assert re.fullmatch(r"elapsed_seconds=\d+\.\d{3}\n", captured.err)
            outputs.append(captured.out)
        assert outputs[0] == outputs[1] and "elapsed_seconds=" not in outputs[0]

    def test_failure_prints_a_reproducer_that_fails(self, capsys, monkeypatch):
        import io
        import shlex

        from schensted import fused

        real = fused._fused

        def planted(t, x, y, col, row, report):  # a wrong fused result for one case
            result = real(t, x, y, col, row, report)
            return t if (t.rows, x, y) == (((3, 6),), 4, 7) else result

        monkeypatch.setattr(fused, "_fused", planted)
        assert main(["verify", "--max-n", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        failure, reproduce = captured.err.splitlines()
        assert failure.startswith("sweep failure: commutation failed")
        words = shlex.split(reproduce)
        assert words[:3] == ["reproduce:", "printf", "%s\\n"]
        bar = words.index("|")
        rows, command = words[3:bar], words[bar + 1 :]
        assert rows == ["3 6"]
        assert command == ["schensted", "commute", "--x", "4", "--y", "7"]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(row + "\n" for row in rows)))
        assert main(command[1:]) == 1
        assert "UNEQUAL" in capsys.readouterr().out

    def test_reproducer_fails_for_a_lemma_check(self, capsys, monkeypatch):
        import io
        import shlex

        from schensted import harness

        monkeypatch.setattr(harness, "check_relative_position", lambda *args: False)
        assert main(["verify", "--max-n", "3"]) == 1
        failure, reproduce = capsys.readouterr().err.splitlines()
        assert failure.startswith("sweep failure: relative_position failed")
        words = shlex.split(reproduce)
        bar = words.index("|")
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(row + "\n" for row in words[3:bar])))
        assert main(words[bar + 2 :]) == 1
        captured = capsys.readouterr()
        assert "EQUAL" in captured.out.splitlines()
        assert captured.err == failure + "\n"

    def test_reproducer_fails_for_the_bump_stability_check(self, capsys, monkeypatch):
        import io
        import shlex

        from schensted import harness

        def planted(row, x):
            raise AssertionError("planted")

        monkeypatch.setattr(harness, "check_modify_property", planted)
        assert main(["verify", "--max-n", "1"]) == 1
        failure, reproduce = capsys.readouterr().err.splitlines()
        assert failure == (
            "sweep failure: modify_property failed for "
            "CaseDescriptor(tableau=Tableau(rows=((3,),)), x=1, y=4): planted"
        )
        words = shlex.split(reproduce)
        bar = words.index("|")
        assert words[3:bar] == ["3"]
        assert words[bar + 1 :] == ["schensted", "commute", "--x", "1", "--y", "4"]
        monkeypatch.setattr("sys.stdin", io.StringIO("3\n"))
        assert main(words[bar + 2 :]) == 1
        captured = capsys.readouterr()
        assert "EQUAL" in captured.out.splitlines()
        assert captured.err == failure + "\n"

    @pytest.mark.parametrize(
        "check,invariant",
        [
            ("validate_trail", "trail"),
            ("slide_trail", "trail"),
            ("check_relative_position", "relative_position"),
            ("trail_agreement", "trail_agreement"),
            ("check_modify_property", "modify_property"),
        ],
    )
    def test_a_check_that_raises_fails_by_name_with_a_reproducer(self, check, invariant, capsys, monkeypatch):
        import io
        import shlex

        from schensted import harness

        def planted(*args):
            raise IndexError("planted")

        monkeypatch.setattr(harness, check, planted)
        assert main(["verify", "--max-n", "3"]) == 1
        failure, reproduce = capsys.readouterr().err.splitlines()
        assert failure.startswith(f"sweep failure: {invariant} failed for ") and failure.endswith(": planted")
        words = shlex.split(reproduce)
        assert words[0] == "reproduce:"
        bar = words.index("|")
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(row + "\n" for row in words[3:bar])))
        assert main(words[bar + 2 :]) == 1
        assert capsys.readouterr().err == failure + "\n"

    @pytest.mark.parametrize("requested,cpus,used", [(64, 2, 2), (2, 8, 2), (3, None, 1)])
    def test_workers_clamped_to_cpu_count(self, requested, cpus, used, monkeypatch):
        seen = []

        def fake_sweep(max_n, workers):  # starts no process
            seen.append(workers)
            return SweepSummary()

        monkeypatch.setattr("schensted.cli.run_sweep", fake_sweep)
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        assert main(["verify", "--max-n", "2", "--workers", str(requested)]) == 0
        assert seen == [used]

    @pytest.mark.parametrize(
        "flags", [["--max-n", "-1"], ["--workers", "0"], ["--workers", "-2"]]
    )
    def test_bad_sweep_arguments(self, flags, capsys):
        assert main(["verify", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_takes_no_seed(self, capsys):  # the sweep draws no random numbers
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--bogus"],
        ["insert", "--mode", "diag", "--value", "3"],
        ["commute", "--x", "a", "--y", "2"],
    ],
)
def test_a_bad_flag_exits_2_with_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestPackageExports:
    def test_star_import_binds_no_module(self):
        namespace = {}
        exec("from schensted import *", namespace)
        assert not [k for k, v in namespace.items() if isinstance(v, types.ModuleType)]
        assert {"InvariantViolation", "ImpossibleConfiguration", "TrailInvariantViolation"} <= set(
            namespace
        )

    def test_all_names_exist(self):
        assert all(hasattr(schensted, name) for name in schensted.__all__)


class TestRskCommand:
    def test_hand_run(self, capsys):
        assert main(["rsk", "3", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "P:" in out and "Q:" in out

    def test_duplicate(self, capsys):
        assert main(["rsk", "1", "1"]) == 2

    def test_a_closed_stdout_exits_141_in_silence(self):
        # P's one row of 20,000 labels is about 110 KB, past a 64 KiB pipe buffer, so
        # the command is still writing when the reader closes its end, as `| head -1` does.
        src = os.path.dirname(os.path.dirname(schensted.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "schensted.cli", "rsk", *map(str, range(1, 20001))],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.readline() == b"P:\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert stderr == b""


class TestAnnotateFlag:
    def test_insert_marks_the_trails(self, worked_file, capsys):
        argv = ["insert", "--mode", "col", "--value", "7", "--annotate", "trails", "--file", worked_file]
        assert main(argv) == 0
        assert "|11" in capsys.readouterr().out  # the column trail starts at 11

    @pytest.mark.parametrize("command", [["render"], ["commute", "--x", "7", "--y", "8"]])
    def test_only_insert_takes_it(self, command, worked_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--annotate", "trails", "--file", worked_file])
        assert exc.value.code == 2
        assert "unrecognized arguments: --annotate trails" in capsys.readouterr().err


class TestRenderCommand:
    def test_french(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("1 3\n2\n"))
        assert main(["render"]) == 0
        assert capsys.readouterr().out == "2\n1 3\n"

    def test_latex(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("1 3\n2\n"))
        assert main(["render", "--format", "latex"]) == 0
        assert "ytableau" in capsys.readouterr().out
