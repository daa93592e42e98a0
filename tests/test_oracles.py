import ast
import functools
import importlib.util
import multiprocessing
import os
import subprocess
import sys
from concurrent import futures
from pathlib import Path

import pytest

import schensted
from schensted import Tableau, enumerate_cases
from schensted.cli import reproducer

from conftest import INVOLUTION_NUMBERS

TESTS = Path(__file__).resolve().parent
ORACLE_SWEEP = TESTS.parent / "frontier" / "oracle_sweep.py"


def test_oracles_import_nothing_they_check():
    # An oracle that called the library's bumping, placement or trail code would
    # check that code against itself.  From schensted the module may take the
    # validating Tableau constructor and exception classes; anything else is stdlib.
    tree = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] in sys.stdlib_module_names for a in node.names), ast.dump(node)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "schensted":
                taken += [a.name for a in node.names]
            else:
                assert node.level == 0 and node.module.split(".")[0] in sys.stdlib_module_names, node.module
    assert "Tableau" in taken
    for name in taken:
        value = getattr(schensted, name)
        assert value is schensted.Tableau or isinstance(value, type) and issubclass(value, Exception), name


def test_frontier_oracle_sweep_agrees_at_one_and_two_workers():
    src = os.path.dirname(os.path.dirname(schensted.__file__))
    outputs = []
    for workers in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, str(ORACLE_SWEEP), "--max-n", "4", "--workers", workers],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    cases = sum(INVOLUTION_NUMBERS[n] * (n + 1) * (n + 2) for n in range(5))
    assert cases == 412
    assert outputs == [f"checked {cases} cases up to n=4 against jeu de taquin\n"] * 2


@pytest.mark.parametrize("flags", [["--bogus"], ["--max-n", "-1"]])
def test_frontier_oracle_sweep_rejects_a_bad_flag_with_one_line(flags):
    src = os.path.dirname(os.path.dirname(schensted.__file__))
    proc = subprocess.run(
        [sys.executable, str(ORACLE_SWEEP), *flags],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr


@pytest.fixture
def oracle_sweep(monkeypatch):
    """``frontier/oracle_sweep.py`` loaded in this process, its pool on forked workers."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts tests/ on the path
    spec = importlib.util.spec_from_file_location("oracle_sweep", ORACLE_SWEEP)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "oracle_sweep", module)  # workers look check_shard up by name
    spec.loader.exec_module(module)
    fork_pool = functools.partial(futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork"))
    monkeypatch.setattr(futures, "ProcessPoolExecutor", fork_pool)
    return module


@pytest.mark.parametrize("workers", ["1", "2"])
def test_frontier_oracle_sweep_reports_where_only_the_oracle_disagrees(workers, oracle_sweep, monkeypatch, capsys):
    real = oracle_sweep.jeu_de_taquin_tableau

    def disagreeing(t, x, y):
        return Tableau([[0]]) if len(t.labels) == 3 else real(t, x, y)

    monkeypatch.setattr(oracle_sweep, "jeu_de_taquin_tableau", disagreeing)  # inherited by forked workers
    assert oracle_sweep.main(["--max-n", "4", "--workers", workers]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        reproducer(next(enumerate_cases(3))),
        "only the oracle disagrees: jeu de taquin gives rows ((0,),)",
    ]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("fault", ["raises", "fused differs"])
def test_frontier_oracle_sweep_reports_where_commute_check_fails(fault, workers, oracle_sweep, monkeypatch, capsys):
    real = oracle_sweep.commute_check

    def failing(t, x, y):
        report = real(t, x, y)
        if len(t.labels) != 3:
            return report
        if fault == "raises":
            raise ValueError("planted")
        return report._replace(fused=Tableau([[0]]))

    monkeypatch.setattr(oracle_sweep, "commute_check", failing)  # inherited by forked workers
    assert oracle_sweep.main(["--max-n", "4", "--workers", workers]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [reproducer(next(enumerate_cases(3)))]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_frontier_oracle_sweep_counts_every_case(workers, oracle_sweep, monkeypatch, capsys):
    real = oracle_sweep.enumerate_cases
    dropped = next(real(3))
    monkeypatch.setattr(  # inherited by forked workers
        oracle_sweep, "enumerate_cases", lambda *args: (case for case in real(*args) if case != dropped)
    )
    assert oracle_sweep.main(["--max-n", "4", "--workers", workers]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "checked 411 cases, expected 412 from the involution numbers\n"
