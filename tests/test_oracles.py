import ast
import os
import subprocess
import sys
from pathlib import Path

import schensted

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
