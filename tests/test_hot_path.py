"""No ``tuple(...)`` or ``list(...)`` of a generator expression on the per-case path.

A tuple built from a generator in ``check_modify_property``, where an exact-size
constructor would do, raised the peak memory of checking 300-cell words by about
18 %, and nothing but a benchmark run showed it.  These tests read the source.
"""

import ast
import inspect
import textwrap

import pytest

from schensted import fused, harness, insertion, tableau, trails

PER_CASE_PATH = [
    insertion,
    fused,
    trails,
    tableau.Tableau.__contains__,
    tableau.Tableau._index,
    tableau.Tableau.labels.func,
    harness.check_case,
    harness.check_report,
    harness.check_modify_property,
]


def generator_builds(source):
    """The line and name of every ``tuple``/``list`` call on a generator expression."""
    return [
        (node.lineno, node.func.id)
        for node in ast.walk(ast.parse(textwrap.dedent(source)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("tuple", "list")
        and any(isinstance(arg, ast.GeneratorExp) for arg in node.args)
    ]


def test_finds_a_generator_build():
    source = "tuple(v for v in r)\nlist(range(3))\ntuple(map(f, r))\nlist([v for v in r])\n"
    assert generator_builds(source) == [(1, "tuple")]


@pytest.mark.parametrize("code", PER_CASE_PATH, ids=lambda code: code.__name__)
def test_no_generator_builds_on_the_per_case_path(code):
    assert generator_builds(inspect.getsource(code)) == []
