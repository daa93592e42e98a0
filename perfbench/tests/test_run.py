import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH_DIR = Path(run.__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_same_seed_gives_the_same_inputs():
    assert run.large_inputs(7, words=20) == run.large_inputs(7, words=20)
    assert run.large_inputs(7, words=20) != run.large_inputs(8, words=20)


def test_inputs_are_valid_cases():
    evens = set(range(2, 2 * run.LARGE_CELLS + 1, 2))
    for item in run.large_inputs(1, words=20):
        assert sorted(item.word) == sorted(evens)
        assert len(set(item.pairs)) == len(item.pairs) == len(item.case_seeds) == run.PAIRS_PER_WORD
        for x, y in item.pairs:
            assert x != y and x % 2 == 1 and y % 2 == 1 and 1 <= x <= 2 * run.LARGE_CELLS + 1


def test_metric_names_declared_in_the_benchmark_match_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_equal_those_in_the_benchmark(trace, kind):
    proc = bench("--workload", "random-large", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1000
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    for m in SPEC[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "sweep-w1", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
