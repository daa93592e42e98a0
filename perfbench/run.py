"""Benchmark of the schensted checker: verified cases per second, end to end and per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sweep-w1 --seed 1 --seconds 20 --trace 0

Workloads (each runs in one process; ``sweep-w2`` adds two pool workers):

- ``sweep-w1``: ``run_sweep(7, workers=1)``, the 22,464 tiny cases up to 7 cells,
  where per-call overhead and work done twice per case dominate.
- ``sweep-w2``: the same sweep with ``workers=2``, the only parallel code path.
- ``random-large``: seeded random permutations of the even labels 2..600 go
  through ``rsk``; each insertion tableau P is checked with ``check_case`` on
  distinct pairs of odd labels.  Large tableaux and long trails, no enumeration.

A run sets the library up several times (import plus input generation), then
repeats passes over its inputs until ``--seconds`` have passed: a whole sweep,
or every word of ``random-large``, timed in units of a few words.  Times are
reported at the reference host speed of ``meter.py``.  With ``--trace 0`` the
run prints the end-to-end metrics.  With ``--trace 1`` it follows that phase
with a second one in which every layer is traced, writes the spans under
``perfbench/out/`` and prints the per-layer metrics.  Sweep cases that run in
pool workers leave no spans there; their cost shows in the pool metrics, taken
from the workers' CPU time.  Every output is checked (see ``gates.py``); a
failed check makes the run exit with code 1.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import gates
import meter
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

WORKLOADS = {"sweep-w1": 1, "sweep-w2": 2, "random-large": None}  # run_sweep's workers
SETUP_REPEATS = 5

LARGE_CELLS = 300  # labels 2, 4, ..., 600
LARGE_WORDS = 160  # one pass; a run makes whole passes, so every case counts alike
PAIRS_PER_WORD = 8  # 1280 cases a pass: more than 10 of them lie beyond p99
WORDS_PER_UNIT = 8

END_TO_END = (
    ("setup_s", "s"),
    ("cases_per_s", "1/s"),
    ("case_us_p50", "us"),
    ("peak_rss_mb", "MB"),
)

# Span name and the statistics reported for it, all per case: "calls" is
# calls_per_case, "self" is self-time us_per_case, "total" inclusive time.
LAYERS = (
    (spans.CONSTRUCT, ("calls", "self")),
    ("insertion.row_insert", ("calls", "self")),
    ("insertion.column_insert", ("calls", "self")),
    ("insertion.slide_trail", ("self",)),
    ("insertion.validate_trail", ("self",)),
    ("trails.classify_intersection", ("calls", "self")),
    ("trails.check_relative_position", ("self",)),
    ("fused.fused_insert", ("calls", "self")),
    ("fused.commute_check", ("self",)),
    ("fused.trail_agreement", ("self",)),
    (spans.CASE, ("total",)),
    (spans.ENUMERATE, ("self",)),
    ("harness.modify_property", ("self",)),
)
STAT_SUFFIX = {"calls": ("calls_per_case", "count"), "self": ("us_per_case", "us"),
               "total": ("total_us_per_case", "us")}


def per_layer_names() -> list[tuple[str, str]]:
    names = [(f"{span}.{STAT_SUFFIX[s][0]}", STAT_SUFFIX[s][1]) for span, stats in LAYERS for s in stats]
    return names + [
        ("harness.rsk.ms_per_word", "ms"),
        ("harness.pool.busy_ratio", "ratio"),
        ("harness.pool.cpu_us_per_case", "us"),
        ("trace.overhead_ratio", "ratio"),
    ]


# ---------------------------------------------------------------- inputs


@dataclass(frozen=True)
class LargeInput:
    word: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]  # distinct (x, y), odd labels
    case_seeds: tuple[int, ...]  # one per pair, for check_case's random modification


def large_inputs(seed: int, words: int = LARGE_WORDS, cells: int = LARGE_CELLS,
                 pairs: int = PAIRS_PER_WORD) -> list[LargeInput]:
    """Random words on the even labels 2..2*cells, each with distinct odd (x, y) pairs.

    Odd labels never occur in P, so every pair is a valid case without relabelling.
    """
    rng = random.Random(seed)
    evens = range(2, 2 * cells + 1, 2)
    odds = range(1, 2 * cells + 2, 2)
    out = []
    for _ in range(words):
        word = tuple(rng.sample(evens, cells))
        chosen: dict[tuple[int, int], None] = {}
        while len(chosen) < pairs:
            chosen[tuple(rng.sample(odds, 2))] = None
        seeds = tuple(rng.getrandbits(32) for _ in range(pairs))
        out.append(LargeInput(word, tuple(chosen), seeds))
    return out


def set_up(workload: str, seed: int):
    """Import the library afresh and make the workload's inputs."""
    for name in [m for m in sys.modules if m == "schensted" or m.startswith("schensted.")]:
        del sys.modules[name]
    lib = importlib.import_module("schensted")
    inputs = large_inputs(seed) if workload == "random-large" else None
    return lib, inputs


# ---------------------------------------------------------------- measurement


@dataclass
class Phase:
    """What one timed phase did: units, per-case latencies and failures."""

    units: list[tuple[int, float, float]] = field(default_factory=list)  # cases, wall s, reference s
    latencies: array = field(default_factory=lambda: array("d"))  # reference s per check_case
    attempted: int = 0
    failed: int = 0
    words: int = 0
    problems: list[str] = field(default_factory=list)
    pool_cpu_s: float = 0.0

    @property
    def cases(self) -> int:
        return sum(u[0] for u in self.units)

    @property
    def wall_s(self) -> float:
        return sum(u[1] for u in self.units)

    @property
    def reference_s(self) -> float:
        return sum(u[2] for u in self.units)

    def fail(self, cases: int, problem: str) -> None:
        self.failed += cases
        if len(self.problems) < 10:
            self.problems.append(problem)

    def end_unit(self, cases: int, wall_s: float, m: meter.Meter) -> None:
        """Record a unit and its case latencies.

        The unit's reference time uses the slowest mean host speed among the
        processes that ran its cases: with a pool, the slowest worker ends last.
        """
        latencies, speeds = m.collect()
        self.latencies.extend(latencies)
        self.units.append((cases, wall_s, wall_s * (min(speeds) if speeds else m.speed())))


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_sweeps(lib, workers: int, seed: int, seconds: float, m: meter.Meter) -> Phase:
    phase = Phase()
    harness = lib.harness
    patches = spans.Patches()
    patches.replace_everywhere(lib.__name__, harness.check_case, m.wrap(harness.check_case))
    cpu0 = children_cpu_s()
    deadline = perf_counter() + seconds
    try:
        while True:
            phase.attempted += gates.SWEEP_CASES
            m.probe_if_due()
            t0 = perf_counter()
            try:
                summary = harness.run_sweep(gates.SWEEP_MAX_N, workers=workers, seed=seed)
            except Exception as err:  # a SweepFailure or a crash: no case of the sweep is verified
                phase.fail(gates.SWEEP_CASES, f"run_sweep raised {type(err).__name__}: {err}")
                break
            dt = perf_counter() - t0
            problems = gates.sweep_gate(summary)
            if problems:
                phase.fail(gates.SWEEP_CASES, "; ".join(problems))
                break
            timed = len(phase.latencies)
            phase.end_unit(summary.cases_total, dt, m)
            if len(phase.latencies) - timed != summary.cases_total:
                phase.problems.append(f"timed {len(phase.latencies) - timed} of {summary.cases_total} cases")
            if perf_counter() >= deadline:
                break
    finally:
        patches.restore()
    phase.pool_cpu_s = children_cpu_s() - cpu0
    return phase


def run_large(lib, inputs: list[LargeInput], seconds: float, m: meter.Meter) -> Phase:
    phase = Phase()
    harness = lib.harness
    rsk, check_case, case_of = harness.rsk, harness.check_case, harness.CaseDescriptor
    summary = harness.SweepSummary()
    first_rows: list[tuple[int, int]] = []  # (input index, len(P.rows[0])) per word checked
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        for start in range(0, len(inputs), WORDS_PER_UNIT):
            cases = 0
            t0 = perf_counter()
            for index in range(start, min(start + WORDS_PER_UNIT, len(inputs))):
                item = inputs[index]
                phase.words += 1
                phase.attempted += len(item.pairs)
                m.probe_if_due()
                try:
                    p, _ = rsk(list(item.word))
                except Exception as err:
                    phase.fail(len(item.pairs), f"rsk raised {type(err).__name__}: {err}")
                    continue
                first_rows.append((index, len(p.rows[0]) if p.rows else 0))
                for (x, y), case_seed in zip(item.pairs, item.case_seeds):
                    rng = random.Random(case_seed)
                    m.probe_if_due()
                    mark = meter.clock()
                    try:
                        check_case(case_of(p, x, y), rng, summary)
                    except Exception as err:
                        phase.fail(1, f"check_case raised {type(err).__name__}: {err}")
                    else:
                        cases += 1
                    m.record_case(meter.cpu_since(mark))
            phase.end_unit(cases, perf_counter() - t0, m)

    problems = gates.variant_gate(summary, phase.cases)
    if problems:
        phase.fail(phase.cases, problems[0])
    lis_ok: dict[int, bool] = {}
    for index, first_row in first_rows:
        if index not in lis_ok:
            found = gates.greene_gate(inputs[index].word, first_row)
            lis_ok[index] = not found
            if found:
                phase.problems.append(f"input {index}: {found[0]}")
        if not lis_ok[index]:
            phase.failed += len(inputs[index].pairs)
    phase.failed = min(phase.failed, phase.attempted)
    return phase


def run_phase(workload: str, lib, inputs, seed: int, seconds: float) -> Phase:
    m = meter.Meter(OUT / f"meter-{os.getpid()}")
    try:
        if workload == "random-large":
            return run_large(lib, inputs, seconds, m)
        return run_sweeps(lib, WORKLOADS[workload], seed, seconds, m)
    finally:
        m.close()


# ---------------------------------------------------------------- metrics


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an increasing sequence."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def pool_size(workers: int | None) -> int:
    return workers if workers and workers > 1 else 0


def peak_rss_mb(workers: int | None) -> float:
    """Own peak RSS plus, for a pool, each worker counted at the largest worker's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_size(workers) * child) / 1024


def end_to_end_metrics(setup_times: list[float], phase: Phase, workers: int | None):
    """Metric values and their sample counts."""
    lat = sorted(phase.latencies) or [0.0]  # empty only when the first unit failed
    values = {
        "setup_s": median(setup_times),
        "cases_per_s": median(c / ref for c, _, ref in phase.units) if phase.units else 0.0,
        "case_us_p50": percentile(lat, 50) * 1e6,
        "peak_rss_mb": peak_rss_mb(workers),
    }
    samples = {"setup_s": len(setup_times), "cases_per_s": len(phase.units),
               "case_us_p50": len(phase.latencies), "peak_rss_mb": 1}
    return values, samples


def tail_latency(phase: Phase) -> dict:
    """p99 case latency: printed and recorded, but not a gated metric (see BASELINE.md)."""
    lat = sorted(phase.latencies) or [0.0]
    p99 = percentile(lat, 99)
    return {"case_us_p99": p99 * 1e6, "samples": len(phase.latencies),
            "beyond_p99": sum(1 for v in lat if v > p99)}


def per_layer_metrics(totals, untraced: Phase, traced: Phase, workers: int | None):
    cases = traced.cases or 1
    speed = traced.reference_s / traced.wall_s if traced.wall_s else 1.0
    values = {}
    for span, stats in LAYERS:
        row = totals.get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for stat in stats:
            name = f"{span}.{STAT_SUFFIX[stat][0]}"
            if stat == "calls":
                values[name] = row["calls"] / cases
            elif stat == "self":
                values[name] = row["self_s"] * speed * 1e6 / cases
            else:
                values[name] = row["total_s"] * speed * 1e6 / cases
    rsk = totals.get("harness.rsk", {"total_s": 0.0})
    values["harness.rsk.ms_per_word"] = rsk["total_s"] * speed * 1e3 / traced.words if traced.words else 0.0
    pool = pool_size(workers)
    untraced_cases = untraced.cases or 1
    untraced_speed = untraced.reference_s / untraced.wall_s if untraced.wall_s else 1.0
    values["harness.pool.busy_ratio"] = untraced.pool_cpu_s / (untraced.wall_s * pool) if pool else 0.0
    values["harness.pool.cpu_us_per_case"] = (
        untraced.pool_cpu_s * untraced_speed * 1e6 / untraced_cases if pool else 0.0
    )
    untraced_per_case = untraced.reference_s / untraced_cases
    values["trace.overhead_ratio"] = (
        (traced.reference_s / cases) / untraced_per_case if untraced_per_case else 0.0
    )
    return values


# ---------------------------------------------------------------- main


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "schensted" / "__init__.py").is_file():
        print(f"error: the library sources are missing ({SRC / 'schensted'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workers = WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        probe = meter.probe_s()
        t0 = perf_counter()
        lib, inputs = set_up(args.workload, args.seed)
        dt = perf_counter() - t0
        probe = (probe + meter.probe_s()) / 2
        setup_times.append(dt * meter.NOMINAL_PROBE_S / probe)
    if Path(lib.__file__).resolve().parent != SRC / "schensted":
        print(f"error: imported schensted from {lib.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    untraced = run_phase(args.workload, lib, inputs, args.seed, args.seconds)
    phases = [untraced]
    if args.trace:
        rec = spans.SpanRecorder()
        patches = spans.install(rec, lib)
        try:
            traced = run_phase(args.workload, lib, inputs, args.seed, args.seconds)
        finally:
            patches.restore()
        phases.append(traced)
        rec.write(OUT / f"spans-{args.workload}.bin")
        values = per_layer_metrics(rec.totals(), untraced, traced, workers)
        units = dict(per_layer_names())
        samples = {"spans": len(rec), "cases": traced.cases}
    else:
        values, samples = end_to_end_metrics(setup_times, untraced, workers)
        units = dict(END_TO_END)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [msg for p in phases for msg in p.problems]
    for msg in problems:
        print(f"gate failed: {msg}", file=sys.stderr)
    correct = failed == 0 and not problems
    for name, value in values.items():
        n = samples.get(name)
        print(f"{name:42s} {value:14.6g} {units[name]:6s}" + (f" n={n}" if n else ""))
    tail = tail_latency(untraced)
    print(f"{'case_us_p99 (not gated)':42s} {tail['case_us_p99']:14.6g} us     n={tail['samples']}"
          f" beyond={tail['beyond_p99']}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "fail_ratio": failed / attempted,
        "samples": samples,
        "tail": tail,
        "wall_cases_per_s": untraced.cases / untraced.wall_s if untraced.wall_s else 0.0,
        "host_speed": untraced.reference_s / untraced.wall_s if untraced.wall_s else 0.0,
        "problems": problems,
    }
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
