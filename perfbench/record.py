"""Run every workload of the benchmark over several seeds and summarise the runs.

Usage, from the root of the repository:

    python3 perfbench/record.py                       # every workload, seed 1
    python3 perfbench/record.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace-seeds 1 2 \\
        --out perfbench/BENCH_baseline.json --label "commit cb1cd03"

Each run is ``perfbench/run.py`` in its own process, one after another.  For
every workload and metric it prints the unit, the median over the runs, the
quartiles and their distance as a share of the median (the spread, which for
an end-to-end metric must stay within the bound in ``BENCHMARK.json``), and
the sample count of one run.  It exits with code 1 if any run fails a check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
        detail = next((json.loads(s[len("detail "):]) for s in lines if s.startswith("detail ")), {})
    except json.JSONDecodeError:  # a crash: the run printed no result
        result, detail = {}, {}
    ok = proc.returncode == 0 and result.get("correct") is True
    if not ok:
        sys.stderr.write(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return {"ok": ok, "result": result, "detail": detail}


def metrics_of(run: dict) -> dict:
    return run["result"].get("metrics", {})


def tail_of(run: dict) -> dict:
    tail = run["detail"].get("tail")
    return {"case_us_p99": {"value": tail["case_us_p99"]}} if tail else {}


TAIL_SPEC = [{"name": "case_us_p99", "unit": "us"}]


def summarise(runs: list[dict], specs: list[dict], source=metrics_of) -> dict:
    out = {}
    for spec in specs:
        name = spec["name"]
        values = [source(r)[name]["value"] for r in runs if name in source(r)]
        if not values:
            continue
        q1, q2, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        mid = median(values)
        samples = [r["detail"].get("tail", {}).get("samples") if source is tail_of
                   else r["detail"].get("samples", {}).get(name) for r in runs]
        out[name] = {
            "unit": spec["unit"],
            "median": mid,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / mid if mid else 0.0,
            "bound": spec.get("bound"),
            "samples_per_run": samples[0],
            "values": values,
        }
    return out


def print_table(workload: str, kind: str, table: dict) -> None:
    print(f"\n{workload} ({kind})")
    for name, row in table.items():
        bound = row["bound"]
        flag = "" if bound is None else ("  ok" if row["spread"] <= bound / 3 else
                                         ("  within bound" if row["spread"] <= bound else "  OVER BOUND"))
        n = row["samples_per_run"]
        print(f"  {name:42s} {row['median']:14.6g} {row['unit']:6s} "
              f"q1={row['q1']:.6g} q3={row['q3']:.6g} spread={row['spread']:.4f}"
              + (f" bound={bound}" if bound is not None else "") + (f" n={n}" if n else "") + flag)


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--trace-seeds", nargs="*", type=int, default=[1])
    ap.add_argument("--out", type=Path, help="write the summary as JSON to this file")
    ap.add_argument("--label", default="", help="what was measured, e.g. a commit")
    args = ap.parse_args(argv)

    runs = {w: {0: [], 1: []} for w in args.workloads}
    for trace, seeds in ((0, args.seeds), (1, args.trace_seeds)):
        for seed in seeds:
            for w in args.workloads:
                runs[w][trace].append(run_once(w, seed, SPEC["run_seconds"], trace))

    record = {
        "label": args.label,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": SPEC["run_seconds"],
        "seeds": args.seeds,
        "trace_seeds": args.trace_seeds,
        "workloads": {},
    }
    for w in args.workloads:
        e2e = summarise(runs[w][0], SPEC["end_to_end"])
        tail = summarise(runs[w][0], TAIL_SPEC, tail_of)
        layers = summarise(runs[w][1], SPEC["per_layer"])
        record["workloads"][w] = {"end_to_end": e2e, "not_gated": tail, "per_layer": layers}
        print_table(w, "end to end", e2e)
        print_table(w, "not gated", tail)
        if layers:
            print_table(w, "per layer", layers)
    failed = [(w, t) for w in runs for t in runs[w] for r in runs[w][t] if not r["ok"]]
    record["failed_runs"] = len(failed)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\n{sum(len(v) for w in runs.values() for v in w.values())} runs, {len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
