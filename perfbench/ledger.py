"""Run every workload over several seeds and summarise: the bench ledger.

Usage, from the root of a checkout::

    python3 perfbench/ledger.py [--runs 10] [--first-seed 0] [--workload NAME ...]
                                [--trace] [--out perfbench/ledger/BENCH_<commit>.json]

Each run is one ``perfbench/run.py`` process, started after the previous one
has exited.  For every end-to-end metric the summary gives the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median, next to the metric's bound
in ``BENCHMARK.json``.  ``--trace`` adds one traced run per workload.  With
``--out`` every run's result and metadata are written to a JSON ledger entry.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    meta = next((json.loads(x[5:]) for x in lines if x.startswith("meta ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "error": proc.stderr[-2000:]}
    return {"seed": seed, "exit": proc.returncode, "elapsed_s": elapsed, "result": result,
            "meta": meta}


def summarise(runs: list[dict], specs: list[dict]) -> dict:
    out = {}
    for spec in specs:
        values = [r["result"]["metrics"].get(spec["name"], {}).get("value") for r in runs]
        values = [v for v in values if v is not None]
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[spec["name"]] = {
            "unit": spec["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf"),
            "bound": spec.get("bound"),
            "n": len(values),
        }
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    entry = {"run_seconds": bench["run_seconds"], "workloads": {}}
    failed = False
    for name in args.workload or names:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run_once(name, s, bench["run_seconds"], False) for s in seeds]
        summary = summarise(runs, bench["end_to_end"])
        record = {"runs": runs, "end_to_end": summary}
        if args.trace:
            traced = run_once(name, args.first_seed, bench["run_seconds"], True)
            record["traced"] = traced
        entry["workloads"][name] = record
        attempted = sum(r["result"]["attempted"] for r in runs)
        bad = sum(r["result"]["failed"] for r in runs)
        failed |= bad > 0 or any(r["exit"] != 0 for r in runs)
        elapsed = sum(r["elapsed_s"] for r in runs)
        print(f"== {name}: {len(runs)} runs in {elapsed:.0f} s, checks failed {bad}/{attempted}")
        for metric, s in summary.items():
            print(
                f"{name:16s} {metric:14s} median {s['median']:12.6g} {s['unit']:5s}"
                f" q1 {s['q1']:10.6g} q3 {s['q3']:10.6g}"
                f" spread {s['spread']:.4f} bound {s['bound']}"
            )
        if args.trace:
            for metric, m in traced["result"]["metrics"].items():
                value = "absent" if m.get("absent") else f"{m['value']:.6g}"
                print(f"{name:16s} {metric:30s} {value} {m['unit']}")
        sys.stdout.flush()
    if args.out:
        first = next(iter(entry["workloads"].values()))["runs"][0]["meta"]
        entry["meta"] = {k: first.get(k) for k in
                         ("commit", "python", "numpy", "nproc", "affinity", "cpu_model", "thread_caps")}
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(entry, fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
