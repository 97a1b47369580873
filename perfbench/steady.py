#!/usr/bin/env python3
"""Steadiness check for the serving benchmark.

Runs every workload (or the ones named) several times, each with its own
seed, and reports per end-to-end metric the median, the quartiles and the
spread (third quartile minus first, as a share of the median) next to the
bound BENCHMARK.json fixes for it.  It then runs one seed twice with
--trace 0 and twice with --trace 1 and asserts that every count metric
(unit "count" or "fraction") repeats exactly.

Usage, from the repository root:

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]

Exits 1 when a spread exceeds its bound, a run fails its correctness
checks, or a count does not repeat.
"""

import argparse
import json
import statistics
import subprocess
import sys

EXACT_UNITS = {"count", "fraction"}


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correctness check failed\n{out.stdout}")
    return result["metrics"]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else 0.0


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run(workload, args.first_seed + i, args.seconds, 0) for i in range(args.runs)]
        print(f"== {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds} s each")
        print(f"  {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            med, q1, q3, s = spread([r[name]["value"] for r in runs])
            flag = "" if s <= bound else "  OVER BOUND"
            if flag:
                ok = False
            print(f"  {name:28} {med:14.6f} {q1:14.6f} {q3:14.6f} {s:8.4f} {bound:6.2f}{flag}")
        repeated = True
        for trace in (0, 1):
            a = run(workload, args.first_seed, args.seconds, trace)
            b = run(workload, args.first_seed, args.seconds, trace)
            for name, x in a.items():
                if x["unit"] in EXACT_UNITS and x["value"] != b[name]["value"]:
                    repeated = False
                    print(f"  {name} (trace {trace}) did not repeat: "
                          f"{x['value']} then {b[name]['value']}")
        ok = ok and repeated
        if repeated:
            print(f"  every count repeated exactly across two runs of seed "
                  f"{args.first_seed}, traced and untraced")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
