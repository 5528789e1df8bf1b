#!/usr/bin/env python3
"""Run-to-run acceptance check of the benchmark, as its contract states it.

Runs every workload of BENCHMARK.json N times (default 10), each time with
another --seed, and prints for each end-to-end metric the distance between
the first and third quartile of the N values as a share of their median
(statistics.quantiles(values, n=4)), beside the metric's bound. With
--twice the whole thing is done twice and the second median is compared
with the first, which is what the acceptance check does.

    python3 pipeline_bench/check_spread.py [--runs 10] [--first-seed 1] [--twice] [--workload NAME]

Run from the repository root. Prints one row per (workload, metric); exits 1
when a spread (setup_s excepted) exceeds its bound, a second median is worse
than the first by more than the bound, or a run reports correct=false.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return result, time.monotonic() - started


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--twice", action="store_true")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--binary", help="run this built program instead of BENCHMARK.json's command")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    command = [args.binary] if args.binary else bench["command"]
    metrics = bench["end_to_end"]
    ok = True
    for w in (args.workload or [w["name"] for w in bench["workloads"]]):
        medians = []
        for sweep in range(2 if args.twice else 1):
            values = {m["name"]: [] for m in metrics}
            longest = 0.0
            for i in range(args.runs):
                seed = args.first_seed + sweep * args.runs + i
                result, took = run_once(command, w, seed, bench["run_seconds"])
                longest = max(longest, took)
                if not result["correct"] or result["failed"]:
                    print(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}")
                    ok = False
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
            medians.append({k: statistics.median(v) for k, v in values.items()})
            for m in metrics:
                s = spread(values[m["name"]])
                gated = m["name"] != "setup_s"
                verdict = "ok" if s <= m["bound"] / 3 else ("within bound" if s <= m["bound"] else "TOO WIDE")
                if gated and s > m["bound"]:
                    ok = False
                print(f"{w:18} sweep {sweep} {m['name']:16} median {medians[-1][m['name']]:16.6f} "
                      f"spread {100 * s:6.2f}%  bound {100 * m['bound']:5.1f}%  "
                      f"{verdict if gated else 'ungated'}", flush=True)
            print(f"{w:18} sweep {sweep} longest run {longest:.1f} s", flush=True)
        if args.twice:
            for m in metrics:
                a, b = medians[0][m["name"]], medians[1][m["name"]]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                verdict = "ok" if worse <= m["bound"] else "WORSE"
                ok &= worse <= m["bound"]
                print(f"{w:18} second vs first {m['name']:16} worse by {100 * worse:+6.2f}%  {verdict}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
