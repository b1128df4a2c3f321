"""Run the benchmark on several seeds and summarise each metric.

    python3 bench/repeat.py --workload NAME [--seeds 0-9] [--trace 0|1]

Runs bench/run.py once per seed, one run at a time, and prints for every
metric the median, the quartiles and the spread (quartile distance over
the median, as statistics.quantiles(values, n=4) gives the quartiles),
plus the raw wall-clock and reference medians of the record files.
Each run lasts run_seconds of BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    seconds = declared["run_seconds"]

    results, records = [], []
    for seed in args.seeds:
        command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                              timeout=600, check=False)
        if done.returncode != 0:
            sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        stem = f"{args.workload}-seed{seed}-trace{args.trace}"
        with open(os.path.join(BENCH_DIR, "out", f"result-{stem}.json"),
                  encoding="utf-8") as handle:
            records.append(json.load(handle)["record"])
        print(f"seed {seed}: correct {result['correct']}, attempted "
              f"{result['attempted']}, failed {result['failed']}", flush=True)

    print(f"\n{args.workload}, {len(results)} runs of {seconds:g} s, trace {args.trace}")
    columns = {name: [r["metrics"][name]["value"] for r in results]
               for name in results[0]["metrics"]}
    columns["raw item_ms_p50"] = [r["item_ms_p50"] for r in records]
    columns["raw ref_ms_p50"] = [r["ref_ms_p50"] for r in records]
    columns["items per run"] = [r["items"] for r in records]
    for name, values in columns.items():
        median = statistics.median(values)
        if len(values) >= 2:
            low, _, high = statistics.quantiles(values, n=4)
        else:
            low = high = median
        spread = (high - low) / median if median else 0.0
        print(f"{name:42s} median {median:<12.6g} q1 {low:<12.6g} q3 {high:<12.6g} "
              f"spread {spread:.4f}")
    print("all correct:", all(r["correct"] for r in results),
          " failed/attempted:", sorted({(r["failed"], r["attempted"]) for r in results
                                       if r["failed"]}) or 0)


if __name__ == "__main__":
    main()
