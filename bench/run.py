"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of BENCHMARK.json for S seconds in this process and
prints, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Lines before it give
raw wall-clock figures for the record. Full results go to bench/out/.

Every timed item is preceded by one run of the reference computation
(reference.py); an item's relative time is its wall time divided by that
reference's wall time.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

STARTED = time.perf_counter()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_PROBES = 5

# one BLAS thread, so timings do not depend on what shares the other cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="set up, print the monotonic clock and exit "
                             "(used to time set-up in fresh interpreters)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def set_up(args):
    """Imports, input generation and one untimed warm-up item."""
    if not os.path.isfile(os.path.join(SRC, "nvphonon", "__init__.py")):
        fail(f"package source not found under {SRC}")
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r} "
             f"(known: {', '.join(workloads.WORKLOADS)})")
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.item(0)
    return workloads, workload, workdir


def setup_seconds(args):
    """Median set-up time of fresh interpreters, start to first timed item."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--probe-setup"]
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120,
                              check=False)
        if done.returncode != 0:
            fail(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]) - started)
    return statistics.median(samples), samples


def proc_io():
    """(rchar, wchar, size) of this process from /proc/self/io. rchar counts
    the `size` bytes of this read itself once the read is done."""
    with open("/proc/self/io", "rb") as handle:
        text = handle.read()
    fields = dict(line.split(b": ") for line in text.splitlines())
    return int(fields[b"rchar"]), int(fields[b"wchar"]), len(text)


def layer_metrics(tracer, first, wall, io_before, io_after):
    """Per-layer figures of one traced item, keyed by metric name."""
    layers, coverage, extras = tracer.summarise(first, wall)
    metrics = {"trace.coverage": coverage}
    for name, layer in layers.items():
        if name.startswith("verify."):
            metrics[f"{name}.ms"] = layer["total_s"] * 1e3
        else:
            metrics[f"{name}.calls"] = layer["calls"]
            metrics[f"{name}.self_ms"] = layer["self_s"] * 1e3
    for index, extra in extras.items():
        evaluations = (tracer.child_calls(index, "phonon.effective_isc_rates")
                       / max(extra["temperatures"], 1))
        metrics["estimate.fit_gamma_a1.iterations"] = extra["iterations"]
        metrics["estimate.fit_gamma_a1.evals_per_iter"] = (
            evaluations / max(extra["iterations"], 1))
    # bytes the item read and wrote through system calls (files; the
    # reference and the tracer do none)
    metrics["cli.bytes_read"] = io_after[0] - io_before[0] - io_before[2]
    metrics["cli.bytes_written"] = io_after[1] - io_before[1]
    return metrics, layers


def self_test(workload, layers, wall):
    """The workload's span counts per item, and no self time above the
    item's wall time."""
    problems = [f"tracer: {problem}" for problem in
                workload.check_spans({name: layer["calls"] for name, layer in layers.items()})]
    for name, layer in layers.items():
        if not -1e-6 <= layer["self_s"] <= wall:
            problems.append(f"tracer: {name} self time {layer['self_s']:.6f} s "
                            f"outside [0, item wall {wall:.6f} s]")
    return problems


def main(argv=None):
    args = parse_args(argv)
    workloads, workload, workdir = set_up(args)
    try:
        if args.probe_setup:
            print(repr(time.perf_counter()))
            return 0
        return run(args, workloads, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workloads, workload):
    from reference import reference
    from tracer import Tracer

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    setup_s, setup_samples = (None, [])
    if not args.trace:
        setup_s, setup_samples = setup_seconds(args)

    tracer = Tracer() if args.trace else None
    problems, per_item, layer_rows = [], [], []
    failed = attempted = 0
    deadline = time.perf_counter() + args.seconds
    index = 0
    # a traced run needs one untraced and one traced item
    while index < (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and index % 2 == 1
        if traced:
            first = len(tracer.spans)
            io_before = proc_io()
            tracer.install()
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        try:
            output = workload.item(index)
        except Exception as exc:  # a failed operation is counted, not fatal
            output = exc
        t2 = time.perf_counter()
        if traced:
            tracer.uninstall()
            io_after = proc_io()
        attempted += 1
        if isinstance(output, Exception):
            failed += 1
            print(f"bench: item {index} raised {type(output).__name__}: {output}",
                  file=sys.stderr)
        else:
            problems += workload.check(index, output)
            per_item.append({"index": index, "traced": traced, "ref_s": t1 - t0,
                             "item_s": t2 - t1, "rel": (t2 - t1) / (t1 - t0)})
            if traced:
                metrics, layers = layer_metrics(tracer, first, t2 - t1, io_before, io_after)
                problems += self_test(workload, layers, t2 - t1)
                layer_rows.append(metrics)
        index += 1

    problems += workload.finish()
    rmse = None
    if not args.trace:
        rmse, misses = workloads.anchor_rmse_mhz()
        if misses:
            problems.append(f"anchor seeds {misses} recovered outside "
                            f"+/-{workloads.TOLERANCE_MHZ} MHz")

    untraced = [row for row in per_item if not row["traced"]]
    rel = [row["rel"] for row in untraced]
    measured = {
        "item_rel_p50": statistics.median(rel),
        "throughput_rel": len(rel) / sum(rel),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gamma_a1_rmse_mhz": rmse,
    }
    if tracer is not None:
        traced_rel = [row["rel"] for row in per_item if row["traced"]]
        measured["trace.overhead_rel"] = statistics.median(traced_rel) - measured["item_rel_p50"]
        for name in {name for row in layer_rows for name in row}:
            measured[name] = statistics.median(row.get(name, 0) for row in layer_rows)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for entry in declared[section]:
        # a layer that an item never reaches reads 0
        value = measured.get(entry["name"], 0) if args.trace else measured[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    quartiles = statistics.quantiles(rel, n=4, method="inclusive") if len(rel) > 1 else rel * 3
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "items": len(per_item),
        "item_ms_p50": statistics.median(r["item_s"] for r in untraced) * 1e3,
        "ref_ms_p50": statistics.median(r["ref_s"] for r in per_item) * 1e3,
        "item_rel_p25": quartiles[0], "item_rel_p75": quartiles[2],
        # a p90 is a tail only with at least ten items beyond it
        "item_rel_p90": (statistics.quantiles(rel, n=10, method="inclusive")[8]
                         if len(rel) >= 100 else None),
        "setup_samples_s": setup_samples, "problems": problems, "per_item": per_item,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w", encoding="utf-8") as handle:
        json.dump({"record": record, "metrics": metrics}, handle, indent=1)
    if tracer is not None:
        with open(os.path.join(OUT_DIR, f"trace-{stem}.json"), "w", encoding="utf-8") as handle:
            json.dump({"layers_per_traced_item": layer_rows,
                       "spans": [[name, round((start - STARTED) * 1e6), round((end - start) * 1e6),
                                  parent] for name, start, end, parent in tracer.spans]},
                      handle)

    for problem in problems:
        print(f"bench: FAIL {problem}", file=sys.stderr)
    print(f"record: {len(per_item)} items; raw item {record['item_ms_p50']:.1f} ms p50; "
          f"reference {record['ref_ms_p50']:.2f} ms p50; relative p25/p50/p75 "
          f"{record['item_rel_p25']:.3f}/{measured['item_rel_p50']:.3f}/"
          f"{record['item_rel_p75']:.3f}"
          + (f", p90 {record['item_rel_p90']:.3f}" if record["item_rel_p90"] else ""))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
