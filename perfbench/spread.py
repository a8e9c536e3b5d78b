#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workload mqo-paper ...]
    python3 perfbench/spread.py --compare first.json second.json

For every workload and end-to-end metric (--trace 1: per-layer metric) it
prints the median over the runs and the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median, next
to the metric's bound in BENCHMARK.json. Spreads above a third of the bound
are flagged (setup_s is exempt: it is bounded only median to median).
A failing run is reported and the other runs go on. --out saves the
values; --compare checks that the second set's median of
every metric is not worse than the first's by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def run_sets(args, spec, failures):
    seconds = args.seconds or spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    values = {}
    for name in names:
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(seconds),
                                     "--trace", str(args.trace)]
            start = time.time()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            took = time.time() - start
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-2000:])
                print(f"{name} seed {seed}: FAILED, exit {proc.returncode}",
                      flush=True)
                failures.append(f"{name} seed {seed}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{name} seed {seed}: {took:.1f}s attempted "
                  f"{result['attempted']} failed {result['failed']}",
                  flush=True)
            for metric, entry in result["metrics"].items():
                values.setdefault(name, {}).setdefault(metric, []).append(
                    entry["value"])
    return values


def report(values, spec):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for name, metrics in values.items():
        print(f"\n{name}")
        for metric, vals in metrics.items():
            median, share = spread(vals)
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s":
                if share > bound / 3:
                    flag = "  <-- above bound/3"
                    ok = False
            bound_text = f"bound {bound}" if bound is not None else ""
            print(f"  {metric:34s} median {median:14.6g}  spread "
                  f"{share:8.4f}  {bound_text}{flag}")
    return ok


def compare(first, second, spec):
    ok = True
    for m in spec["end_to_end"]:
        for name in first:
            a = statistics.median(first[name][m["name"]])
            b = statistics.median(second[name][m["name"]])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "  <-- worse than bound" if worse > m["bound"] else ""
            ok = ok and not flag
            print(f"{name:18s} {m['name']:16s} {a:12.6g} -> {b:12.6g}  "
                  f"worse by {worse:+.4f} (bound {m['bound']}){flag}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar="JSON")
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        return 0 if compare(sets[0], sets[1], spec) else 1
    failures = []
    values = run_sets(args, spec, failures)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    ok = report(values, spec)
    for failure in failures:
        print(f"FAILED: {failure}")
    return 0 if ok and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
