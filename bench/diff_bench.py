#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json artifact against a committed baseline.

Usage:
    diff_bench.py FRESH_JSON BASELINE_JSON [--max-regression PCT]
                  [--metric NAME] [--require-baseline]

A missing BASELINE_JSON is not an error by default: a newly added bench
has no committed baseline on its first run, and the gate skips with a
warning (exit 0) telling the author to commit one. Pass
--require-baseline to make a missing baseline fail instead (for benches
whose baselines are known to be committed).

Exits nonzero when
  * a top-level field present in one artifact is missing from the other
    (field parity, both directions: a baseline field missing from the
    fresh artifact means the bench silently stopped emitting a
    measurement; a fresh field missing from the baseline means the
    committed baseline needs a refresh to pin the new coverage),
  * the fresh artifact reports nonzero injected_faults / solver_retries /
    solver_fallbacks (the default bench run must stay on the fault-free
    hot path),
  * any (engine, threads) row present in the baseline is missing from the
    fresh artifact (coverage regression),
  * any row's throughput metric (default: sweep_spins_per_sec) regressed
    by more than --max-regression percent (default: 50) relative to the
    baseline,
  * the fresh artifact reports a determinism failure
    (all_identical_to_serial / identical_to_serial false),
  * the fresh artifact reports worker threads spawned during timed runs
    (the pool-reuse gate), or
  * the fresh artifact's packed_memory_reduction (bytes per retained
    sample of the byte-vector representation over the packed arena, on the
    2048-spin instance) falls below --min-memory-reduction (default: 4),
  * the fresh artifact's cache_speedup (cold embed incl. layout capture
    over a cached re-weight, same process) falls below
    --min-cache-speedup (default: 10),
  * the fresh artifact's csr_vs_map_speedup (the seed's map-based cold
    embed over the CSR cold embed) falls below --min-csr-map-speedup
    (default: 1), or
  * the fresh artifact reports an embedding parity MISMATCH
    (reweight_identical / embedding_identical false).

The default threshold is deliberately loose: bench machines differ (CI
runners vs laptops), so this gate is meant to catch order-of-magnitude
performance cliffs and correctness-flag regressions, not single-digit
noise. Track fine-grained trends by archiving the uploaded artifacts.
"""

import argparse
import json
import os
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        sys.exit(f"diff_bench: cannot read {path}: {error}")


def rows_by_key(artifact):
    rows = artifact.get("runs", [])
    if not isinstance(rows, list):
        sys.exit("diff_bench: 'runs' is not a list")
    return {(row.get("engine"), row.get("threads")): row for row in rows}


def main():
    parser = argparse.ArgumentParser(
        description="Compare a fresh bench artifact against a baseline.")
    parser.add_argument("fresh", help="freshly produced BENCH_*.json")
    parser.add_argument("baseline", help="committed baseline BENCH_*.json")
    parser.add_argument("--max-regression", type=float, default=50.0,
                        metavar="PCT",
                        help="maximum tolerated throughput regression in "
                             "percent (default: %(default)s)")
    parser.add_argument("--metric", default="sweep_spins_per_sec",
                        help="per-row throughput metric to compare "
                             "(default: %(default)s)")
    parser.add_argument("--min-memory-reduction", type=float, default=4.0,
                        metavar="FACTOR",
                        help="minimum tolerated packed_memory_reduction "
                             "factor when the fresh artifact reports one "
                             "(default: %(default)s)")
    parser.add_argument("--min-cache-speedup", type=float, default=10.0,
                        metavar="FACTOR",
                        help="minimum tolerated cache_speedup factor when "
                             "the fresh artifact reports one "
                             "(default: %(default)s)")
    parser.add_argument("--min-csr-map-speedup", type=float, default=1.0,
                        metavar="FACTOR",
                        help="minimum tolerated csr_vs_map_speedup factor "
                             "when the fresh artifact reports one "
                             "(default: %(default)s)")
    parser.add_argument("--require-baseline", action="store_true",
                        help="fail when the baseline file is missing instead "
                             "of skipping the comparison with a warning")
    args = parser.parse_args()

    fresh = load(args.fresh)
    # A bench's very first run has no committed baseline; that is a
    # skip-with-warning, not a crash — unless the caller asserts the
    # baseline must exist.
    if not os.path.exists(args.baseline):
        if args.require_baseline:
            print(f"FAIL: baseline {args.baseline} is missing and "
                  "--require-baseline was given", file=sys.stderr)
            return 1
        print(f"WARNING: baseline {args.baseline} is missing; skipping the "
              "comparison. Commit the fresh artifact as the baseline to "
              "enable gating (or pass --require-baseline to make this an "
              "error).", file=sys.stderr)
        return 0
    baseline = load(args.baseline)
    fresh_rows = rows_by_key(fresh)
    baseline_rows = rows_by_key(baseline)

    failures = []

    # Top-level field parity, both directions. Machine-dependent *values*
    # are fine (throughput gates have their own tolerance below); what may
    # never drift silently is which measurements exist at all.
    # Observability breakdowns (stage_* timing totals from solve traces,
    # trace_* counts) are informational: they may appear or change without
    # a baseline refresh, so they are exempt from parity and printed below.
    def informational(key):
        return key.startswith("stage_") or key.startswith("trace_")

    fresh_keys = {key for key in fresh if not informational(key)}
    baseline_keys = {key for key in baseline if not informational(key)}
    for key in sorted(baseline_keys - fresh_keys):
        failures.append(
            f"top-level field '{key}' exists in the baseline "
            f"({args.baseline}) but is missing from the fresh artifact "
            f"({args.fresh}): the bench stopped emitting it, or the wrong "
            "artifact was diffed")
    for key in sorted(fresh_keys - baseline_keys):
        failures.append(
            f"top-level field '{key}' is emitted by the bench but absent "
            f"from the baseline ({args.baseline}): refresh the committed "
            "baseline to pin the new measurement")

    # Fault-free hot path: the default bench run arms no fault injector,
    # so its resilience counters must be exactly zero. Nonzero means fault
    # machinery leaked into the no-fault path (or a retry/fallback fired
    # on a healthy run) — a correctness bug, not a perf regression.
    for field in ("injected_faults", "solver_retries", "solver_fallbacks"):
        value = fresh.get(field)
        if isinstance(value, (int, float)) and value != 0:
            failures.append(
                f"fresh artifact reports {field}={value}; the default "
                "bench run must stay on the fault-free hot path")

    stage_fields = sorted(key for key in fresh if informational(key))
    if stage_fields:
        print("observability breakdown (informational, not gated):")
        for key in stage_fields:
            print(f"  {key} = {fresh[key]}")

    if fresh.get("all_identical_to_serial") is False:
        failures.append("fresh artifact reports a parallel-vs-serial "
                        "determinism MISMATCH")
    spawned = fresh.get("workers_spawned_during_runs")
    if isinstance(spawned, (int, float)) and spawned != 0:
        failures.append(f"fresh artifact reports {spawned} worker threads "
                        "spawned during timed runs (pool not reused)")

    # Packed-storage memory gate: the bench measures bytes per retained
    # sample for the packed arena against the byte-vector representation
    # it replaced; the reduction must hold (machine-independent — both
    # numbers come from the same process on the same instance). A baseline
    # that carries the field pins coverage: the fresh artifact may not
    # silently drop the measurement.
    reduction = fresh.get("packed_memory_reduction")
    if isinstance(reduction, (int, float)):
        if reduction < args.min_memory_reduction:
            failures.append(
                f"packed_memory_reduction {reduction:.2f}x fell below the "
                f"required {args.min_memory_reduction:.1f}x")
        else:
            print(f"memory: packed_memory_reduction {reduction:.2f}x "
                  f"(limit {args.min_memory_reduction:.1f}x)")
    elif "packed_memory_reduction" in baseline:
        failures.append("fresh artifact has no numeric "
                        "'packed_memory_reduction' but the baseline does")

    # Embedding-cache gates. Both speedups compare two timings from the
    # same process on the same instance, so they are machine-independent
    # ratios like the memory gate above; the parity flags assert that the
    # cached re-weight and the legacy map-based compile produced
    # bit-identical physical problems.
    for field, minimum, label in (
            ("cache_speedup", args.min_cache_speedup,
             "cached re-weight vs cold embed"),
            ("csr_vs_map_speedup", args.min_csr_map_speedup,
             "CSR cold embed vs legacy map-based embed")):
        value = fresh.get(field)
        if isinstance(value, (int, float)):
            if value < minimum:
                failures.append(
                    f"{field} {value:.2f}x ({label}) fell below the "
                    f"required {minimum:.1f}x")
            else:
                print(f"embedding: {field} {value:.2f}x "
                      f"(limit {minimum:.1f}x)")
        elif field in baseline:
            failures.append(f"fresh artifact has no numeric '{field}' but "
                            "the baseline does")
    for flag in ("reweight_identical", "embedding_identical"):
        if fresh.get(flag) is False:
            failures.append(f"fresh artifact reports {flag}=false: the "
                            "embedding pipeline produced a non-identical "
                            "physical problem")

    print(f"{'engine':<12}{'threads':>8}{'baseline':>14}{'fresh':>14}"
          f"{'delta':>9}")
    for key in sorted(baseline_rows, key=lambda k: (str(k[0]), str(k[1]))):
        engine, threads = key
        base_row = baseline_rows[key]
        fresh_row = fresh_rows.get(key)
        if fresh_row is None:
            failures.append(f"row ({engine}, threads={threads}) missing "
                            "from fresh artifact")
            continue
        if fresh_row.get("identical_to_serial") is False:
            failures.append(f"row ({engine}, threads={threads}) is not "
                            "identical to the serial run")
        base_value = base_row.get(args.metric)
        fresh_value = fresh_row.get(args.metric)
        if not isinstance(base_value, (int, float)) or base_value <= 0:
            continue
        if not isinstance(fresh_value, (int, float)):
            failures.append(f"row ({engine}, threads={threads}) has no "
                            f"numeric '{args.metric}'")
            continue
        delta_pct = 100.0 * (fresh_value - base_value) / base_value
        print(f"{engine:<12}{threads:>8}{base_value:>14.3e}"
              f"{fresh_value:>14.3e}{delta_pct:>+8.1f}%")
        if -delta_pct > args.max_regression:
            failures.append(
                f"row ({engine}, threads={threads}): {args.metric} "
                f"regressed {-delta_pct:.1f}% "
                f"(limit {args.max_regression:.1f}%)")

    if failures:
        print()
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: no regression beyond {args.max_regression:.1f}% and all "
          "determinism flags clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
