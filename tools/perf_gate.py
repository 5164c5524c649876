#!/usr/bin/env python3
"""Perf-regression gate over the repo's machine-readable bench output.

Three record formats are understood:

  scaling  one JSON line emitted by bench_parallel_scaling (bench_util's
           {"bench":"parallel_scaling","records":[...]} shape). The gated
           metrics, at the highest thread count present in both runs, are
           reorder_seconds and the two inverse builds exactly as
           KDashIndex::Build runs them, lower_inverse_seconds (L⁻¹) and
           upper_inverse_seconds (the stored U⁻¹ᵀ): the parallel
           set-up stages most likely to silently regress back to a
           sequential wall (the inverses' fill included). Also gated is
           build_peak_mb, how far one whole KDashIndex::Build raises the
           process's resident high-water mark, so the build's memory peak
           cannot silently grow back; build_peak_mb is gated at 1 thread
           too, the inline build, whose allocation order is
           deterministic. lu_seconds is reported informationally. A key
           missing from either run is skipped.

  micro    google-benchmark JSON (--benchmark_format=json) from
           bench_micro_kernels. Every benchmark the current run measured
           that also exists in the baseline is gated on real_time, so the
           run's --benchmark_filter (in ci.yml) is the one list of gated
           benchmarks. It pins the single-thread query-latency benchmarks,
           which must never pay for precompute-side parallelism, the
           single-thread builds of L⁻¹ and of the stored U⁻¹ᵀ, so a slower
           inverse kernel cannot silently replace the blocked one, and the
           single-thread LU factorization, whose gated input takes the
           dense tail, the single-thread build, write path and rebuild of
           the updatable engine (BM_DynamicBuild, BM_DynamicEdit,
           BM_DynamicRebuild), so its base factorization cannot silently
           lose its fill-reducing order and an edit or a rebuild cannot
           silently grow dearer, and the graph build (BM_GraphBuild), so
           the one sort of a graph's edges cannot silently come back as
           several.

  latency  one bench_util JSON line whose "metrics" array carries the
           process metric-registry snapshot (src/obs/metrics.h). The gated
           value is the p99 of --metric (default engine.search_us, one
           sample per Engine search) from --bench (default
           serving_throughput, run single-threaded in CI so queueing noise
           stays out of the tail). That bench's histogram mixes whole-graph
           queries with the shard searches of its P=4 ShardedEngine and of
           its in-process router workers, so the gated p99 is not a
           per-query serving latency. Histogram quantiles are bucket lower
           bounds — deterministic, so two identical runs compare exactly
           equal; p50 and count are reported informationally.

A missing baseline passes with a note (first run / expired artifact); a
missing or malformed current file fails — the gate must not silently
approve a build whose bench crashed.

Exit codes: 0 pass, 1 regression, 2 usage/input error.
"""

import argparse
import json
import sys


def read_lines_json(path, bench_name):
    """Finds the bench_util record line for `bench_name` in a log/JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if '"bench"' not in line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and record.get("bench") == bench_name:
                return record
    raise ValueError(f"no \"{bench_name}\" record line in {path}")


def gate_scaling(args):
    try:
        current = read_lines_json(args.current, "parallel_scaling")
    except (OSError, ValueError) as error:
        print(f"perf-gate: cannot read current scaling record: {error}")
        return 2
    try:
        baseline = read_lines_json(args.baseline, "parallel_scaling")
    except OSError:
        print(f"perf-gate: no baseline at {args.baseline} — first run, passing")
        return 0
    except ValueError as error:
        print(f"perf-gate: baseline unreadable ({error}) — passing")
        return 0

    by_threads_base = {r["threads"]: r for r in baseline.get("records", [])
                       if "threads" in r}
    by_threads_cur = {r["threads"]: r for r in current.get("records", [])
                      if "threads" in r}
    if not by_threads_cur:
        # The current run measured nothing: never approve it.
        print("perf-gate: current scaling run has no thread records — failing")
        return 2
    common = sorted(set(by_threads_base) & set(by_threads_cur))
    if not common:
        # Baseline drift (format change): equivalent to a first run; the
        # next main-branch run refreshes the baseline.
        print("perf-gate: no common thread counts with the baseline — passing")
        return 0

    checks = [(common[-1], key, gated) for key, gated in [
        ("reorder_seconds", True),
        ("lu_seconds", False),
        ("lower_inverse_seconds", True),
        ("upper_inverse_seconds", True),
        ("build_peak_mb", True),
    ]]
    if common[-1] != 1 and 1 in common:
        checks.append((1, "build_peak_mb", True))

    failed = False
    for threads, key, gated in checks:
        base = by_threads_base[threads]
        cur = by_threads_cur[threads]
        if key not in base or key not in cur:
            continue
        old, new = float(base[key]), float(cur[key])
        if old <= 0:
            continue
        ratio = new / old
        verdict = "OK"
        if gated and ratio > 1.0 + args.max_regress:
            verdict = f"REGRESSION (> {args.max_regress:.0%})"
            failed = True
        marker = "gated" if gated else "info"
        unit = "MB" if key.endswith("_mb") else "s"
        print(f"perf-gate[{marker}] t={threads} {key}: {old:.6g}{unit} -> "
              f"{new:.6g}{unit} ({ratio:.3f}x) {verdict}")

    return 1 if failed else 0


def gate_micro(args):
    try:
        with open(args.current, "r", encoding="utf-8") as handle:
            current = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"perf-gate: cannot read current micro-bench JSON: {error}")
        return 2
    try:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except OSError:
        print(f"perf-gate: no baseline at {args.baseline} — first run, passing")
        return 0
    except ValueError as error:
        print(f"perf-gate: baseline unreadable ({error}) — passing")
        return 0

    def usable(bench):
        return ("name" in bench and "real_time" in bench and
                not bench.get("error_occurred"))

    base_by_name = {b["name"]: b
                    for b in baseline.get("benchmarks", []) if usable(b)}
    current_usable = [b for b in current.get("benchmarks", []) if usable(b)]
    if not current_usable:
        # The current run measured none of the gated kernels (bench crashed,
        # filter drifted, benchmarks errored): never approve it.
        print("perf-gate: current run has no usable benchmarks — failing")
        return 2

    failed = False
    compared = 0
    for bench in current_usable:
        name = bench["name"]
        if name not in base_by_name:
            continue
        old = float(base_by_name[name]["real_time"])
        new = float(bench["real_time"])
        if old <= 0:
            continue
        compared += 1
        ratio = new / old
        verdict = "OK"
        if ratio > 1.0 + args.max_regress:
            verdict = f"REGRESSION (> {args.max_regress:.0%})"
            failed = True
        unit = bench.get("time_unit", "ns")
        print(f"perf-gate[gated] {name}: {old:.6g}{unit} -> {new:.6g}{unit} "
              f"({ratio:.3f}x) {verdict}")
    if compared == 0:
        # Baseline lacks the current names (rename/drift): first-run
        # semantics; the next main-branch run refreshes the baseline.
        print("perf-gate: baseline shares no benchmark names with the "
              "current run — passing")
    return 1 if failed else 0


def find_histogram(record, metric_name):
    """Finds a histogram entry by name in a bench record's metrics array."""
    for entry in record.get("metrics", []):
        if (isinstance(entry, dict) and entry.get("name") == metric_name and
                entry.get("type") == "histogram"):
            return entry
    raise ValueError(f"no histogram metric \"{metric_name}\" in record "
                     f"(bench built before instrumentation, or metric renamed)")


def gate_latency(args):
    try:
        current = read_lines_json(args.current, args.bench)
        cur_hist = find_histogram(current, args.metric)
    except (OSError, ValueError) as error:
        print(f"perf-gate: cannot read current latency record: {error}")
        return 2
    if int(cur_hist.get("count", 0)) == 0:
        # The bench ran but the serving path recorded nothing: the metric
        # plumbing broke, never approve on an empty histogram.
        print(f"perf-gate: current {args.metric} histogram is empty — failing")
        return 2
    try:
        baseline = read_lines_json(args.baseline, args.bench)
        base_hist = find_histogram(baseline, args.metric)
    except OSError:
        print(f"perf-gate: no baseline at {args.baseline} — first run, passing")
        return 0
    except ValueError as error:
        print(f"perf-gate: baseline unreadable ({error}) — passing")
        return 0
    if int(base_hist.get("count", 0)) == 0:
        print(f"perf-gate: baseline {args.metric} histogram is empty — passing")
        return 0

    failed = False
    for key, gated in [("p99", True), ("p50", False), ("count", False)]:
        if key not in base_hist or key not in cur_hist:
            continue
        old, new = float(base_hist[key]), float(cur_hist[key])
        if old <= 0:
            continue
        ratio = new / old
        verdict = "OK"
        if gated and ratio > 1.0 + args.max_regress:
            verdict = f"REGRESSION (> {args.max_regress:.0%})"
            failed = True
        marker = "gated" if gated else "info"
        unit = "" if key == "count" else "us"
        print(f"perf-gate[{marker}] {args.metric} {key}: {old:.6g}{unit} -> "
              f"{new:.6g}{unit} ({ratio:.3f}x) {verdict}")

    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    scaling = sub.add_parser("scaling", help="gate bench_parallel_scaling JSON")
    scaling.add_argument("--baseline", required=True)
    scaling.add_argument("--current", required=True)
    scaling.add_argument("--max-regress", type=float, default=0.10)
    scaling.set_defaults(func=gate_scaling)

    micro = sub.add_parser("micro", help="gate google-benchmark JSON")
    micro.add_argument("--baseline", required=True)
    micro.add_argument("--current", required=True)
    micro.add_argument("--max-regress", type=float, default=0.10)
    micro.set_defaults(func=gate_micro)

    latency = sub.add_parser(
        "latency", help="gate a latency-histogram p99 from a bench record")
    latency.add_argument("--baseline", required=True)
    latency.add_argument("--current", required=True)
    latency.add_argument("--max-regress", type=float, default=0.10)
    latency.add_argument("--bench", default="serving_throughput")
    latency.add_argument("--metric", default="engine.search_us")
    latency.set_defaults(func=gate_latency)

    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
