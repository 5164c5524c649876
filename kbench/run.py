#!/usr/bin/env python3
"""K-dash benchmark runner.

    python3 kbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 kbench/run.py --selftest

Run from the root of a checkout. It builds the harness (kbench/, a CMake
package of its own over the checkout's src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, runs one workload, and prints the
harness's output; the last line is the JSON result. Workloads and metric
names come from BENCHMARK.json, and the result is checked against them.

--selftest runs every workload at a tiny size, traced and untraced, checks
that every metric BENCHMARK.json names is emitted with its unit, and checks
that a deliberately corrupted answer is caught.

Exit codes: 0 ok, 1 a wrong answer, 2 a harness or build error, 3 the run
overran its wall-time bound.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
HARNESS = os.path.join(BUILD_DIR, "kbench", "kbench_harness")
WORK_DIR = os.path.join(BUILD_DIR, "work")
# A run must end within 180 s; the harness gets the rest after the build.
RUN_LIMIT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(code, message):
    log("kbench: " + message)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail(2, "cannot read %s: %s" % (path, err))


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(2, "no src/ in %s: run from the root of a K-dash checkout" % ROOT)
    build_dir = os.path.join(BUILD_DIR, "kbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for step in (configure, ["cmake", "--build", build_dir, "-j", jobs,
                             "--target", "kbench_harness"]):
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            fail(2, "build step failed: " + " ".join(step))


def source_revision():
    """The git SHA when the checkout is a repository, else a content hash."""
    try:
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "kbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def run_harness(workload, seed, seconds, trace, extra=(), limit=RUN_LIMIT_S):
    """Runs the harness; returns (exit code, stdout lines, parsed result)."""
    command = [HARNESS, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--work-dir", WORK_DIR, "--git-sha", source_revision()] + list(extra)
    # One malloc arena: glibc otherwise adds per-thread arenas whenever
    # threads happen to contend, and peak RSS then varies by 10-30% from run
    # to run with the thread timing, not with the program's memory.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(3, "%s overran its %d s bound" % (workload, limit))
    lines = [line for line in out.splitlines() if line.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def check_result(spec, result, trace):
    """Problems with a result line against the contract, as strings."""
    if not isinstance(result, dict):
        return ["no JSON result line"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a positive integer")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a non-negative integer")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append("missing metric " + metric["name"])
        elif got.get("unit") != metric["unit"]:
            problems.append("%s: unit %r, want %r" % (metric["name"], got.get("unit"),
                                                      metric["unit"]))
        elif not isinstance(got.get("value"), (int, float)):
            problems.append("%s: value %r is not a number" % (metric["name"],
                                                              got.get("value")))
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append("metrics not in BENCHMARK.json: %s" % sorted(extra))
    return problems


def selftest(spec):
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            code, _, result = run_harness(workload, 7, 1, trace, ["--tiny"])
            label = "%s trace=%d" % (workload, trace)
            problems = check_result(spec, result, trace)
            if code != 0:
                problems.append("exit code %d" % code)
            elif not result["correct"] or result["failed"] != 0:
                problems.append("answers not all correct")
            log("selftest %-28s %s" % (label, "ok" if not problems else problems))
            failures += [label + ": " + p for p in problems]
        code, _, result = run_harness(workload, 7, 1, False, ["--tiny", "--corrupt"])
        caught = (code == 1 and isinstance(result, dict) and result.get("correct") is False
                  and result.get("failed", 0) >= 1)
        log("selftest %-28s %s" % (workload + " corrupted",
                                   "caught" if caught else "NOT CAUGHT"))
        if not caught:
            failures.append(workload + ": corrupted answer not caught")
    if failures:
        fail(1, "selftest failed:\n  " + "\n  ".join(failures))
    log("selftest passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    build()
    if args.selftest:
        selftest(spec)
        return
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(2, "--workload must be one of %s" % names)
    if args.seed is None or args.seconds is None or args.seconds <= 0:
        fail(2, "--seed and a positive --seconds are required")

    code, lines, result = run_harness(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    problems = check_result(spec, result, bool(args.trace))
    if code not in (0, 1) or problems:
        for line in lines[:-1]:
            log(line)
        fail(2, "harness exit %d; %s" % (code, "; ".join(problems) or "no result"))
    for line in lines:
        print(line)
    sys.exit(code)


if __name__ == "__main__":
    main()
