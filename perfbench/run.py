#!/usr/bin/env python3
"""End-to-end sweep benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload accept-grid --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The first call builds perfbench/ (and the
library sources under src/) in Release mode into .bench_build/, or into
$CARGO_TARGET_DIR when set.  Then, for --seconds, it starts one fresh
sweepbench process after another.  Process k of a run measures the inputs of
seed `child_seed(seed, k)`, so a run covers several input draws, and the
same --seed always gives the same inputs.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  Each one is the
median over the run's processes; query latency percentiles are taken in each
process first.
--trace 1 alternates traced and untraced processes on the same inputs.  It
prints the per-layer metrics, as medians over the traced processes, and
checks that the traced rows are byte-identical to the untraced rows.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`attempted` counts rows, and `failed` counts rows with status "error".
The lines before it record the machine, the row accounting, and every
metric with its unit.  The exit code is 0 unless the benchmark could not
run.  A failed output check prints "correct": false.
"""
import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)

# Default seed of every workload: the seed whose row digest is recorded in
# digests.json.  Any other seed is held out: checked, but without a digest.
DEFAULT_SEED = 1
WORKLOADS = ("accept-grid", "optimal-gap", "runtime-adapt", "point-queries")
TRACE_PREFIX = b'"scheme":"trace@'
CHILD_TIMEOUT_S = 150
# A traced run's reconciliation tolerance: busy time plus head and tail idle
# must fill jobs x sweep_s within this share.
RECONCILE_TOLERANCE = 0.02


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(REPO_ROOT, ".bench_build"))


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "exp", "sweep.h")):
        fail("no library sources under " + os.path.join(REPO_ROOT, "src") +
             "; run from the root of a full checkout")
    build_dir = os.path.join(build_root(), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "sweepbench")


def build_info(binary):
    """The binary's build stamp; refuses anything but a Release build."""
    done = subprocess.run([binary, "--info"], capture_output=True, text=True)
    if done.returncode != 0:
        fail("refusing to run: " + (done.stdout + done.stderr).strip(), code=3)
    return json.loads(done.stdout)


def source_digest():
    """sha256 over the library and benchmark sources, in path order."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in sorted(os.walk(os.path.join(REPO_ROOT, top))):
            subdirs.sort()
            for name in sorted(files):
                if name.endswith((".cpp", ".h", ".py", ".txt", ".json")):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, REPO_ROOT).encode() + b"\0")
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout, read from .git without running git (which would
    search parent directories and read configuration outside the checkout)."""
    git_dir = os.path.join(REPO_ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git_dir, ref)):
            with open(os.path.join(git_dir, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "not a git checkout"


def machine_stamp(info, args, jobs):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "build_type": info["build_type"],
        "compiler": info["compiler"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "jobs": jobs,
        "size": args.size,
    }


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def child_seed(seed, k):
    """Seed of process k in a run: the run's own seed first, then derived."""
    return seed if k == 0 else (seed * 1000003 + k) % (1 << 62)


def rows_digest(path, traced):
    with open(path, "rb") as handle:
        data = handle.read()
    if traced:
        data = data.replace(TRACE_PREFIX, b'"scheme":"')
    return hashlib.sha256(data).hexdigest()


def run_child(binary, workload, seed, trace, jobs, size, work_dir):
    """One measured process; returns its measurement plus process-level
    figures taken from outside (set-up time from spawn, CPU time, peak RSS)."""
    out_path = os.path.join(work_dir, "rows.jsonl")
    stdout_path = os.path.join(work_dir, "child.json")
    argv = [binary, "--workload", workload, "--seed", str(seed), "--jobs", str(jobs),
            "--trace", str(trace), "--size", size, "--out", out_path]
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout_path,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    spawned_ns = time.monotonic_ns()
    pid = os.posix_spawn(binary, argv, os.environ, file_actions=actions)
    # Block in wait4 (a polling loop would compete with the workers for the
    # CPUs); a timer kills a process that overruns.
    timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    if os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL:
        fail("sweepbench timed out on %s seed %d" % (workload, seed))
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        fail("sweepbench exited with %d on %s seed %d" % (code, workload, seed))
    with open(stdout_path) as handle:
        result = json.loads(handle.read())
    result["setup_s"] = (result["first_unit_ns"] - spawned_ns) * 1e-9
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
    result["digest"] = rows_digest(out_path, trace == 1)
    os.remove(out_path)
    os.remove(stdout_path)
    return result


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1]


def expect(problems, condition, message):
    """Records a failed output check; any failure makes the run incorrect."""
    if not condition:
        problems.append(message)


def check_rows(problems, result):
    expect(problems, result["feasible_unvalidated"] == 0,
           "%d feasible rows did not pass validation (seed %d)"
           % (result["feasible_unvalidated"], result["seed"]))
    expect(problems, result["rows"] > 0, "no rows (seed %d)" % result["seed"])


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


def end_to_end(results):
    # Percentiles per process, then the median over processes, so that one
    # slow process moves the run's p99 no more than its sweep_s.
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "sweep_s": statistics.median(r["sweep_s"] for r in results),
        "cells_per_s": statistics.median(r["cells"] / r["sweep_s"] for r in results),
        "cpu_s": statistics.median(r["cpu_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "query_ms_p50": statistics.median(nearest_rank(r["latency_ms"], 0.50) for r in results),
        "query_ms_p99": statistics.median(nearest_rank(r["latency_ms"], 0.99) for r in results),
    }, min(len(r["latency_ms"]) for r in results)


def per_layer(problems, traced, untraced, jobs):
    names = sorted(traced[0]["layers"])
    values = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    values["trace.overhead_frac"] = (statistics.median(r["sweep_s"] for r in traced) /
                                     statistics.median(r["sweep_s"] for r in untraced) - 1.0)
    for t, u in zip(traced, untraced):
        expect(problems, t["digest"] == u["digest"],
               "traced rows differ from untraced rows (seed %d)" % t["seed"])
        expect(problems, not t["trace_problem"], t["trace_problem"])
        expect(problems, t["reconcile_error"] <= RECONCILE_TOLERANCE,
               "self times + residual + idle miss jobs x sweep_s by %.3f (seed %d)"
               % (t["reconcile_error"], t["seed"]))
        expected = 1 if t["workload"] == "point-queries" else min(jobs, t["cells"])
        expect(problems, t["worker_threads"] == expected,
               "%d worker threads traced, expected %d" % (t["worker_threads"], expected))
        if t["workload"] in ("accept-grid", "optimal-gap"):
            # The separately timed draws must be the sweep's own draws.
            schemes = t["rows"] // t["cells"]
            expect(problems, t["layers"]["gen.no_instance"] * schemes == t["no_instance"],
                   "gen.no_instance disagrees with the no-instance rows")
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the self-test")
    parser.add_argument("--record-digest", action="store_true",
                        help="write the default seed's row digest to digests.json")
    args = parser.parse_args()

    bench = load_json(os.path.join(REPO_ROOT, "BENCHMARK.json"))
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    binary = build()
    info = build_info(binary)
    jobs = len(os.sched_getaffinity(0))
    print("machine " + json.dumps(machine_stamp(info, args, jobs), sort_keys=True))

    work_dir = os.path.join(build_root(), "perfbench-run", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    min_processes = 1 if args.size == "smoke" else 3
    digests_path = os.path.join(BENCH_DIR, "digests.json")
    digests = load_json(digests_path)
    problems = []
    traced, untraced = [], []
    ticks_before = cpu_ticks()
    started = time.monotonic()
    k = 0
    while k < min_processes or time.monotonic() - started < seconds:
        seed = child_seed(args.seed, k)
        # Traced runs alternate which of the pair goes first, so that an
        # order effect does not show up as tracing overhead.
        for trace in ((1, 0) if k % 2 == 0 else (0, 1)) if args.trace else (0,):
            result = run_child(binary, args.workload, seed, trace, jobs, args.size, work_dir)
            (traced if trace else untraced).append(result)
        k += 1
    os.rmdir(work_dir)
    ticks_after = cpu_ticks()
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        # Time the host gave to other guests: wall-clock metrics rise with it
        # while cpu_s does not.
        print("host steal during the run: %.1f%% of CPU time" % (
            100.0 * (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1])))

    for result in traced + untraced:
        check_rows(problems, result)
    if args.record_digest:
        if args.seed != DEFAULT_SEED or args.size != "full":
            fail("--record-digest needs the default seed and --size full")
        digests[args.workload] = untraced[0]["digest"]
        with open(digests_path, "w") as handle:
            json.dump(digests, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.seed == DEFAULT_SEED and args.size == "full":
        expect(problems, digests.get(args.workload) == untraced[0]["digest"],
               "row digest mismatch for %s seed %d: recorded %s, got %s"
               % (args.workload, DEFAULT_SEED, digests.get(args.workload),
                  untraced[0]["digest"]))

    rows = sum(r["rows"] for r in untraced)
    errors = sum(r["errors"] for r in untraced)
    print("rows %s: %d processes, %d rows, %d error, %d no-instance, %d skipped, "
          "error_frac %.6f, seeds %s"
          % (args.workload, len(untraced), rows, errors,
             sum(r["no_instance"] for r in untraced), sum(r["skipped"] for r in untraced),
             errors / rows if rows else 0.0, [r["seed"] for r in untraced]))
    print("sweep_s per process: " + " ".join("%.4f" % r["sweep_s"] for r in untraced))
    if args.seed != DEFAULT_SEED:
        print("held-out seed %d: no recorded digest, rows checked for validation only"
              % args.seed)

    if args.trace:
        values = per_layer(problems, traced, untraced, jobs)
        declared = bench["per_layer"]
    else:
        values, samples = end_to_end(untraced)
        declared = bench["end_to_end"]
        print("query latency samples per process: %d (%s)" % (
            samples, "queries" if args.workload == "point-queries"
            else "rows, timed from Sweep::run start to the sinks"))
    names = [m["name"] for m in declared]
    expect(problems, sorted(names) == sorted(values),
           "metrics differ from BENCHMARK.json: missing %s, extra %s"
           % (sorted(set(names) - set(values)), sorted(set(values) - set(names))))
    metrics = {}
    for m in declared:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print("metric %-34s %.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    for problem in problems:
        print("CHECK FAILED: " + problem)
        print("perfbench: CHECK FAILED: " + problem, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": rows,
                      "failed": errors, "metrics": metrics}))


if __name__ == "__main__":
    main()
