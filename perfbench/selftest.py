#!/usr/bin/env python3
"""Self-test of the sweep benchmark.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark's own rules. Runs every
workload at --size smoke, untraced and traced, and checks each result line:
the exact keys, a correct run, and every metric of BENCHMARK.json with its
unit and a name matching [A-Za-z0-9_.-]+. Scheme names such as
"period-adapt/gp" appear as "period-adapt_gp". Last, runs the benchmark in a
directory that holds only BENCHMARK.json and perfbench/. There it must fail
without printing a result. Exits non-zero on the first failed check.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(condition, message):
    if not condition:
        print("selftest FAILED: " + message)
        sys.exit(1)


def check_config(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json keys")
    check(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
          "run_seconds")
    check(2 <= len(bench["workloads"]) <= 8, "2 to 8 workloads")
    names = [w["name"] for w in bench["workloads"]]
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
              "workload " + w["name"])
    for m in bench["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
              "end-to-end metric " + m["name"])
    for m in bench["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, "per-layer metric " + m["name"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(NAME.match(m["name"]) is not None, "metric name " + m["name"])
        check(UNIT.match(m["unit"]) is not None, "unit of " + m["name"])
        check(m["better"] in ("higher", "lower"), "better of " + m["name"])
        names.append(m["name"])
    check(len(names) == len(set(names)), "names are unique")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s is declared in s, lower is better")
    check(setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s has the largest bound")


def run(workload, trace, cwd):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(bench, workload, trace):
    done = run(workload, trace, REPO_ROOT)
    where = "%s --trace %d" % (workload, trace)
    check(done.returncode == 0, where + " exited %d: %s" % (done.returncode, done.stderr[-2000:]))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, where + ": result keys")
    check(result["correct"] is True, where + ": not correct:\n" + done.stdout[-2000:])
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, where + ": attempted")
    check(result["failed"] == 0, where + ": failed rows")
    declared = bench["per_layer" if trace else "end_to_end"]
    check(sorted(result["metrics"]) == sorted(m["name"] for m in declared),
          where + ": metric names differ from BENCHMARK.json")
    for m in declared:
        value = result["metrics"][m["name"]]
        check(value["unit"] == m["unit"], where + ": unit of " + m["name"])
        check(isinstance(value["value"], (int, float)) and math.isfinite(value["value"]),
              where + ": value of " + m["name"])
    if trace and workload == "optimal-gap":
        check(result["metrics"]["core.period-adapt_gp.calls"]["value"] > 0,
              "period-adapt/gp is reported as core.period-adapt_gp")
    return result


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: the run must fail without a result."""
    bare = os.path.join(REPO_ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "accept-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(done.returncode != 0, "a bare directory must make the benchmark fail")
    check('"correct"' not in done.stdout, "a bare directory must print no result")


def main():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    check_config(bench)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            check_run(bench, workload, trace)
            print("ok %s --trace %d" % (workload, trace))
    check_bare_directory()
    print("ok bare directory fails without a result")
    print("selftest passed")


if __name__ == "__main__":
    main()
