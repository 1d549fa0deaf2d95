#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # all three workloads, untraced

Builds libcac and cac_perfbench from the sources of this checkout into
.bench_build/perfbench (build output goes to stderr), runs each workload
in its own process, echoes its report, and prints as the last line one
JSON object: correct, attempted, failed and the metrics BENCHMARK.json
names (end_to_end with --trace 0, per_layer with --trace 1).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["swim_compare", "mix_attribution", "advisor_open"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build only what the benchmark links."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no simulator sources at " + ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "cac_perfbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step failed: %s" % err)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "cac_perfbench")


def parse(output):
    """Metric and result lines of one cac_perfbench report."""
    metrics, result = {}, None
    for line in output.splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[0] == "metric" \
                and fields[4].startswith("n="):
            metrics[fields[1]] = {"value": float(fields[2]),
                                  "unit": fields[3],
                                  "samples": int(fields[4][2:])}
        elif fields and fields[0] == "result":
            result = dict(f.split("=", 1) for f in fields[1:])
    if result is None:
        fail("the report has no result line")
    return metrics, result


def run_workload(binary, workload, args):
    workdir = os.path.join(BUILD, "work", workload)
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.expect_digest:
        cmd += ["--expect-digest", args.expect_digest]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        fail("%s exited with %d" % (workload, done.returncode))
    return parse(done.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--expect-digest", default="",
                        help="fail one operation unless the run's output "
                             "digest equals this (hex)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    binary = build()

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        metrics, result = run_workload(binary, workload, args)
        summary["correct"] &= result["correct"] == "1"
        summary["attempted"] += int(result["attempted"])
        summary["failed"] += int(result["failed"])
        for m in wanted:
            got = metrics.get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                fail("%s did not report %s in %s"
                     % (workload, m["name"], m["unit"]))
            key = m["name"] if len(workloads) == 1 \
                else workload + "/" + m["name"]
            summary["metrics"][key] = {"value": got["value"],
                                       "unit": got["unit"]}
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
