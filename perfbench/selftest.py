#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/selftest.py

Short runs of every workload, untraced and traced, must print every
metric BENCHMARK.json names with its unit and sample count, report
correct with no failed operation, and end with the JSON result line. A
run given a deliberately wrong expected digest must count it as a
failed operation (fail_frac > 0, correct false). The seed is a large
one, as the benchmark is given, so inputs derived from it must stay
within what the generators accept. Exits 0 when all hold.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["swim_compare", "mix_attribution", "advisor_open"]
SEED = "4294967291"
METRIC = re.compile(r"^metric (\S+) +(\S+) (\S+) +n=(\d+)$")

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, seconds, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", SEED,
           "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = done.stdout.splitlines()
    printed = {}
    for line in lines:
        m = METRIC.match(line)
        if m:
            printed[m.group(1)] = (m.group(3), int(m.group(4)),
                                   float(m.group(2)))
    result = json.loads(lines[-1]) if done.returncode == 0 and lines \
        else None
    return done.returncode, printed, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            tag = "%s --trace %d" % (workload, trace)
            code, printed, result = run(workload, trace, 2)
            expect(code == 0 and result is not None, tag + ": exits 0 "
                   "with a JSON result line")
            if result is None:
                continue
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   tag + ": correct, no failed operation")
            for m in spec[key]:
                unit, samples, _ = printed.get(m["name"], (None, 0, 0))
                expect(unit == m["unit"] and samples >= 1
                       and m["name"] in result["metrics"],
                       "%s: prints %s in %s with its sample count"
                       % (tag, m["name"], m["unit"]))
            expect("fail_frac" in printed, tag + ": prints fail_frac")

    code, printed, result = run("swim_compare", 0, 1,
                                ["--expect-digest", "0" * 16])
    expect(code == 0 and result is not None and not result["correct"]
           and result["failed"] >= 1,
           "a wrong expected digest is a failed operation")
    expect(printed.get("fail_frac", ("", 0, 0))[2] > 0,
           "the wrong digest is counted in fail_frac")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
