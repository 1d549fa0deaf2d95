#!/usr/bin/env python3
"""Within-run gates over perfbench's traced result line.

Reads the JSON object on the last line of stdin, which is what
`python3 perfbench/run.py --workload W --trace 1` prints last, and
compares layer-ladder rungs measured in that same run, so the gates
hold on any host:

  integrity  trace.read_ns <= 2.0 x trace.read_noverify_ns
             (CRC32C verification at most doubles a chunk read)
  memo       serve.hit_us x 10 <= serve.compute_ms x 1000
             (a memo hit costs under a tenth of a cold compute)

Exits non-zero when a gate fails or a metric a gate needs is missing.

Dependency-free by design (json/argparse only).

Usage:
  python3 perfbench/run.py --workload swim_compare --seconds 2 --trace 1 \\
      | tail -n 1 | python3 tools/check_ladder.py
"""

import argparse
import json
import sys

# name, (left metric, factor), (right metric, factor): the gate holds
# when left x factor <= right x factor.
GATES = [
    ("integrity", ("trace.read_ns", 1.0), ("trace.read_noverify_ns", 2.0)),
    ("memo", ("serve.hit_us", 10.0), ("serve.compute_ms", 1000.0)),
]


def main():
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    if not lines:
        sys.exit("check_ladder: no input")
    try:
        report = json.loads(lines[-1])
        metrics = {name: float(m["value"])
                   for name, m in report["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        sys.exit("check_ladder: not a perfbench result line: %s" % err)

    failures = 0
    for name, (left, lf), (right, rf) in GATES:
        missing = [m for m in (left, right) if m not in metrics]
        if missing:
            print("check_ladder: FAIL %s: missing %s"
                  % (name, ", ".join(missing)))
            failures += 1
            continue
        lhs, rhs = metrics[left] * lf, metrics[right] * rf
        ok = lhs <= rhs
        print("check_ladder: %s %s: %s x %g = %.4g %s %s x %g = %.4g"
              % ("ok" if ok else "FAIL", name, left, lf, lhs,
                 "<=" if ok else ">", right, rf, rhs))
        failures += not ok
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
