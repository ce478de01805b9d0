#!/usr/bin/env python3
"""Compare a google-benchmark JSON run against a checked-in baseline.

Usage: bench_compare.py BASELINE.json CURRENT.json MAX_RATIO

Exits non-zero when any benchmark present in both files is more than
MAX_RATIO times slower (real_time) than the baseline, or when a
baseline benchmark is absent from the current run: a renamed or
deleted bench must not silently leave the gate. Benchmarks only in the
current run are reported but not fatal, so adding a case does not
require regenerating the baseline in the same commit.
"""

import json
import sys


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    out = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        out[bench["name"]] = float(bench["real_time"])
    return out


def main():
    if len(sys.argv) != 4:
        sys.stderr.write(__doc__)
        return 2
    baseline = load(sys.argv[1])
    current = load(sys.argv[2])
    max_ratio = float(sys.argv[3])

    failed = []
    absent = []
    print(f"{'benchmark':56s} {'baseline':>12s} {'current':>12s} {'ratio':>7s}")
    for name in sorted(baseline):
        if name not in current:
            print(f"{name:56s} {baseline[name]:12.0f} {'absent':>12s} "
                  "MISSING")
            absent.append(name)
            continue
        ratio = current[name] / baseline[name] if baseline[name] else 1.0
        flag = " REGRESSION" if ratio > max_ratio else ""
        print(f"{name:56s} {baseline[name]:12.0f} {current[name]:12.0f} "
              f"{ratio:7.2f}{flag}")
        if ratio > max_ratio:
            failed.append(name)
    for name in sorted(set(current) - set(baseline)):
        print(f"{name:56s} {'(new)':>12s} {current[name]:12.0f}")

    if absent:
        print(f"\n{len(absent)} baseline benchmark(s) absent from the "
              f"current run: {', '.join(absent)}")
    if failed:
        print(f"\n{len(failed)} benchmark(s) regressed more than "
              f"{max_ratio}x: {', '.join(failed)}")
    if absent or failed:
        return 1
    print("\nbench smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
