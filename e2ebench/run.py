#!/usr/bin/env python3
"""End-to-end benchmark runner for the HYDRA reproduction.

Usage (from the repository root):

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds e2e_bench from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), then runs repetitions of the workload, one fresh process
each, for S seconds (at least MIN_REPS). Every repetition's outputs are
checked; repetitions of one seed must produce the same virtual-clock
digest. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians of the untraced
repetitions). --trace 1 adds an idle-floor leg and alternates untraced
and traced repetitions, printing the per-layer table and reporting the
per-layer metrics. Metric names and units come from BENCHMARK.json;
see e2ebench/README.md for what each metric means.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("tivo_offloaded", "tivo_copy", "fleet_open_loop")
TIVO = ("tivo_offloaded", "tivo_copy")
FLEET = ("fleet_open_loop",)
ALL = WORKLOADS

# A seed kept out of tuning; confirm later performance claims on it.
HELD_OUT_SEED = 7919

MIN_REPS = 3
# Hard ceiling on one invocation's measuring time, seconds.
BUDGET_S = 170.0

# Metric names and units live in BENCHMARK.json. Wall-clock end-to-end
# metrics are medians over repetitions; the rest are virtual-clock and
# identical across repetitions of a seed.
WALL_E2E = ("setup_s", "run_wall_s", "peak_rss_mb")


def recorded_on(name):
    """Workloads whose repetitions record the per-layer metric `name`;
    the others report it as 0."""
    if name.startswith("tivo."):
        return TIVO
    if name.startswith("fleet."):
        return FLEET
    return ALL


# Tolerated gap between the sum of the top-level spans and the wall time
# of the traced repetition's process, as measured from here. The gap is
# process start, static teardown and printing the record.
SPAN_COVERAGE_ERROR = 0.05


class BenchError(Exception):
    pass


def load_metrics():
    """(end_to_end, per_layer): name -> unit, in BENCHMARK.json order."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
        return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
                {m["name"]: m["unit"] for m in spec["per_layer"]})
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise BenchError(f"cannot read metric names from {path}: {err}")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def build(out_dir):
    """Configure and build e2e_bench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no HYDRA sources under {ROOT / 'src'}")
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    with open(out_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(out_dir), "--target",
                      "e2e_bench", "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                raise BenchError(f"build step failed: {' '.join(cmd)}")
    binary = out_dir / "e2e_bench"
    if not binary.is_file():
        raise BenchError(f"build produced no {binary}")
    return binary


def source_revision():
    """git commit when available, else a hash of the sources."""
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if rev.returncode == 0:
                return rev.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


class Runner:
    def __init__(self, binary, workload, seed, deadline, spans_dir):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.spans_dir = spans_dir

    def rep(self, traced=False, idle=False, spans=None):
        cmd = [str(self.binary), "--workload", self.workload,
               "--seed", str(self.seed)]
        if traced:
            cmd.append("--trace")
        if idle:
            cmd.append("--idle")
        if spans:
            cmd += ["--spans", str(spans)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 1:
            raise BenchError("time budget exhausted")
        start = time.monotonic()
        try:
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"repetition timed out: {' '.join(cmd)}")
        process_wall_s = time.monotonic() - start
        if done.returncode != 0:
            raise BenchError(f"repetition failed ({done.returncode}): "
                             f"{done.stderr.strip()[-500:]}")
        lines = done.stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            raise BenchError("repetition printed no record")
        record["process_wall_s"] = process_wall_s
        return record


def failed_checks(reps):
    return [f"{r['leg']}{'/traced' if r['traced'] else ''}: "
            f"{c['name']} ({c['detail']})"
            for r in reps for c in r["checks"] if not c["ok"]]


def consistency_errors(reps):
    """Repetitions of one seed must agree on every simulated output."""
    errors = []
    first = reps[0]
    for r in reps[1:]:
        if r["digest"] != first["digest"]:
            errors.append(f"virtual digest {r['digest']} != {first['digest']}")
        if r["virtual"] != first["virtual"]:
            errors.append("virtual-clock metrics differ between repetitions")
    return errors


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def run_untraced(runner, seconds):
    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        reps.append(runner.rep())
    return reps


def run_traced(runner, seconds):
    idle = runner.rep(idle=True)
    untraced, traced = [], []
    start = time.monotonic()
    while (len(traced) < 2 or time.monotonic() - start < seconds):
        untraced.append(runner.rep())
        spans = None
        if not traced:
            runner.spans_dir.mkdir(parents=True, exist_ok=True)
            spans = runner.spans_dir / f"{runner.workload}-seed{runner.seed}.json"
        traced.append(runner.rep(traced=True, spans=spans))
    return idle, untraced, traced


def tivo_cpu_ns_per_msg(rep, idle):
    """Busy ns per packet in the measured window, above the idle leg's."""
    layers = rep["layers"]
    busy = layers["tivo.window_busy_ns"] - idle["layers"]["tivo.window_busy_ns"]
    return busy / layers["tivo.window_packets"]


def end_to_end_metrics(workload, reps, idle, units):
    values = {k: median_of(reps, k) for k in WALL_E2E}
    values.update(reps[0]["virtual"])
    if workload in TIVO:
        values["cpu_ns_per_msg"] = tivo_cpu_ns_per_msg(reps[0], idle)
    if set(values) != set(units):
        raise BenchError(f"end-to-end metrics {sorted(values)} do not match "
                         f"BENCHMARK.json {sorted(units)}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def per_layer_metrics(workload, idle, untraced, traced, units):
    layers = {}
    for key in traced[0]["layers"]:
        layers[key] = statistics.median(r["layers"].get(key, 0.0)
                                        for r in traced)
    untraced_wall = median_of(untraced, "run_wall_s")
    layers["hw.idle_floor_s"] = idle["run_wall_s"]
    layers["hw.idle_floor_share"] = idle["run_wall_s"] / untraced_wall
    layers["trace.overhead_s"] = median_of(traced, "run_wall_s") - untraced_wall
    # traced[0] also writes its spans out, outside every span.
    layers["bench.span_coverage"] = statistics.median(
        r["layers"]["bench.top_span_s"] / r["process_wall_s"]
        for r in traced[1:])
    out = {}
    for name, unit in units.items():
        if name in layers:
            value = layers[name]
        elif workload not in recorded_on(name):
            value = 0.0
        else:
            raise BenchError(f"layer metric {name} missing for {workload}")
        out[name] = {"value": value, "unit": unit}
    return out, layers


def print_end_to_end(metrics):
    print(f"{'metric':<26} {'value':>16}  unit")
    for name, m in metrics.items():
        print(f"{name:<26} {m['value']:>16.6g}  {m['unit']}")


def print_layers(workload, metrics, layers, traced, untraced, idle):
    print(f"per-layer ledger: {workload} "
          f"({len(traced)} traced / {len(untraced)} untraced repetitions)")
    module = None
    for name, m in metrics.items():
        head = name.split(".")[0]
        if head != module:
            module = head
            print(f"[{module}]")
        print(f"  {name:<34} {m['value']:>16.6g}  {m['unit']}")
    breakdown = traced[0]["breakdown"]
    if breakdown:
        print("[breakdown]")
        for key in sorted(breakdown):
            print(f"  {key:<70} {breakdown[key]:>14.6g}")
    untraced_wall = median_of(untraced, "run_wall_s")
    print(f"idle floor: hw housekeeping alone takes {idle['run_wall_s']:.3f} s, "
          f"{100 * layers['hw.idle_floor_share']:.1f}% of run_wall_s "
          f"({untraced_wall:.3f} s)")
    traced_wall = median_of(traced, "run_wall_s")
    print(f"tracing overhead: {layers['trace.overhead_s']:+.4f} s "
          f"({100 * layers['trace.overhead_s'] / untraced_wall:+.1f}% of "
          f"run_wall_s; traced {traced_wall:.3f} s)")
    coverage = layers.get("bench.span_coverage", 0.0)
    print(f"span coverage: top-level spans sum to {100 * coverage:.2f}% of the "
          f"traced repetition's process wall time (allowed error "
          f"{100 * SPAN_COVERAGE_ERROR:.0f}%)")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    end_to_end_units, per_layer_units = load_metrics()
    deadline = time.monotonic() + BUDGET_S
    out_dir = build_dir()
    binary = build(out_dir)
    # The build does not count against the measurement budget.
    deadline = max(deadline, time.monotonic() + BUDGET_S - 10)
    runner = Runner(binary, args.workload, args.seed, deadline,
                    out_dir / "spans")

    if args.trace:
        idle, untraced, traced = run_traced(runner, args.seconds)
        reps = untraced + traced
        errors = failed_checks([idle] + reps) + consistency_errors(reps)
        metrics, layers = per_layer_metrics(args.workload, idle, untraced,
                                            traced, per_layer_units)
        coverage = layers["bench.span_coverage"]
        if abs(1.0 - coverage) > SPAN_COVERAGE_ERROR:
            errors.append(f"top-level spans cover {coverage:.4f} of the "
                          f"traced process wall time")
    else:
        # tivo's cpu_ns_per_msg subtracts the idle leg's busy time.
        idle = runner.rep(idle=True) if args.workload in TIVO else None
        reps = run_untraced(runner, args.seconds)
        errors = (failed_checks([idle] if idle else [])
                  + failed_checks(reps) + consistency_errors(reps))
        metrics = end_to_end_metrics(args.workload, reps, idle,
                                     end_to_end_units)

    context = dict(reps[0]["context"])
    context.update(source=source_revision(), held_out_seed=HELD_OUT_SEED,
                   workload=args.workload, seed=args.seed,
                   trace=args.trace, repetitions=len(reps))
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics if not errors else {},
    }
    (out_dir / "results").mkdir(exist_ok=True)
    record = out_dir / "results" / (f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json")
    record.write_text(json.dumps({"result": result, "context": context,
                                  "errors": errors, "idle": idle,
                                  "repetitions": reps}, indent=1))

    print(f"# context: {json.dumps(context)}")
    if errors:
        for e in errors:
            print(f"# FAILED: {e}")
    elif args.trace:
        print_layers(args.workload, metrics, layers, traced, untraced, idle)
    else:
        print_end_to_end(metrics)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as err:
        log(f"e2ebench: {err}")
        sys.exit(1)
