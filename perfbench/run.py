#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the root of the repository. Builds the workload runner
(`perfbench/Cargo.toml`, into `$CARGO_TARGET_DIR`, default `.bench_build`),
runs it on a thread pool as wide as the CPUs this process may use, checks
its outputs and prints a provenance header, one line per metric (name,
value, unit, sample count, quartiles) and, as the last line, one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json; with
`--trace 1` they are its per-layer metrics, from a traced run. `--workload
all` runs every workload, untraced and traced. Exits non-zero when the build
fails, a run fails, or an output check does not hold.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every run, the first build included, must end within this many seconds.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def reduce(agg, xs):
    if agg == "mean":
        return statistics.fmean(xs)
    if agg == "p90":
        return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]
    return statistics.median(xs)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    names = [w["name"] for w in bench["workloads"]]
    if args.workload == "all":
        worst = 0
        for name in names:
            for trace in (0, 1):
                cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(args.seed), "--seconds", repr(args.seconds),
                       "--trace", str(trace)]
                worst = max(worst, subprocess.run(cmd).returncode)
        sys.exit(worst)
    if args.workload not in names:
        fail(f"unknown workload {args.workload}")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    t_build = time.monotonic()
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail("build failed")
    build_s = time.monotonic() - t_build

    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    workers = len(os.sched_getaffinity(0))
    env["BDA_THREADS"] = str(workers)
    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"workload run failed: {e}")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"workload run exited with {run.returncode}")
    raw = json.loads(lines[-1])

    metrics, rows = {}, []
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name == "ok_ratio":
            xs, agg = [(raw["attempted"] - raw["failed"]) / raw["attempted"]], "value"
        elif name in raw["metrics"]:
            r = raw["metrics"][name]
            if r["unit"] != unit:
                fail(f"{name}: runner reports {r['unit']}, BENCHMARK.json says {unit}")
            xs, agg = r["samples"], r["agg"]
        elif args.trace:
            xs, agg = [0.0], "absent"  # a layer this workload does not run: 0
        else:
            fail(f"end-to-end metric {name} was not measured")
        value = xs[0] if agg in ("value", "absent") else reduce(agg, xs)
        q1, q3 = quartiles(xs)
        metrics[name] = {"value": value, "unit": unit}
        rows.append((name, value, unit, agg, len(xs), q1, q3))

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": workers, "cpu": cpu_model(),
        "rustc": rustc_version(), "build_s": round(build_s, 3),
    }
    print("# " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    print(f"# {'metric':<32} {'value':>14} {'unit':<6} {'of':<7} {'n':>4} {'q1':>12} {'q3':>12}")
    for name, value, unit, agg, n, q1, q3 in rows:
        print(f"  {name:<32} {value:>14.6g} {unit:<6} {agg:<7} {n:>4} {q1:>12.6g} {q3:>12.6g}")
    for p in raw["problems"]:
        print(f"# FAILED: {p}")

    correct = raw["violations"] == 0
    with open(os.path.join(out_dir, f"result-{args.workload}-{args.seed}-{args.trace}.json"), "w") as f:
        json.dump({"provenance": provenance, "problems": raw["problems"],
                   "metrics": {r[0]: dict(zip(("value", "unit", "of", "n", "q1", "q3"), r[1:]))
                               for r in rows}}, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
