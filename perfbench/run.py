#!/usr/bin/env python3
"""PredILP benchmark: build the harness from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload figures_cold --seed 1 \
        --seconds 20 --trace 0

The script builds perfbench/ (a CMake package that compiles ../src)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset. It then runs predilp_perfbench for the workload as a closed loop
for --seconds and checks every priced cell against
perfbench/expected_outputs.json. It prints each metric BENCHMARK.json
names, with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics from untraced passes. --trace 1
reports the per-layer metrics from one traced pass (see
harness/traced.hh), plus the evaluator's plan counters (driver.*) from
the untraced passes that precede it.

Exit codes: 1 without a result line when the build or the harness
fails; 1 after the result line when a cell failed its check; else 0.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED = BENCH_DIR / "expected_outputs.json"
WORKLOADS = ("figures_cold", "figures_warm", "sweep_cache_grid")

# The evaluator's pool size, fixed so runs on bigger hosts stay
# comparable; never more than the CPUs this process may use.
POOL_THREADS = min(4, len(os.sched_getaffinity(0)))

# Everything after the build must end within this many seconds; the
# harness normally needs 25-45 s, so a run past it is a hang.
RUN_BUDGET_S = 170


def log(message=""):
    print(message, flush=True)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(1)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def harness_env():
    """The environment minus PREDILP_* overrides (store, threads,
    emulator backend, fault injection), which would change what is
    measured."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("PREDILP_")}


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / \
        "perfbench"


def build():
    """Configure (once) and build the harness; return its path."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", str(POOL_THREADS)])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=harness_env(), check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    binary = out / "predilp_perfbench"
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def run_harness(args, deadline):
    """Run the harness to completion and return its stdout."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, env=harness_env(),
                              timeout=timeout, check=False, text=True)
    except subprocess.TimeoutExpired:
        fail(f"harness timed out after {timeout:.0f} s: "
             f"{' '.join(args)}")
    if done.returncode != 0:
        fail(f"harness exited with {done.returncode}: {' '.join(args)}")
    return done.stdout


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          check=False)
    return done.stdout.strip() or "unknown"


def summary(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def end_to_end(report):
    passes = report["passes"]
    metrics = {}
    for name in ("wall_s", "cpu_s", "setup_s"):
        if name == "setup_s":
            samples = [s for p in passes for s in p[name]]
        else:
            samples = [p[name] for p in passes]
        median, q1, q3 = summary(samples)
        log(f"{name}: median {median:.6f} s, q1 {q1:.6f}, q3 {q3:.6f}, "
            f"n={len(samples)}")
        metrics[name] = median
    metrics["peak_rss_mib"] = report["peak_rss_kib"] / 1024.0
    metrics["cells_ok"] = \
        (report["attempted"] - report["failed"]) / report["attempted"]
    metrics["sim_speedup_full_pred"] = report["speedups"]["full_pred"]
    metrics["sim_speedup_cond_move"] = report["speedups"]["cond_move"]
    return metrics


FAITHFUL_COUNTS = ("compiles", "prefix_compiles", "captures", "replays",
                   "captured_records", "replayed_records", "store_hits",
                   "store_writes", "result_cache_hits")


def per_layer(report):
    traced = report["traced"]
    untraced = report["untraced_counts"]
    wall = summary([p["wall_s"] for p in report["passes"]])[0]
    cpu = summary([p["cpu_s"] for p in report["passes"]])[0]
    layer_self = traced["layer_self_s"]

    metrics = dict(traced["layers"])
    metrics["driver.compiles"] = untraced["compiles"]
    metrics["driver.captures"] = untraced["captures"]
    metrics["driver.replays"] = untraced["replays"]
    metrics["driver.store_hits"] = untraced["store_hits"]
    metrics["driver.result_cache_hits"] = untraced["result_cache_hits"]
    metrics["driver.overhead_cpu_s"] = cpu - layer_self
    metrics["driver.parallel_eff"] = \
        layer_self / (wall * report["pool_threads"])

    log("traced vs untraced counts:")
    for name in FAITHFUL_COUNTS:
        a, b = traced["counts"][name], untraced[name]
        log(f"  {name:18} traced {a:>12}  untraced {b:>12}  "
            f"{'match' if a == b else 'DIFFERS'}")
    if traced["speedups"] != report["speedups"]:
        log("  speedups DIFFER: traced "
            f"{traced['speedups']} vs untraced {report['speedups']}")
    overhead = metrics["driver.overhead_cpu_s"]
    residual = cpu - (layer_self + overhead)
    log(f"layer accounting: layer self-times {layer_self:.6f} s + "
        f"driver.overhead_cpu_s {overhead:.6f} s = untraced cpu_s "
        f"{cpu:.6f} s (residual {residual:.3g} s)")
    unspanned = traced["wall_s"] - layer_self - traced["driver_self_s"]
    log(f"traced pass: wall {traced['wall_s']:.6f} s = layer self "
        f"{layer_self:.6f} s + walk bookkeeping "
        f"{traced['driver_self_s']:.6f} s + unspanned {unspanned:.3g} s "
        f"({traced['spans']} spans); cpu {traced['cpu_s']:.6f} s")
    log(f"tracing overhead: traced wall {traced['wall_s']:.6f} s vs "
        f"untraced cpu_s {cpu:.6f} s = "
        f"{(traced['wall_s'] - cpu) / cpu:+.1%}")
    return metrics


def main():
    args = parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S

    work = build_dir().parent / f"perfbench-work-{os.getpid()}"
    spans = build_dir().parent / f"perfbench-spans-{args.workload}.json"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "figures_warm":
            # Preparation, in its own process so neither its time nor
            # its memory counts toward the measured run.
            run_harness([str(binary), "--prepare-store",
                         str(work / "store"), "--threads",
                         str(POOL_THREADS)], deadline)
        out = run_harness([
            str(binary), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--threads", str(POOL_THREADS),
            "--work-dir", str(work), "--expected", str(EXPECTED),
            "--trace-out", str(spans)], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if not lines:
        fail("harness printed no report")
    report = json.loads(lines[-1])

    log(f"perfbench: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}")
    log(f"machine: cpu=\"{cpu_model()}\" "
        f"nproc={len(os.sched_getaffinity(0))} "
        f"pool_threads={report['pool_threads']} "
        f"compiler=\"{report['compiler']}\" "
        f"build_type={report['build_type']} commit={git_commit()} "
        f"seed={report['seed']} store_mode={report['store_mode']} "
        f"emu_backend={report['emu_backend']}")
    log(f"cells: attempted {report['attempted']}, failed "
        f"{report['failed']}")
    for failure in report["failures"]:
        log(f"  failed cell: {failure}")
    if not report["speedups_stable"]:
        log("simulated speedups differ between passes")

    if args.trace:
        values = per_layer(report)
        wanted = spec["per_layer"]
        log(f"spans: {spans}")
    else:
        values = end_to_end(report)
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            fail(f"the harness reported no value for metric {name}")
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
        log(f"{name} = {values[name]} {metric['unit']}")

    correct = report["failed"] == 0 and report["speedups_stable"]
    print(json.dumps({"correct": correct,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
