#!/usr/bin/env bash
# Run each bench binary cold, then warm twice, against a persistent
# artifact store and validate every BENCH_*.json it emits (the
# StatsSnapshot-serialized observability payload) with a strict JSON
# parser.
#
# Cold pass: starts from a store with no traces and no records (the
# previous run's records are kept aside for the drift gate; its
# traces are deleted), so every trace is captured. Enforces the
# packed-trace size contract — the throughput counters must be
# present, a fault-free cold pass must capture something, and
# bytes-per-capture / bytes-per-entry must stay under the committed
# thresholds (the packed 4-byte entry + varint delta format sits well
# below them; the old 8-byte format would trip both). Throughput
# itself is not gated here: absolute rates depend on the machine, so
# perfbench/ judges them against the parent commit's runs instead.
# A fault-free cold pass's "compiler" section must also match the
# plan counts: one sched.schedule run per compile, one
# superblock.form or hyperblock.form run per formation, and one
# driver.profile run per prefix compile.
#
# Served warm pass: reruns the same binaries against the store
# populated by the cold pass and enforces the result-tier contract —
# every bench must serve its cells from their certified records
# (store.result_hit > 0): zero compiles, zero formations, zero
# captures, zero replays, zero emulation seconds, zero record writes,
# and figure output bit-identical to the cold run.
#
# Trace-tier warm pass: removes the certified records and reruns, so
# every cell maps its trace from the store — every bench must report
# store.hit > 0, zero compiles, zero formations, zero captures, zero
# emulation seconds, and figure output bit-identical to the cold
# run. It republishes the records it replays.
#
# Usage: scripts/bench_json.sh [bench-binary...]; defaults to the
# figures benchmark (Figures 8-11, Tables 2-3) and the ablation
# table. Every bench must be evaluator-driven: it writes figure
# output and reads and writes the artifact store. Assumes
# scripts/tier1.sh already built.
# PREDILP_STORE overrides the store location (default
# bench-out/store).
set -euo pipefail
cd "$(dirname "$0")/.."

benches=("$@")
if [ "${#benches[@]}" -eq 0 ]; then
    benches=(bench_figures_all bench_ablations)
fi

mkdir -p bench-out
export PREDILP_STORE="${PREDILP_STORE:-$PWD/bench-out/store}"
cd bench-out

# Under fault injection the size thresholds and warm zero-work
# counters are skipped (retries and repairs re-emulate on purpose) — but
# every shape check and every bit-identity contract is kept: injected
# faults must never change the figures.
if [ -n "${PREDILP_FAULTS:-}" ]; then
    echo "== PREDILP_FAULTS='${PREDILP_FAULTS}': size thresholds and" \
        "warm zero-work counters skipped; identity checks kept =="
fi

run_benches() {
    for bench in "${benches[@]}"; do
        "../build/bench/${bench}"
    done
}

# The JSONs this run writes: one per bench, named after it. Only
# these are checked, so a stale BENCH_*.json that another script left
# in bench-out/ (scripts/sweep_ci.sh's BENCH_sweep*.json) never enters
# a gate. They are removed first, so a bench that writes nothing
# fails below instead of passing on the previous run's file.
jsons=()
for bench in "${benches[@]}"; do
    jsons+=("BENCH_${bench#bench_}.json")
done
rm -f "${jsons[@]}"

# Move the previous run's certified result records (if any) out of
# the store, so the drift gate below can compare the two runs cell by
# cell. Moved, not copied: with the records in place the cold pass
# would serve every cell from them, and the gate would compare those
# records with themselves.
rm -rf results-before
if [ -d "${PREDILP_STORE}/results" ]; then
    mv "${PREDILP_STORE}/results" results-before
fi
# Delete the previous run's traces as well: mapped from the store, no
# trace is captured, and the size gates below would check nothing.
# The drift gate needs only the records.
rm -rf "${PREDILP_STORE}/objects"

echo "== cold pass (store: ${PREDILP_STORE}) =="
run_benches

for json in "${jsons[@]}"; do
    if [ ! -f "${json}" ]; then
        echo "error: ${json} not produced" >&2
        exit 1
    fi
    python3 -m json.tool "${json}" > /dev/null
    echo "ok: ${json}"
done

python3 - "${jsons[@]}" <<'EOF'
import json
import os
import sys

# Size thresholds only bind on fault-free runs; see the
# PREDILP_FAULTS note at the top of this script.
THRESHOLDS = not os.environ.get("PREDILP_FAULTS")

# Committed thresholds for the packed trace format. Baselines on the
# old 8-byte format: ~4.2 MB/capture and ~10.8 B/entry; the packed
# format measures ~1.9 MB/capture and ~4.9 B/entry.
MAX_TRACE_BYTES_PER_CAPTURE = 3_000_000
MAX_TRACE_BYTES_PER_ENTRY = 6.0

# The passes whose runs sum to each plan count of timing.counters.
PLAN_PASSES = (
    (("sched.schedule",), "compiles"),
    (("superblock.form", "hyperblock.form"), "formations"),
    (("driver.profile",), "prefix_compiles"),
)

failed = False


def fail(msg):
    global failed
    failed = True
    print(f"error: {msg}", file=sys.stderr)


def threshold_fail(msg):
    if THRESHOLDS:
        fail(msg)
    else:
        print(f"skip (faults armed): {msg}")


def pass_runs(compiler, name):
    node = compiler
    for key in name.split("."):
        node = node.get(key, {})
    return node.get("runs", 0)


for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    timing = doc["timing"]
    counters = timing.get("counters", {})
    throughput = timing.get("throughput", {})

    if counters.get("replays") and "replay_records_per_sec" not in throughput:
        fail(f"{path}: missing throughput.replay_records_per_sec")

    if counters.get("captured_records"):
        if "trace_bytes_per_entry" not in throughput:
            fail(f"{path}: missing throughput.trace_bytes_per_entry")
        else:
            bpe = throughput["trace_bytes_per_entry"]
            if bpe > MAX_TRACE_BYTES_PER_ENTRY:
                threshold_fail(f"{path}: trace_bytes_per_entry {bpe:.2f} "
                               f"exceeds {MAX_TRACE_BYTES_PER_ENTRY}")

    captures = counters.get("captures", 0)
    captured_bytes = counters.get("captured_bytes", 0)
    if not (captures and captured_bytes):
        # The store holds no traces, so a cold pass that captured
        # nothing has skipped the size gates, not passed them.
        threshold_fail(f"{path}: cold pass captured nothing "
                       f"({captures} captures, {captured_bytes} bytes)")
    else:
        per_capture = captured_bytes / captures
        if per_capture > MAX_TRACE_BYTES_PER_CAPTURE:
            threshold_fail(f"{path}: {per_capture:.0f} trace bytes/capture "
                           f"exceeds {MAX_TRACE_BYTES_PER_CAPTURE}")
        else:
            print(f"ok: {path} trace bytes/capture {per_capture:.0f} "
                  f"<= {MAX_TRACE_BYTES_PER_CAPTURE}")

    compiler = doc.get("compiler", {})
    for names, plan in PLAN_PASSES:
        ran = sum(pass_runs(compiler, name) for name in names)
        label = " + ".join(f"{name}.runs" for name in names)
        if plan not in counters:
            fail(f"{path}: no timing.counters.{plan}")
        elif ran != counters[plan]:
            threshold_fail(f"{path}: {label} = {ran}, but "
                           f"counters.{plan} = {counters[plan]}")
        else:
            print(f"ok: {path} {label} == counters.{plan} ({ran})")

sys.exit(1 if failed else 0)
EOF

# Certified drift gate: join this run's certified records against the
# archived previous run by provenance identity. Cells whose digests
# moved are explained; a cell with identical provenance but different
# figures is unexplained drift and fails the build (predilp_diff
# exits 1). First run on a fresh store just seeds the baseline.
if [ -d results-before ] && [ -d "${PREDILP_STORE}/results" ]; then
    echo "== certified drift gate (vs previous run) =="
    ../build/tools/predilp_diff --before results-before \
        --after "${PREDILP_STORE}/results"
else
    echo "== certified drift gate: no previous results; seeding =="
fi

# Stash the cold JSONs, then rerun against the now-populated store.
mkdir -p cold
for json in "${jsons[@]}"; do
    cp "${json}" "cold/${json}"
done

# warm_gate MODE JSON...: the zero-work and warm == cold checks of a
# warm pass. MODE "served" expects every cell from its certified
# record; "traces" expects every trace mapped from the store.
warm_gate() {
    python3 - "$@" <<'EOF'
import json
import os
import sys

mode, paths = sys.argv[1], sys.argv[2:]

# Injected faults legitimately break the warm zero-work contract
# (quarantine-and-recompute re-emulates on purpose); the figure
# bit-identity contract below still binds.
ZERO_WORK = not os.environ.get("PREDILP_FAULTS")

# The leaf that marks an evaluator-driven bench in this mode, and the
# leaves such a bench must leave at zero.
if mode == "served":
    HIT = "result_hit"
    ZERO = (("store", "miss"), ("store", "result_write"),
            ("counters", "compiles"), ("counters", "formations"),
            ("counters", "captures"), ("counters", "replays"),
            ("phases", "emulate_seconds"))
else:
    HIT = "hit"
    ZERO = (("store", "miss"), ("counters", "compiles"),
            ("counters", "formations"), ("counters", "captures"),
            ("phases", "emulate_seconds"))

failed = False


def fail(msg):
    global failed
    failed = True
    print(f"error: {msg}", file=sys.stderr)


def zero_work_fail(msg):
    if ZERO_WORK:
        fail(msg)
    else:
        print(f"skip (faults armed): {msg}")


for path in paths:
    with open(path) as f:
        warm = json.load(f)
    timing = warm["timing"]
    store = timing.get("store", {})
    if store.get(HIT, 0) == 0:
        # Every bench here is evaluator-driven: a bench that stops
        # reading the store fails, however many others still do.
        fail(f"{path}: {mode} warm pass has no store.{HIT}")
        continue

    # A missing leaf fails outright: reading it as 0 would turn the
    # gate off silently when a counter is renamed.
    for scope, key in ZERO:
        value = timing.get(scope, {}).get(key)
        if value is None:
            fail(f"{path}: no timing.{scope}.{key}")
        elif value != 0:
            zero_work_fail(f"{path}: {mode} warm run did work "
                           f"(timing.{scope}.{key} = {value})")

    with open(f"cold/{path}") as f:
        cold = json.load(f)
    if warm["benchmarks"] != cold["benchmarks"]:
        fail(f"{path}: {mode} warm figure output differs from cold run")
    else:
        print(f"ok: {path} {mode} warm == cold "
              f"({store[HIT]} store.{HIT}, 0 emulations)")

sys.exit(1 if failed else 0)
EOF
}

echo "== served warm pass =="
run_benches
warm_gate served "${jsons[@]}"

echo "== trace-tier warm pass (certified records removed) =="
rm -rf "${PREDILP_STORE}/results"
run_benches
warm_gate traces "${jsons[@]}"
