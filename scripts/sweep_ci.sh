#!/usr/bin/env bash
# Exercise the sharded scenario-sweep driver end to end and validate
# its consolidated report.
#
# Cold pass: runs a small grid (2 x 2 x 2 over the cheapest workload)
# with 2 forked workers sharing the artifact store, then checks the
# BENCH_sweep.json shape — cell_count matches, cell indices are
# exactly 0..n-1 (no duplicates, no holes), every cell carries axes /
# digests / per-model figures, and the crossover summary covers every
# axis.
#
# Determinism pass: re-expands the same grid sequentially (1 worker,
# fresh store) and requires the "cells" array to be byte-identical to
# the sharded run's — the sweep's merge contract.
#
# Warm pass: re-runs the sharded sweep against the store the cold
# pass populated and requires zero compiles and zero captures: every
# trace must come off disk.
#
# Usage: scripts/sweep_ci.sh. Assumes scripts/tier1.sh already built.
# PREDILP_STORE overrides the store location (default
# bench-out/sweep-store).
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p bench-out
export PREDILP_STORE="${PREDILP_STORE:-$PWD/bench-out/sweep-store}"
export PREDILP_STORE_MODE="${PREDILP_STORE_MODE:-rw}"
cd bench-out

cat > sweep_grid.json <<'EOF'
{
  "workloads": ["cmp"],
  "axes": {
    "issue_width": [4, 8],
    "btb_entries": [256, 1024],
    "perfect_caches": [true, false]
  }
}
EOF

echo "== cold sharded pass (store: ${PREDILP_STORE}) =="
../build/tools/predilp_sweep --spec sweep_grid.json --workers 2 \
    --out BENCH_sweep.json

python3 - BENCH_sweep.json <<'EOF'
import json
import sys

failed = False


def fail(msg):
    global failed
    failed = True
    print(f"error: {msg}", file=sys.stderr)


path = sys.argv[1]
with open(path) as f:
    report = json.load(f)

if report.get("bench") != "sweep":
    fail(f"{path}: bench key is {report.get('bench')!r}, not 'sweep'")

cells = report.get("cells", [])
cell_count = report.get("cell_count")
if cell_count != len(cells):
    fail(f"{path}: cell_count {cell_count} != len(cells) {len(cells)}")
if cell_count != 8:
    fail(f"{path}: expected the 2x2x2 grid's 8 cells, got {cell_count}")

# Completeness: indices must be exactly 0..n-1 — a duplicate or a
# missing cell is a sharding/merge bug.
indices = [cell.get("index") for cell in cells]
if sorted(indices) != list(range(len(cells))):
    dupes = sorted({i for i in indices if indices.count(i) > 1})
    missing = sorted(set(range(len(cells))) - set(indices))
    fail(f"{path}: bad cell indices (duplicates {dupes}, "
         f"missing {missing})")
if indices != sorted(indices):
    fail(f"{path}: cells not in grid order: {indices}")

for cell in cells:
    index = cell.get("index")
    for key in ("axes", "request_digest", "config_digest",
                "benchmarks"):
        if key not in cell:
            fail(f"{path}: cell {index} missing '{key}'")
    for digest_key in ("request_digest", "config_digest"):
        if not str(cell.get(digest_key, "")).startswith("v1:"):
            fail(f"{path}: cell {index} has unversioned "
                 f"{digest_key}")
    for bench in cell.get("benchmarks", []):
        models = bench.get("models", {})
        for model in ("superblock", "cond_move", "full_pred"):
            if model not in models:
                fail(f"{path}: cell {index} benchmark "
                     f"{bench.get('name')!r} missing model "
                     f"{model!r}")
            elif "speedup" not in models[model]:
                fail(f"{path}: cell {index} model {model!r} "
                     f"missing speedup")

crossover = report.get("crossover", [])
spec_axes = {"issue_width", "btb_entries", "perfect_caches"}
summarized = {entry.get("axis") for entry in crossover}
if summarized != spec_axes:
    fail(f"{path}: crossover summarizes {sorted(summarized)}, "
         f"expected {sorted(spec_axes)}")
for entry in crossover:
    if not entry.get("points"):
        fail(f"{path}: crossover axis {entry.get('axis')!r} has no "
             f"points")

if not failed:
    print(f"ok: {path} shape valid ({cell_count} cells, "
          f"{len(crossover)} crossover axes)")
sys.exit(1 if failed else 0)
EOF

echo "== determinism pass (sequential, fresh store) =="
cp BENCH_sweep.json BENCH_sweep_sharded.json
PREDILP_STORE="${PREDILP_STORE}-seq" \
    ../build/tools/predilp_sweep --spec sweep_grid.json --workers 1 \
    --out BENCH_sweep_seq.json
rm -rf "${PREDILP_STORE}-seq"

python3 - BENCH_sweep_sharded.json BENCH_sweep_seq.json <<'EOF'
import json
import sys

sharded_path, seq_path = sys.argv[1:3]
with open(sharded_path) as f:
    sharded = json.load(f)
with open(seq_path) as f:
    seq = json.load(f)
if sharded["cells"] != seq["cells"]:
    print("error: sharded cells differ from the sequential run",
          file=sys.stderr)
    sys.exit(1)
print("ok: 2-worker cells identical to sequential run")
EOF

echo "== warm sharded pass =="
../build/tools/predilp_sweep --spec sweep_grid.json --workers 2 \
    --out BENCH_sweep_warm.json

python3 - BENCH_sweep_warm.json BENCH_sweep_sharded.json <<'EOF'
import json
import sys

failed = False


def fail(msg):
    global failed
    failed = True
    print(f"error: {msg}", file=sys.stderr)


warm_path, cold_path = sys.argv[1:3]
with open(warm_path) as f:
    warm = json.load(f)
timing = warm.get("timing", {})
counters = timing.get("counters", {})
store = timing.get("store", {})
# A missing counter fails: read as 0 it would pass the gate silently.
for key in ("compiles", "captures"):
    if key not in counters:
        fail(f"{warm_path}: no timing.counters.{key}")
    elif counters[key] != 0:
        fail(f"{warm_path}: warm sweep did new work "
             f"({counters[key]} {key})")
if store.get("hit", 0) == 0:
    fail(f"{warm_path}: warm sweep never hit the store")

with open(cold_path) as f:
    cold = json.load(f)
if warm["cells"] != cold["cells"]:
    fail(f"{warm_path}: warm cells differ from cold run")

if not failed:
    print(f"ok: warm sweep did no new work "
          f"({store.get('hit', 0)} store hits, 0 compiles, "
          f"0 captures)")
sys.exit(1 if failed else 0)
EOF
