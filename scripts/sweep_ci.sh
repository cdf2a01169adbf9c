#!/usr/bin/env bash
# Exercise the scenario-sweep driver end to end and validate its
# report.
#
# Cold pass: runs a small grid (2 x 2 x 2 over the cheapest workload)
# against the artifact store, then checks the BENCH_sweep.json
# shape — cell_count matches, cell indices are exactly 0..n-1 (no
# duplicates, no holes), every cell carries axes / digests /
# per-model figures, and the crossover summary covers every axis.
#
# Determinism pass: re-runs the same grid with the store off and
# requires the "cells" array to be byte-identical to the store-backed
# cold run's.
#
# Warm pass: re-runs the sweep against the store the cold pass
# populated and requires zero compiles, zero captures and zero
# replays: every cell must be served from its certified record.
#
# Usage: scripts/sweep_ci.sh. Assumes scripts/tier1.sh already built.
# PREDILP_STORE overrides the store location (default
# bench-out/sweep-store).
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p bench-out
export PREDILP_STORE="${PREDILP_STORE:-$PWD/bench-out/sweep-store}"
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

echo "== cold pass (store: ${PREDILP_STORE}) =="
../build/tools/predilp_sweep --spec sweep_grid.json --out BENCH_sweep.json

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
# missing cell is a rendering bug.
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

echo "== determinism pass (store off) =="
env -u PREDILP_STORE ../build/tools/predilp_sweep \
    --spec sweep_grid.json --out BENCH_sweep_nostore.json

python3 - BENCH_sweep.json BENCH_sweep_nostore.json <<'EOF'
import json
import sys

stored_path, nostore_path = sys.argv[1:3]
with open(stored_path) as f:
    stored = json.load(f)
with open(nostore_path) as f:
    nostore = json.load(f)
if stored["cells"] != nostore["cells"]:
    print("error: store-backed cells differ from the store-off run",
          file=sys.stderr)
    sys.exit(1)
print("ok: store-backed cells identical to the store-off run")
EOF

echo "== warm pass =="
../build/tools/predilp_sweep --spec sweep_grid.json \
    --out BENCH_sweep_warm.json

python3 - BENCH_sweep_warm.json BENCH_sweep.json <<'EOF'
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
for key in ("compiles", "captures", "replays"):
    if key not in counters:
        fail(f"{warm_path}: no timing.counters.{key}")
    elif counters[key] != 0:
        fail(f"{warm_path}: warm sweep did new work "
             f"({counters[key]} {key})")
if store.get("result_hit", 0) == 0:
    fail(f"{warm_path}: warm sweep served no certified record")

with open(cold_path) as f:
    cold = json.load(f)
if warm["cells"] != cold["cells"]:
    fail(f"{warm_path}: warm cells differ from cold run")

if not failed:
    print(f"ok: warm sweep did no new work "
          f"({store.get('result_hit', 0)} record hits, 0 compiles, "
          f"0 captures, 0 replays)")
sys.exit(1 if failed else 0)
EOF
