#!/usr/bin/env bash
# Fault-injection kill matrix for the self-healing sweep/store
# pipeline (src/support/faultpoint.hh, DESIGN.md §6j).
#
# Baseline pass: runs a small grid (2 workers, fresh shared store)
# fault-free and records the merged "cells" array as ground truth.
#
# Matrix pass: arms every registered fault point (discovered via
# predilp_sweep --list-fault-points, so a new point can never dodge
# CI) one at a time as `<point>=once` through PREDILP_FAULTS and
# requires each run to exit 0 with zero degraded cells and a cells
# array byte-identical to the baseline — every injected throw must be
# healed by a retry or a degradation-ladder rung, never absorbed into
# the results.
#
# Kill pass: repeats the worker-lifecycle and store-publish points
# with action `crash` (SIGKILL at the point, including mid-publish
# with the temp artifact staged), `short-write` (torn worker result
# file / truncated artifact), and a `delay` hang reaped by the
# supervisor watchdog.
#
# Serve-no-corruption pass: after the whole matrix has battered the
# shared store, one disarmed healing run republishes anything a torn
# publish left behind, then a warm run must do zero compiles and zero
# captures and still merge to the baseline bytes — proving no corrupt
# artifact was ever served as truth.
#
# Usage: scripts/fault_ci.sh. Assumes scripts/tier1.sh already built.
set -euo pipefail
cd "$(dirname "$0")/.."

SWEEP=build/tools/predilp_sweep
OUT=bench-out/fault-ci
rm -rf "${OUT}"
mkdir -p "${OUT}"
export PREDILP_STORE="${PWD}/${OUT}/store"
export PREDILP_STORE_MODE=rw

cat > "${OUT}/grid.json" <<'EOF'
{
  "workloads": ["cmp"],
  "axes": {"issue_width": [4, 8]}
}
EOF

# extract_cells REPORT CELLS_OUT [MIN_RETRIES]: dump the canonical
# cells array and fail on any degraded cell (or too few retries).
extract_cells() {
    python3 - "$@" <<'PYEOF'
import json
import sys

report_path, cells_path = sys.argv[1:3]
min_retries = int(sys.argv[3]) if len(sys.argv) > 3 else 0
with open(report_path) as f:
    report = json.load(f)
if report.get("degraded_cells", 0) != 0:
    sys.exit(f"error: {report_path}: {report['degraded_cells']} "
             f"degraded cell(s); expected full convergence")
retries = report.get("worker_retries", 0)
if retries < min_retries:
    sys.exit(f"error: {report_path}: {retries} worker retries; "
             f"expected >= {min_retries} (fault never bit?)")
with open(cells_path, "w") as f:
    json.dump(report["cells"], f, sort_keys=True)
PYEOF
}

# run_case NAME SPEC MIN_RETRIES [extra sweep args...]: run the grid
# with SPEC armed and require byte-identical convergence.
run_case() {
    local name="$1" spec="$2" min_retries="$3"
    shift 3
    echo "== fault case: ${name} (${spec:-disarmed}) =="
    PREDILP_FAULTS="${spec}" "${SWEEP}" --spec "${OUT}/grid.json" \
        --workers 2 --out "${OUT}/report.json" "$@"
    extract_cells "${OUT}/report.json" "${OUT}/cells.json" \
        "${min_retries}"
    if ! cmp -s "${OUT}/cells.json" "${OUT}/baseline_cells.json"; then
        echo "error: ${name}: cells differ from fault-free baseline" >&2
        diff "${OUT}/baseline_cells.json" "${OUT}/cells.json" >&2 || true
        exit 1
    fi
    echo "ok: ${name} converged to baseline cells"
}

echo "== baseline pass (store: ${PREDILP_STORE}) =="
"${SWEEP}" --spec "${OUT}/grid.json" --workers 2 \
    --out "${OUT}/baseline.json"
extract_cells "${OUT}/baseline.json" "${OUT}/baseline_cells.json"

# Every registered point, armed one at a time. The load-side points
# need the warm store (they fire on real artifact loads); everything
# else gets a cold store so compile/capture/publish actually run and
# the armed point genuinely bites.
points=$("${SWEEP}" --list-fault-points)
if [ -z "${points}" ]; then
    echo "error: --list-fault-points returned nothing" >&2
    exit 1
fi
echo "== matrix pass ($(echo "${points}" | wc -l) registered points) =="
while IFS= read -r point; do
    case "${point}" in
        store.load.*) ;;
        *) rm -rf "${PREDILP_STORE}" ;;
    esac
    run_case "throw ${point}" "${point}=once" 0
done <<< "${points}"

echo "== kill pass =="
# SIGKILL a worker the instant before it writes its result file.
run_case "worker killed mid-publish" \
    "sweep.worker.publish=once:crash" 1
# SIGKILL inside the artifact store's publish window: the temp file
# is staged but the canonical path untouched. Cold store so the
# publish actually happens.
rm -rf "${PREDILP_STORE}"
run_case "store publish killed mid-rename" \
    "store.publish.rename=once:crash" 1
# SIGKILL at worker startup (before any work).
run_case "worker killed at startup" "sweep.worker.start=once:crash" 1
# Worker exits 0 but its result file is torn at half length.
run_case "torn worker result file" \
    "sweep.worker.publish=once:short-write" 1
# Artifact payload truncated at half length before publish (cold
# store), tearing the trace and its embedded provenance together;
# load validation must quarantine and recompute the torn artifact,
# never serve it.
rm -rf "${PREDILP_STORE}"
run_case "truncated artifact publish" \
    "store.publish.write=once:short-write" 0
# Certified result record torn at half length (cold store): the
# record fails its seal on read and the next evaluation republishes
# it; figures never change.
rm -rf "${PREDILP_STORE}"
run_case "torn certified result publish" \
    "store.publish.result=once:short-write" 0
# Worker hangs 60s at startup; the supervisor watchdog must SIGKILL
# and retry it (the retry's hit count skips the nth:1 trigger).
run_case "hung worker reaped by watchdog" \
    "sweep.worker.start=nth:1:delay:60000" 1 --watchdog-sec 5

echo "== serve-no-corruption pass =="
# A torn publish may still be sitting in the store; one disarmed run
# is allowed to quarantine and recompute it...
run_case "healing run" "" 0
# ...after which the warm run must find only good artifacts: zero
# compiles, zero captures, baseline bytes.
run_case "warm run" "" 0
python3 - "${OUT}/report.json" <<'PYEOF'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    counters = json.load(f)["timing"]["counters"]
for key in ("compiles", "captures"):
    # A missing counter fails: read as 0 it would pass silently.
    if key not in counters:
        sys.exit(f"error: warm run report has no timing.counters.{key}")
    if counters[key] != 0:
        sys.exit(f"error: warm run after fault matrix did new work "
                 f"({counters[key]} {key}) — a corrupt artifact "
                 f"survived in the store")
print("ok: warm store serves only validated artifacts "
      "(0 compiles, 0 captures)")
PYEOF

# ...and the whole store must pass the provenance contract: every
# artifact validates and carries a non-empty provenance section,
# every certified record passes its seal. Anything the fault matrix tore
# must have been healed, not left behind.
build/tools/predilp_diff --verify "${PREDILP_STORE}"

echo "fault-ci: all cases converged byte-identically"
