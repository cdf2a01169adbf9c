#!/usr/bin/env bash
# Fault-injection kill matrix for the sweep/store pipeline
# (src/support/faultpoint.hh, DESIGN.md §6j).
#
# Baseline pass: runs a small grid fault-free against a fresh store
# and records its "cells" array as ground truth.
#
# Matrix pass: arms every registered fault point (discovered via
# predilp_sweep --list-fault-points, so a new point can never dodge
# CI) one at a time as `<point>=once` through PREDILP_FAULTS. Each run
# must exit 0, report timing.fault.<point>.fired >= 1 (the point
# really bit) and render cells byte-identical to the baseline — every
# injected throw must be healed, by the evaluator's one-cell retry of
# a failed trace group or by the store's quarantine-and-recompute,
# never absorbed into the results.
#
# Kill pass: SIGKILL inside the store's publish window (`crash` at
# store.publish.rename, the temp artifact staged) must kill the run
# with exit 137, and a disarmed rerun must converge to the baseline
# cells. Then `short-write` truncates an artifact and a certified
# record at publish; loads must reject and recompute them.
#
# Load-side points (store.load.*) run against the warm store and must
# show their repair in the report: store.repair for the artifact
# points, which run with the certified records removed so every trace
# is mapped and validated, and store.result_repair for the record
# read.
#
# Serve-no-corruption pass: after the whole matrix has battered the
# store, one disarmed healing run republishes anything a torn publish
# left behind, then a warm run must do zero compiles and zero
# captures and still render the baseline bytes — once served from
# the certified records, once with them removed so every artifact is
# mapped and validated — proving no corrupt artifact or record was
# ever served as truth.
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

# extract_cells REPORT CELLS_OUT [POINT]: dump the canonical cells
# array; with POINT, fail unless timing.fault.POINT.fired >= 1.
extract_cells() {
    python3 - "$@" <<'PYEOF'
import json
import sys

report_path, cells_path = sys.argv[1:3]
point = sys.argv[3] if len(sys.argv) > 3 else ""
with open(report_path) as f:
    report = json.load(f)
if point:
    node = report["timing"].get("fault", {})
    for part in point.split(".") + ["fired"]:
        node = node.get(part, {}) if isinstance(node, dict) else {}
    fired = node if isinstance(node, int) else 0
    if fired < 1:
        sys.exit(f"error: {report_path}: timing.fault.{point}.fired "
                 f"= {fired}; the armed point never fired")
    print(f"ok: timing.fault.{point}.fired = {fired}")
with open(cells_path, "w") as f:
    json.dump(report["cells"], f, sort_keys=True)
PYEOF
}

# run_case NAME SPEC: run the grid with SPEC armed and require the
# armed point to fire and the cells to match the baseline bytes.
run_case() {
    local name="$1" spec="$2"
    echo "== fault case: ${name} (${spec:-disarmed}) =="
    PREDILP_FAULTS="${spec}" "${SWEEP}" --spec "${OUT}/grid.json" \
        --out "${OUT}/report.json"
    extract_cells "${OUT}/report.json" "${OUT}/cells.json" \
        "${spec%%=*}"
    if ! cmp -s "${OUT}/cells.json" "${OUT}/baseline_cells.json"; then
        echo "error: ${name}: cells differ from fault-free baseline" >&2
        diff "${OUT}/baseline_cells.json" "${OUT}/cells.json" >&2 || true
        exit 1
    fi
    echo "ok: ${name} converged to baseline cells"
}

# expect_repair REPORT LEAF: the report's timing.store.LEAF is >= 1,
# so the armed load-side point really bit.
expect_repair() {
    python3 - "$@" <<'PYEOF'
import json
import sys

report_path, leaf = sys.argv[1:3]
with open(report_path) as f:
    store = json.load(f)["timing"]["store"]
if leaf not in store:
    sys.exit(f"error: {report_path}: no timing.store.{leaf}")
if store[leaf] < 1:
    sys.exit(f"error: {report_path}: timing.store.{leaf} = "
             f"{store[leaf]}; the armed load point never bit")
print(f"ok: timing.store.{leaf} = {store[leaf]}")
PYEOF
}

# expect_no_new_work REPORT: the warm run compiled and captured nothing.
expect_no_new_work() {
    python3 - "$@" <<'PYEOF'
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
}

echo "== baseline pass (store: ${PREDILP_STORE}) =="
"${SWEEP}" --spec "${OUT}/grid.json" --out "${OUT}/baseline.json"
extract_cells "${OUT}/baseline.json" "${OUT}/baseline_cells.json"

# Every registered point, armed one at a time. The load-side points
# need the warm store (they fire on real loads): the artifact points
# with the certified records removed, since a served cell maps no
# trace; the record point with them in place. Everything else gets a
# cold store so compile/capture/publish actually run and the armed
# point genuinely bites.
points=$("${SWEEP}" --list-fault-points)
if [ -z "${points}" ]; then
    echo "error: --list-fault-points returned nothing" >&2
    exit 1
fi
echo "== matrix pass ($(echo "${points}" | wc -l) registered points) =="
while IFS= read -r point; do
    case "${point}" in
        store.load.result) ;;
        store.load.*) rm -rf "${PREDILP_STORE}/results" ;;
        *) rm -rf "${PREDILP_STORE}" ;;
    esac
    run_case "throw ${point}" "${point}=once"
    case "${point}" in
        store.load.result)
            expect_repair "${OUT}/report.json" result_repair ;;
        store.load.*) expect_repair "${OUT}/report.json" repair ;;
    esac
done <<< "${points}"

echo "== kill pass =="
# SIGKILL inside the artifact store's publish window: the temp file
# is staged but the canonical path untouched. Cold store so the
# publish actually happens. The run must die by SIGKILL...
rm -rf "${PREDILP_STORE}"
echo "== fault case: store publish killed mid-rename =="
status=0
PREDILP_FAULTS=store.publish.rename=once:crash "${SWEEP}" \
    --spec "${OUT}/grid.json" --out "${OUT}/report.json" || status=$?
if [ "${status}" -ne 137 ]; then
    echo "error: crash case exited ${status}; expected 137 (SIGKILL)" >&2
    exit 1
fi
echo "ok: the run died by SIGKILL"
# ...a disarmed rerun over the store it left must converge, and the
# store must hold no torn artifact.
run_case "rerun after the kill" ""
build/tools/predilp_diff --verify "${PREDILP_STORE}"
# Artifact payload truncated at half length before publish (cold
# store), tearing the trace and its embedded provenance together;
# load validation must quarantine and recompute the torn artifact,
# never serve it.
rm -rf "${PREDILP_STORE}"
run_case "truncated artifact publish" \
    "store.publish.write=once:short-write"
# Certified result record torn at half length (cold store): the
# record fails its seal on read and the next evaluation republishes
# it; figures never change.
rm -rf "${PREDILP_STORE}"
run_case "torn certified result publish" \
    "store.publish.result=once:short-write"

echo "== serve-no-corruption pass =="
# A torn publish may still be sitting in the store; one disarmed run
# is allowed to quarantine and recompute it...
run_case "healing run" ""
# ...after which the warm run must find only good records and
# artifacts: zero compiles, zero captures, baseline bytes. Once served
# from the certified records...
run_case "warm run" ""
expect_no_new_work "${OUT}/report.json"
# ...and once with the records removed, so every artifact is mapped
# and validated (the run republishes the records).
rm -rf "${PREDILP_STORE}/results"
run_case "warm run (traces only)" ""
expect_no_new_work "${OUT}/report.json"

# ...and the whole store must pass the provenance contract: every
# artifact validates and carries a non-empty provenance section,
# every certified record passes its seal. Anything the fault matrix tore
# must have been healed, not left behind.
build/tools/predilp_diff --verify "${PREDILP_STORE}"

echo "fault-ci: all cases fired and converged byte-identically"
