#!/usr/bin/env bash
# Size-capped LRU sweep of a persistent artifact store
# (src/store/store.hh). Artifact mtimes are bumped on every load hit,
# so oldest-mtime-first eviction is least-recently-used. Also purges
# the quarantine directory (corrupt artifacts already replaced by
# recompute) and stale temp files from writers that died mid-publish.
#
# Usage: scripts/store_gc.sh [store-dir]
#   store-dir defaults to $PREDILP_STORE, then bench-out/store.
#   PREDILP_STORE_MAX_BYTES caps the objects/ payload (default 256
#   MiB).
set -euo pipefail
cd "$(dirname "$0")/.."

STORE_DIR="${1:-${PREDILP_STORE:-bench-out/store}}"
MAX_BYTES="${PREDILP_STORE_MAX_BYTES:-268435456}"

if [ ! -d "${STORE_DIR}" ]; then
    echo "store-gc: ${STORE_DIR} does not exist; nothing to do"
    exit 0
fi

# Hold the store's advisory lock (the same ${STORE_DIR}/.lock that
# StoreLock in src/store/store.cc flocks around publish, quarantine,
# and repair) for the whole sweep, so GC never deletes an artifact a
# live writer is mid-publishing or mid-repairing.
exec 9>"${STORE_DIR}/.lock"
if ! flock -w 300 9; then
    echo "store-gc: could not acquire ${STORE_DIR}/.lock in 300s" >&2
    exit 1
fi

# Quarantined artifacts have already been repaired by recompute;
# keeping them only burns cache space.
if [ -d "${STORE_DIR}/quarantine" ]; then
    quarantined=$(find "${STORE_DIR}/quarantine" -type f | wc -l)
    rm -rf "${STORE_DIR}/quarantine"
    echo "store-gc: purged ${quarantined} quarantined artifact(s)"
fi

# Temp files older than an hour belong to writers that died between
# staging and rename; live writers publish within seconds.
stale=$(find "${STORE_DIR}" -name '*.tmp.*' -mmin +60 -type f | wc -l)
if [ "${stale}" -gt 0 ]; then
    find "${STORE_DIR}" -name '*.tmp.*' -mmin +60 -type f -delete
    echo "store-gc: removed ${stale} stale temp file(s)"
fi

objects="${STORE_DIR}/objects"
if [ ! -d "${objects}" ]; then
    echo "store-gc: no objects directory; done"
    exit 0
fi

total=$(find "${objects}" -name '*.trc' -type f -printf '%s\n' |
    awk '{s+=$1} END {print s+0}')
echo "store-gc: ${total} bytes in store (cap ${MAX_BYTES})"
if [ "${total}" -le "${MAX_BYTES}" ]; then
    exit 0
fi

# Evict oldest-mtime first until the store fits under the cap.
evicted=0
while IFS= read -r line; do
    size="${line%% *}"
    rest="${line#* }"
    path="${rest#* }"
    if [ "${total}" -le "${MAX_BYTES}" ]; then
        break
    fi
    rm -f "${path}"
    total=$((total - size))
    evicted=$((evicted + 1))
done < <(find "${objects}" -name '*.trc' -type f \
    -printf '%s %T@ %p\n' | sort -k2,2n)

find "${objects}" -mindepth 1 -type d -empty -delete
echo "store-gc: evicted ${evicted} artifact(s), ${total} bytes remain"
