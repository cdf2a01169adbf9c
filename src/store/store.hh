/**
 * @file
 * Persistent, content-addressed artifact store for captured traces.
 *
 * The keyed caches in SuiteEvaluator die with the process, so every
 * bench/CI/fuzz run repays the full emulation cost. This store makes
 * the packed trace the durable unit (the paper's own methodology:
 * emulate once, price many): a cell's TraceBuffer — interned
 * StaticOps, register pool, packed entry chunks, varint address side
 * stream, and the functional RunResult — is serialized once under a
 * SHA-256 content key and reloaded by later processes via mmap, so
 * ChunkCursor replays entry spans straight out of the page cache
 * with zero deserialization copies.
 *
 * Keys: sha256(source bytes ‖ cell key ‖ format version ‖ compiler
 * epoch). The cell key is the evaluator's canonical trace key and
 * carries the model, canonicalized AblationFlags, scale, machine,
 * and fuel — machine and fuel are included beyond the obvious axes
 * because scheduling latencies and the capture budget both change
 * the dynamic stream. The compiler epoch (opt/pass.hh) names the
 * passes that compiled the traced program, so a compiler change
 * misses instead of serving the old compiler's traces.
 *
 * Robustness: writers stage to a temp file, fsync it and publish
 * with an atomic rename under an advisory flock; readers validate
 * magic, version, declared length, and an XXH64 payload checksum
 * (store/xxh64.hh) before trusting a single byte, and bound every
 * section against the file size. Any mismatch quarantines the file
 * and reports a miss, so the caller transparently recomputes and
 * re-saves — corrupt artifacts are repaired, never trusted. A store
 * is always read-write: every open handle may publish, touch and
 * quarantine.
 *
 * Format v3 writes an artifact as a gather list: the serialized
 * metadata head, then the entry and varint streams straight from the
 * trace's chunks. The checksum covers the same spans in file order,
 * so a save copies no trace bytes and hashes them four 64-bit lanes
 * at a time.
 *
 * One file per trace: the provenance JSON the evaluator records for
 * a capture (workload, cell key, digests) is a length-prefixed
 * section of the artifact itself, inside the checksummed payload. A
 * single publish makes trace and provenance durable together, and a
 * single validation covers both — torn provenance is a corrupt
 * artifact, quarantined and recomputed like any other.
 *
 * The store also keeps certified result records (saveResult /
 * loadResult): sealed JSON under `results/`, one per priced cell.
 * They are the second tier under the evaluator's result cache, as
 * artifacts are the tier each of its trace groups maps before it
 * compiles, and `predilp_diff` joins them across runs to classify
 * figure drift.
 *
 * Counters (store.hit / store.miss / store.repair /
 * store.bytes_mapped / store.write) count the trace tier and export
 * as a StatsSnapshot through the same observability seam as
 * everything else; the evaluator counts the result tier.
 */

#ifndef PREDILP_STORE_STORE_HH
#define PREDILP_STORE_STORE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "support/json.hh"
#include "support/stats_registry.hh"
#include "trace/trace.hh"

namespace predilp
{

/** Whether an evaluator uses the on-disk store. */
enum class StoreMode
{
    Off,       ///< no persistent caching.
    ReadWrite, ///< load hits, save misses, quarantine corruption.
};

/**
 * Section map of one on-disk artifact, produced by inspectArtifact
 * after full validation. Lets tests and tooling target a specific
 * region (header, provenance, entry stream, varint stream, checksum)
 * without duplicating layout knowledge.
 */
struct ArtifactInfo
{
    std::uint32_t version = 0;
    std::uint64_t records = 0;
    std::size_t fileBytes = 0;
    /** Byte offset of the checksum field inside the header. */
    std::size_t checksumOffset = 0;
    /** Embedded provenance JSON (zero bytes when saved without). */
    std::size_t provenanceOffset = 0;
    std::size_t provenanceBytes = 0;
    /** Packed TraceEntry stream. */
    std::size_t entriesOffset = 0;
    std::size_t entriesBytes = 0;
    /** Zigzag-varint memory side stream. */
    std::size_t memOffset = 0;
    std::size_t memBytes = 0;
};

/** Persistent content-addressed trace store; see file comment. */
class ArtifactStore
{
  public:
    /**
     * Serialized trace format version. Part of every content key and
     * of the file header; bump on any layout or packing change, and
     * bump the CI cache key in .github/workflows/ci.yml with it.
     */
    static constexpr std::uint32_t formatVersion = 3;

    /**
     * Open (creating directories as needed) a store rooted at
     * @p dir. @p mode must be ReadWrite, the only mode a store has;
     * the parameter and mode() stay for the benchmark harness under
     * perfbench/, which is kept fixed so its runs stay comparable.
     */
    ArtifactStore(std::string dir, StoreMode mode);

    StoreMode mode() const { return StoreMode::ReadWrite; }
    const std::string &dir() const { return dir_; }

    /**
     * Content key for one trace cell: sha256 over the ILC source
     * bytes, the evaluator's canonical cell key (model, ablation,
     * scale, machine, fuel), formatVersion and compilerEpoch.
     */
    static std::string keyFor(const std::string &sourceBytes,
                              const std::string &cellKey);

    /**
     * Load the artifact for @p key, or nullptr on miss. A present
     * but invalid file counts a repair, is quarantined, and reports
     * as a miss so the caller recomputes. On a hit the returned
     * buffer replays out of the file mapping, and the file's mtime
     * is touched for the GC's LRU sweep.
     */
    std::shared_ptr<const TraceBuffer> load(const std::string &key);

    /**
     * Serialize @p buffer under @p key: stage to a temp file (POSIX
     * write + fsync), then atomically rename into place under the
     * store's advisory flock. Never throws — a filesystem refusal
     * degrades to a cold cache (returning false), not a failure.
     *
     * @p provenanceJson is written verbatim as the artifact's
     * provenance section, covered by the payload checksum.
     */
    bool save(const std::string &key, const TraceBuffer &buffer,
              const std::string &provenanceJson = "");

    /**
     * The provenance section of @p key's artifact, or "" when the
     * artifact is absent, fails validation, or was saved without
     * provenance — invalid provenance is never served.
     */
    std::string loadProvenance(const std::string &key) const;

    /**
     * Publish @p record as a sealed certified-result record at
     * resultPath(key) via the staged write→fsync→rename path.
     * Records are overwritten idempotently — an evaluation that
     * refuses a torn or stale record replays the cell and
     * republishes it, which self-heals the record.
     */
    bool saveResult(const std::string &key, const JsonValue &record);

    /**
     * The sealed certified record at resultPath(key), or nullopt
     * when absent or failing seal validation. An armed
     * store.load.result fault point refuses a present record as if
     * it were torn. @p present, when given, reports whether a record
     * file was there, so a caller can tell a cold miss from a
     * refused record.
     */
    std::optional<JsonValue> loadResult(const std::string &key,
                                        bool *present = nullptr) const;

    /** Final on-disk path of @p key's artifact (for tests/GC). */
    std::string objectPath(const std::string &key) const;

    /** On-disk path of @p key's certified result record. */
    std::string resultPath(const std::string &key) const;

    /** store.* counters as a snapshot (the StatsRegistry seam). */
    StatsSnapshot stats() const;

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::uint64_t repairs() const { return repairs_.load(); }
    std::uint64_t writes() const { return writes_.load(); }
    std::uint64_t bytesMapped() const { return bytesMapped_.load(); }

  private:
    void quarantine(const std::string &path) const;

    std::string dir_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> repairs_{0};
    std::atomic<std::uint64_t> writes_{0};
    std::atomic<std::uint64_t> bytesMapped_{0};
};

/**
 * Validate the artifact at @p path (magic, version, length,
 * checksum, section bounds) and return its section map; nullopt when
 * the file is missing or fails any check.
 */
std::optional<ArtifactInfo>
inspectArtifact(const std::string &path);

/**
 * Seal a JSON object: return a copy with a `checksum` member equal
 * to "sha256:" + the hex digest of the record's canonical dump with
 * any existing `checksum` member removed. Sealed records are
 * self-validating — a reader needs no side channel to detect a torn
 * or tampered record.
 */
JsonValue sealRecord(const JsonValue &record);

/** True iff @p record is an object whose `checksum` member verifies
 * against the rest of the record (the sealRecord invariant). */
bool sealedRecordValid(const JsonValue &record);

/**
 * Read and parse @p path, returning the document only when it is a
 * valid sealed record; nullopt on missing file, parse error, or seal
 * mismatch. The one gate every sealed-record consumer goes through.
 * @p present, when given, reports whether the file could be opened.
 */
std::optional<JsonValue> readSealedJson(const std::string &path,
                                        bool *present = nullptr);

} // namespace predilp

#endif // PREDILP_STORE_STORE_HH
