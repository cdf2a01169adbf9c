/**
 * @file
 * Certified result records: the provenance identity of one priced
 * bench/sweep cell and its sealed, schema-tagged JSON record
 * (DESIGN.md §6k). This file and certified.cc are the only code that
 * knows the record layout: certifiedRecord() writes it and
 * decodeCertifiedRecord() reads it back.
 *
 * The paper's headline claims are figure deltas, so the system of
 * record must make "did this number change, and why?" answerable
 * with evidence. Every cell the evaluator prices is published to the
 * store as a certified record: the cell's full provenance — source
 * hash, pass-pipeline digest, SimConfig digest, trace digest — plus
 * its deterministic figures, sealed with its own checksum
 * (store/store.hh sealRecord) and written through the staged
 * write→rename path; a record an OS crash tore fails its seal and is
 * replayed and republished. `predilp_diff` (driver/diff.hh) joins two
 * sets of these records by provenance identity and classifies every
 * figure delta as identical, explained by a named digest change, or
 * unexplained drift.
 *
 * The records are also the store's result tier: a warm evaluator
 * serves a cell straight from its record (decoded to the exact
 * SimResult that was published) without mapping or replaying its
 * trace.
 */

#ifndef PREDILP_DRIVER_CERTIFIED_HH
#define PREDILP_DRIVER_CERTIFIED_HH

#include <cstdint>
#include <optional>
#include <string>

#include "driver/pipeline.hh"
#include "sim/timing.hh"
#include "support/json.hh"

namespace predilp
{

/**
 * Schema tag carried by every certified record and hashed into its
 * store key. Bump it on any intended change to record shape or
 * figure semantics: old and new records then live under different
 * keys, so the change surfaces in predilp_diff as added/removed
 * cells instead of unexplained drift, and a warm store never serves
 * figures the current pricing code would not produce.
 */
inline constexpr const char *certSchemaTag = "predilp-cert-v2";

/**
 * sha256 over the certifiedFigures() dumps of a fixed set of cells
 * whose figures depend only on the emulator and CycleModel
 * (Certified.FiguresPinnedToSchemaTag). A record's key names the
 * source, pass list, config and trace but no pricing code, so a
 * change that moves these figures must bump certSchemaTag and
 * re-pin this digest.
 */
inline constexpr const char *certFiguresPin =
    "04c0dd81643dfd14c54ba664930818ea0240689e9916e316b0b3f4062eae9d48";

/**
 * Everything that identifies one priced cell and everything that can
 * explain its figures changing. The identity members (workload,
 * model, scale, ablation, fuel, machine) say *which* cell; the
 * digest members say *why* its figures are what they are — a figure
 * change with all four digests equal is unexplained drift.
 */
struct CellProvenance
{
    std::string workload;       ///< workload name ("cmp").
    std::string model;          ///< modelKey() string.
    int scale = 1;              ///< input scale factor.
    std::string ablation;       ///< canonical AblationFlags::key().
    std::uint64_t fuel = 0;     ///< capture fuel (maxDynInstrs).
    std::string machine;        ///< machineIdentity() of the config.
    std::string sourceSha256;   ///< sha256 of the ILC source bytes.
    std::string pipelineDigest; ///< passPipelineDigest().
    std::string configDigest;   ///< SimConfig::configDigest().
    std::string traceDigest;    ///< ArtifactStore content key.

    /** Canonical JSON object (fixed member order). */
    JsonValue toJson() const;

    /** Join key for cross-run matching: the identity members only,
     * so two runs of the same cell compare even when digests moved. */
    std::string identityKey() const;

    bool operator==(const CellProvenance &) const = default;
};

/**
 * Stable comma-joined rendering of the machine axes that key traces
 * and identify cells (the evaluator's cache keys use the same
 * string).
 */
std::string machineIdentity(const MachineConfig &machine);

/**
 * Digest of the exact pass list @p model compiles with under
 * @p ablation (canonicalized): "v1:" + truncated sha256 over
 * compilerEpoch and the ordered pass names. Changes whenever a pass
 * is added, removed, or reordered, or the epoch is bumped for a pass
 * whose output moved — the "compiler changed" leg of drift
 * explanation.
 */
std::string passPipelineDigest(Model model,
                               const AblationFlags &ablation);

/** Store key of @p prov's certified record: sha256 over the schema
 * tag and the canonical provenance dump. */
std::string certifiedResultKey(const CellProvenance &prov);

/**
 * The deterministic figures of one priced cell: the replay's
 * headline counters plus every counter in its stats snapshot.
 * Timers are excluded — figures must be byte-identical across
 * identical runs or the drift gate could never hold.
 */
JsonValue certifiedFigures(const SimResult &sim);

/** The full (unsealed) certified record for one priced cell:
 * { schema, provenance, figures, run }, where run holds the
 * program's exit_value and output. Seal and publish via
 * ArtifactStore::saveResult. */
JsonValue certifiedRecord(const CellProvenance &prov,
                          const SimResult &sim);

/** A certified record read back: the cell it names and its result. */
struct CertifiedCell
{
    CellProvenance provenance;
    /** Equal field for field to the SimResult that was published. */
    SimResult result;
};

/**
 * Decode a certified record whose seal the caller has checked
 * (readSealedJson). nullopt unless the schema tag is certSchemaTag,
 * every provenance member is present with its type, every headline
 * figure is present, every figure is a non-negative integer, and the
 * run member holds an integer exit_value and a string output.
 */
std::optional<CertifiedCell>
decodeCertifiedRecord(const JsonValue &record);

} // namespace predilp

#endif // PREDILP_DRIVER_CERTIFIED_HH
