/**
 * @file
 * The complete, serializable simulation configuration. SimConfig is
 * the unit of identity for simulation results: two runs with equal
 * configs (and the same program/input) are bit-identical, and
 * configDigest() turns that identity into a short stable string used
 * in evaluator cache keys, store provenance, and sweep cell labels.
 *
 * The JSON form (toJson/fromJson) is canonical — fixed member order,
 * every field emitted explicitly — so the digest is a pure function
 * of the field *values*, independent of which defaults the producing
 * build happened to have. fromJson rejects unknown keys at both the
 * top level and inside "machine", so a typo in a sweep grid spec
 * fails loudly instead of silently sweeping a default.
 */

#ifndef PREDILP_SIM_CONFIG_HH
#define PREDILP_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "sched/machine.hh"
#include "sim/cache.hh"
#include "support/json.hh"

namespace predilp
{

/** Complete simulation configuration. */
struct SimConfig
{
    MachineConfig machine;

    /** Perfect caches (Figures 8-10) or real caches (Fig. 11). */
    bool perfectCaches = true;

    std::int64_t cacheSizeBytes = 64 * 1024;
    std::int64_t cacheLineBytes = 64;
    int cacheAssociativity = 1;
    int cacheMissPenalty = 12;

    std::size_t btbEntries = 1024;
    int btbAssociativity = 1;
    BranchPredictor predictor = BranchPredictor::TwoBit;

    /** Fuel limit forwarded to the emulator. */
    std::uint64_t maxDynInstrs = 2'000'000'000ull;

    /**
     * The paper's §4.1 machine: 8-issue, 1 branch per cycle, 64K
     * direct-mapped caches, 1K-entry tagless 2-bit BTB, perfect
     * caches by default (Figures 8-10). Identical to a
     * default-constructed SimConfig; exists so call sites can say
     * which machine they mean.
     */
    static SimConfig paperMachine();

    /** Canonical JSON object; see file comment. */
    JsonValue toJson() const;

    /**
     * Parse a config object. Absent keys keep their defaults;
     * unknown keys (top level or in "machine") and a geometry that
     * fails checkGeometry() throw FatalError.
     */
    static SimConfig fromJson(const JsonValue &json);

    /**
     * Throw FatalError unless the cache size, line and
     * associativity and the BTB entries and associativity are all
     * powers of two: the cache and BTB models index by shift and
     * mask.
     */
    void checkGeometry() const;

    /**
     * Versioned content digest: "v1:" + 32 hex chars of
     * sha256 over a domain tag plus the canonical JSON. Stable
     * across builds and field reordering; changes whenever any
     * field value changes. Feeds evaluator result-cache keys and
     * store artifact provenance.
     */
    std::string configDigest() const;

    bool operator==(const SimConfig &other) const;
};

/** Canonical JSON object for a MachineConfig (all fields). */
JsonValue machineToJson(const MachineConfig &machine);

/** Inverse of machineToJson; rejects unknown keys. */
MachineConfig machineFromJson(const JsonValue &json);

} // namespace predilp

#endif // PREDILP_SIM_CONFIG_HH
