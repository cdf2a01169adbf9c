/**
 * @file
 * Cache and branch-predictor models. The paper's fixed memory system
 * (§4.1: 64K direct-mapped caches, a 1K-entry tagless 2-bit BTB) is
 * the default configuration of two generalized models:
 *
 *  - SetAssocCache: tag-only set-associative cache with true-LRU
 *    replacement. Associativity 1 degenerates to exactly the old
 *    direct-mapped model (same indexing, same hit/miss/conflict
 *    classification), which is what keeps the paper figures
 *    bit-identical under the default SimConfig.
 *  - BranchTargetBuffer: with associativity 1 it is the paper's
 *    tagless direct-mapped counter table (aliasing allowed, owner
 *    tags tracked for stats only); with higher associativity it
 *    becomes a tagged, LRU-replaced table that predicts not-taken on
 *    a tag miss. The per-entry predictor is selectable (2-bit
 *    saturating, 1-bit last-outcome, or static) — the btb_* and
 *    predictor axes of the sweep grid (driver/sweep.hh).
 */

#ifndef PREDILP_SIM_CACHE_HH
#define PREDILP_SIM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace predilp
{

/** Branch-prediction policy of the BTB entries. */
enum class BranchPredictor : std::uint8_t
{
    TwoBit,         ///< 2-bit saturating counter (paper §4.1).
    OneBit,         ///< last outcome.
    StaticTaken,    ///< always predict taken; table unused.
    StaticNotTaken, ///< always predict not-taken; table unused.
};

/** Stable config/JSON name: "twobit", "onebit", "taken", "nottaken". */
const char *predictorName(BranchPredictor predictor);

/**
 * Inverse of predictorName(); throws FatalError on an unknown name.
 */
BranchPredictor predictorFromName(const std::string &name);

/** A tag-only set-associative cache model; see file comment. */
class SetAssocCache
{
  public:
    /**
     * @param sizeBytes total capacity.
     * @param lineBytes block size (power of two).
     * @param ways associativity; must divide the line count.
     */
    SetAssocCache(std::int64_t sizeBytes, std::int64_t lineBytes,
                  int ways = 1);

    /**
     * Read access: @return true on hit. Misses allocate the line
     * (filling an invalid way first, else evicting the LRU way).
     */
    bool access(std::int64_t addr);

    /**
     * Write access with no-write-allocate semantics: @return true on
     * hit (line updated); misses do not allocate.
     */
    bool writeAccess(std::int64_t addr);

    /** @return true if the line holding @p addr is present. */
    bool present(std::int64_t addr) const;

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Misses whose set still had an invalid way (cold/compulsory). */
    std::uint64_t coldMisses() const { return coldMisses_; }

    /**
     * Misses in a fully valid set — an eviction (or, for writes, a
     * bypass) of live lines. With one way these are the old
     * direct-mapped conflict misses.
     */
    std::uint64_t conflictMisses() const { return conflictMisses_; }

    /** Empty the cache and zero statistics. */
    void reset();

  private:
    /** Way index of @p addr within its set, or -1 when absent. */
    int findWay(std::size_t set, std::int64_t tag) const;
    std::size_t setOf(std::int64_t addr) const;
    std::int64_t tagOf(std::int64_t addr) const;
    void touch(std::size_t set, int way);
    void classifyMiss(std::size_t set);

    std::int64_t lineBytes_;
    std::size_t ways_;
    std::size_t numSets_;
    std::vector<std::int64_t> tags_;    ///< set-major, ways per set.
    std::vector<bool> valid_;
    std::vector<std::uint64_t> lastUse_; ///< LRU ticks, set-major.
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t coldMisses_ = 0;
    std::uint64_t conflictMisses_ = 0;
};

/**
 * Deprecated alias for the 1-way default; new code should name
 * SetAssocCache (and its associativity) explicitly.
 */
using DirectMappedCache = SetAssocCache;

/** Branch target buffer; see file comment. */
class BranchTargetBuffer
{
  public:
    /**
     * @param entries total predictor entries.
     * @param ways associativity; 1 = the paper's tagless table.
     * @param predictor per-entry prediction policy.
     */
    explicit BranchTargetBuffer(
        std::size_t entries = 1024, int ways = 1,
        BranchPredictor predictor = BranchPredictor::TwoBit);

    /** @return the taken/not-taken prediction for @p addr. */
    bool predictTaken(std::int64_t addr) const;

    /** Train with the actual outcome. */
    void update(std::int64_t addr, bool taken);

    /** Branches trained (one per executed conditional branch). */
    std::uint64_t lookups() const { return lookups_; }

    /**
     * With one way: trainings whose entry last belonged to a
     * different branch address — counter aliasing in the tagless
     * table, tracked with a stats-only tag array (predictions are
     * unaffected, as in §4.1). With more ways: real LRU evictions of
     * valid entries.
     */
    std::uint64_t replacements() const { return replacements_; }

    void reset();

  private:
    std::size_t setOf(std::int64_t addr) const;
    bool counterPredictsTaken(std::uint8_t counter) const;
    std::uint8_t initialCounter() const;
    void train(std::uint8_t &counter, bool taken) const;

    BranchPredictor predictor_;
    std::size_t ways_;
    std::size_t numSets_;
    std::vector<std::uint8_t> counters_;
    std::vector<std::int64_t> owners_; ///< stats-only when 1-way.
    std::vector<bool> ownerValid_;
    std::vector<std::uint64_t> lastUse_;
    std::uint64_t tick_ = 0;
    std::uint64_t lookups_ = 0;
    std::uint64_t replacements_ = 0;
};

} // namespace predilp

#endif // PREDILP_SIM_CACHE_HH
