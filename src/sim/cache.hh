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
 *    predictor axes of the sweep grid (driver/sweep.hh). Each entry
 *    packs its owner, stamp and counter into 16 bytes, and the
 *    predictor is baked at construction into predict and train
 *    tables, so a probe touches one entry and runs no switch.
 *
 * Both models require a power-of-two set count (and the cache a
 * power-of-two line), so no index or tag computation divides;
 * SimConfig and the sweep's axis parser reject other geometries
 * before any model is built.
 */

#ifndef PREDILP_SIM_CACHE_HH
#define PREDILP_SIM_CACHE_HH

#include <array>
#include <cstddef>
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

/**
 * A tag-only set-associative cache model; see file comment.
 *
 * The line size and set count are powers of two, so a line number
 * is a shift of the address, the set index a mask of the line, and
 * the tag a shift of the line. The cache also remembers the last
 * line it touched (a read hit, a read fill or a write hit): that
 * line is present and holds the newest LRU stamp in the whole cache,
 * so a repeat access to it is a hit that needs no lookup, and
 * skipping its re-stamp leaves the LRU order of every set unchanged.
 * access() and writeAccess() test that line inline and fall back to
 * the set lookup only when the line changes.
 */
class SetAssocCache
{
  public:
    /**
     * @param sizeBytes total capacity.
     * @param lineBytes block size (power of two).
     * @param ways associativity; must divide the line count, and the
     *        resulting set count must be a power of two.
     */
    SetAssocCache(std::int64_t sizeBytes, std::int64_t lineBytes,
                  int ways = 1);

    /**
     * Read access: @return true on hit. Misses allocate the line
     * (filling an invalid way first, else evicting the LRU way).
     */
    bool
    access(std::int64_t addr)
    {
        const std::int64_t line = lineOf(addr);
        return repeatHit(line) || readLine(line);
    }

    /**
     * Write access with no-write-allocate semantics: @return true on
     * hit (line updated); misses do not allocate.
     */
    bool
    writeAccess(std::int64_t addr)
    {
        const std::int64_t line = lineOf(addr);
        return repeatHit(line) || writeLine(line);
    }

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
    /** One way of a set: its tag and LRU stamp (0 = invalid). */
    struct Way
    {
        std::int64_t tag = 0;
        std::uint64_t stamp = 0;
    };

    /**
     * Line number of @p addr: `addr / lineBytes`, rounded toward zero
     * as the division rounds, because a faulting speculative load can
     * record a negative address and must map as the division maps it.
     */
    std::int64_t
    lineOf(std::int64_t addr) const
    {
        return (addr + ((addr >> 63) & lineMask_)) >> lineShift_;
    }

    /** Count a hit when @p line is the remembered line. */
    bool
    repeatHit(std::int64_t line)
    {
        if (line != lastLine_ || !haveLastLine_)
            return false;
        hits_ += 1;
        return true;
    }

    /** Index in ways_ of the first way of @p line's set. */
    std::size_t setBase(std::int64_t line) const;
    /**
     * Index in ways_ of the valid way holding @p tag in the set that
     * starts at @p base, or `absent`.
     */
    std::size_t find(std::size_t base, std::int64_t tag) const;
    static constexpr std::size_t absent = ~std::size_t{0};
    /** Tag of @p line: `line / numSets`, rounded toward zero. */
    std::int64_t tagOf(std::int64_t line) const;
    bool readLine(std::int64_t line);
    bool writeLine(std::int64_t line);
    /** Stamp @p way as most recently used and remember @p line. */
    void touch(Way &way, std::int64_t line);
    void countMiss(bool cold);

    std::int64_t lineMask_;   ///< lineBytes - 1.
    int lineShift_;           ///< log2(lineBytes).
    std::uint64_t setMask_;   ///< numSets - 1.
    int setShift_;            ///< log2(numSets).
    std::size_t numWays_;
    std::vector<Way> ways_;   ///< set-major, numWays_ per set.
    std::uint64_t tick_ = 0;  ///< last LRU stamp handed out.
    /**
     * The remembered line, valid while haveLastLine_. A flag, not a
     * sentinel line: with 1-byte lines every int64 is some line.
     */
    std::int64_t lastLine_ = 0;
    bool haveLastLine_ = false;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t coldMisses_ = 0;
    std::uint64_t conflictMisses_ = 0;
};

/** Branch target buffer; see file comment. */
class BranchTargetBuffer
{
  public:
    /**
     * @param entries total predictor entries; entries / ways must be
     *        a power of two.
     * @param ways associativity; 1 = the paper's tagless table.
     * @param predictor per-entry prediction policy.
     */
    explicit BranchTargetBuffer(
        std::size_t entries = 1024, int ways = 1,
        BranchPredictor predictor = BranchPredictor::TwoBit);

    /**
     * One executed conditional branch at @p addr: predict it, then
     * train its entry with the actual outcome @p taken, probing the
     * set once. @return the prediction made before training.
     */
    bool predictAndTrain(std::int64_t addr, bool taken);

    /** Branches trained (one per executed conditional branch). */
    std::uint64_t lookups() const { return lookups_; }

    /**
     * With one way: trainings whose entry last belonged to a
     * different branch address — counter aliasing in the tagless
     * table, tracked with a stats-only owner tag (predictions are
     * unaffected, as in §4.1). With more ways: real LRU evictions of
     * valid entries.
     */
    std::uint64_t replacements() const { return replacements_; }

    void reset();

  private:
    /**
     * One entry, packed into 16 bytes: the branch that owns it, its
     * stamp and its counter. The stamp is 0 while the entry is
     * invalid; with more ways it is the entry's LRU stamp, and with
     * one way it is 1 once a branch owns the entry.
     */
    struct Entry
    {
        std::int64_t owner = 0;
        std::uint64_t stamp : 62 = 0;
        std::uint64_t counter : 2 = 0;
    };

    std::size_t ways_;
    std::size_t setMask_; ///< numSets - 1.
    std::vector<Entry> entries_; ///< set-major, ways_ per set.
    /**
     * The predictor, baked at construction: predicts_[counter] is a
     * counter's prediction, train_[taken][counter] the counter after
     * training, initialCounter_ a fresh entry's counter and
     * tagMissPredicts_ the prediction on a tag miss.
     */
    std::array<bool, 4> predicts_{};
    std::array<std::array<std::uint8_t, 4>, 2> train_{};
    std::uint8_t initialCounter_ = 0;
    bool tagMissPredicts_ = false;
    std::uint64_t tick_ = 0;
    std::uint64_t lookups_ = 0;
    std::uint64_t replacements_ = 0;
};

} // namespace predilp

#endif // PREDILP_SIM_CACHE_HH
