/**
 * @file
 * Differential tests of the cache and BTB models against reference
 * copies of the division-based models they replaced. The shipped
 * models index by shift and mask, skip the lookup for a repeat
 * access to the last line touched, and probe the BTB once per
 * branch; every return value and every statistic must still match
 * the reference on seeded streams of sequential fetch runs, random
 * jumps, negative and near-INT64_MAX/MIN addresses, mixed reads and
 * writes, and resets — over every power-of-two geometry of 16-256 B
 * lines, 4-512 lines and 1-8 ways, and every BTB of 2-1024 entries,
 * 1/2/4 ways and all four predictors. Non-power-of-two geometries
 * are rejected by the constructors and by SimConfig::fromJson.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "sim/cache.hh"
#include "sim/config.hh"
#include "support/diag.hh"

namespace predilp
{
namespace
{

/** The division-based set-associative cache the model replaced. */
class RefCache
{
  public:
    RefCache(std::int64_t sizeBytes, std::int64_t lineBytes, int ways)
        : lineBytes_(lineBytes), ways_(static_cast<std::size_t>(ways))
    {
        const std::size_t numLines =
            static_cast<std::size_t>(sizeBytes / lineBytes);
        numSets_ = numLines / ways_;
        tags_.assign(numLines, 0);
        valid_.assign(numLines, false);
        lastUse_.assign(numLines, 0);
    }

    bool
    access(std::int64_t addr)
    {
        const std::size_t set = setOf(addr);
        const std::int64_t tag = tagOf(addr);
        if (int way = findWay(set, tag); way >= 0) {
            hits += 1;
            touch(set, way);
            return true;
        }
        classifyMiss(set);
        const std::size_t base = set * ways_;
        std::size_t victim = 0;
        for (std::size_t way = 0; way < ways_; ++way) {
            if (!valid_[base + way]) {
                victim = way;
                break;
            }
            if (lastUse_[base + way] < lastUse_[base + victim])
                victim = way;
        }
        valid_[base + victim] = true;
        tags_[base + victim] = tag;
        touch(set, static_cast<int>(victim));
        return false;
    }

    bool
    writeAccess(std::int64_t addr)
    {
        const std::size_t set = setOf(addr);
        if (int way = findWay(set, tagOf(addr)); way >= 0) {
            hits += 1;
            touch(set, way);
            return true;
        }
        classifyMiss(set);
        return false;
    }

    bool
    present(std::int64_t addr) const
    {
        return findWay(setOf(addr), tagOf(addr)) >= 0;
    }

    void
    reset()
    {
        std::fill(valid_.begin(), valid_.end(), false);
        std::fill(lastUse_.begin(), lastUse_.end(), 0);
        tick_ = 0;
        hits = misses = coldMisses = conflictMisses = 0;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t coldMisses = 0;
    std::uint64_t conflictMisses = 0;

  private:
    std::size_t
    setOf(std::int64_t addr) const
    {
        return static_cast<std::size_t>(addr / lineBytes_) % numSets_;
    }

    std::int64_t
    tagOf(std::int64_t addr) const
    {
        return (addr / lineBytes_) /
               static_cast<std::int64_t>(numSets_);
    }

    int
    findWay(std::size_t set, std::int64_t tag) const
    {
        const std::size_t base = set * ways_;
        for (std::size_t way = 0; way < ways_; ++way) {
            if (valid_[base + way] && tags_[base + way] == tag)
                return static_cast<int>(way);
        }
        return -1;
    }

    void
    touch(std::size_t set, int way)
    {
        lastUse_[set * ways_ + static_cast<std::size_t>(way)] = ++tick_;
    }

    void
    classifyMiss(std::size_t set)
    {
        misses += 1;
        const std::size_t base = set * ways_;
        for (std::size_t way = 0; way < ways_; ++way) {
            if (!valid_[base + way]) {
                coldMisses += 1;
                return;
            }
        }
        conflictMisses += 1;
    }

    std::int64_t lineBytes_;
    std::size_t ways_;
    std::size_t numSets_ = 0;
    std::vector<std::int64_t> tags_;
    std::vector<bool> valid_;
    std::vector<std::uint64_t> lastUse_;
    std::uint64_t tick_ = 0;
};

/** The two-probe, division-based BTB the model replaced. */
class RefBtb
{
  public:
    RefBtb(std::size_t entries, int ways, BranchPredictor predictor)
        : predictor_(predictor), ways_(static_cast<std::size_t>(ways)),
          numSets_(entries / ways_)
    {
        counters_.assign(entries, initialCounter());
        owners_.assign(entries, 0);
        ownerValid_.assign(entries, false);
        lastUse_.assign(entries, 0);
    }

    bool
    predictTaken(std::int64_t addr) const
    {
        if (predictor_ == BranchPredictor::StaticTaken)
            return true;
        if (predictor_ == BranchPredictor::StaticNotTaken)
            return false;
        const std::size_t base = setOf(addr) * ways_;
        if (ways_ == 1)
            return predicts(counters_[base]);
        for (std::size_t way = 0; way < ways_; ++way) {
            if (ownerValid_[base + way] && owners_[base + way] == addr)
                return predicts(counters_[base + way]);
        }
        return false;
    }

    void
    update(std::int64_t addr, bool taken)
    {
        lookups += 1;
        const std::size_t base = setOf(addr) * ways_;
        if (ways_ == 1) {
            if (!ownerValid_[base]) {
                ownerValid_[base] = true;
                owners_[base] = addr;
            } else if (owners_[base] != addr) {
                replacements += 1;
                owners_[base] = addr;
            }
            train(counters_[base], taken);
            return;
        }
        std::size_t victim = 0;
        bool found = false;
        for (std::size_t way = 0; way < ways_; ++way) {
            if (ownerValid_[base + way] && owners_[base + way] == addr) {
                victim = way;
                found = true;
                break;
            }
        }
        if (!found) {
            bool evicting = true;
            for (std::size_t way = 0; way < ways_; ++way) {
                if (!ownerValid_[base + way]) {
                    victim = way;
                    evicting = false;
                    break;
                }
                if (lastUse_[base + way] < lastUse_[base + victim])
                    victim = way;
            }
            if (evicting)
                replacements += 1;
            ownerValid_[base + victim] = true;
            owners_[base + victim] = addr;
            counters_[base + victim] = initialCounter();
        }
        train(counters_[base + victim], taken);
        lastUse_[base + victim] = ++tick_;
    }

    void
    reset()
    {
        std::fill(counters_.begin(), counters_.end(), initialCounter());
        std::fill(ownerValid_.begin(), ownerValid_.end(), false);
        std::fill(lastUse_.begin(), lastUse_.end(), 0);
        tick_ = 0;
        lookups = replacements = 0;
    }

    std::uint64_t lookups = 0;
    std::uint64_t replacements = 0;

  private:
    std::size_t
    setOf(std::int64_t addr) const
    {
        return static_cast<std::size_t>(addr >> 2) % numSets_;
    }

    std::uint8_t
    initialCounter() const
    {
        return predictor_ == BranchPredictor::TwoBit ? 1 : 0;
    }

    bool
    predicts(std::uint8_t counter) const
    {
        switch (predictor_) {
          case BranchPredictor::TwoBit:
            return counter >= 2;
          case BranchPredictor::OneBit:
            return counter != 0;
          case BranchPredictor::StaticTaken:
            return true;
          case BranchPredictor::StaticNotTaken:
            return false;
        }
        return false;
    }

    void
    train(std::uint8_t &counter, bool taken) const
    {
        if (predictor_ == BranchPredictor::TwoBit) {
            if (taken && counter < 3)
                counter += 1;
            else if (!taken && counter > 0)
                counter -= 1;
        } else if (predictor_ == BranchPredictor::OneBit) {
            counter = taken ? 1 : 0;
        }
    }

    BranchPredictor predictor_;
    std::size_t ways_;
    std::size_t numSets_;
    std::vector<std::uint8_t> counters_;
    std::vector<std::int64_t> owners_;
    std::vector<bool> ownerValid_;
    std::vector<std::uint64_t> lastUse_;
    std::uint64_t tick_ = 0;
};

constexpr std::int64_t int64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t int64Min = std::numeric_limits<std::int64_t>::min();

/**
 * Seeded address streams for one geometry. Each burst picks a
 * region — low, negative, or hugging either end of the int64 range —
 * and a shape: a sequential fetch run, random jumps over a few cache
 * sizes, or hammering one line. @p span is the cache size, so jumps
 * both hit and conflict.
 */
class AddressStream
{
  public:
    AddressStream(std::uint64_t seed, std::int64_t span)
        : rng_(seed), span_(span)
    {}

    std::int64_t
    next()
    {
        if (left_ == 0)
            startBurst();
        left_ -= 1;
        switch (shape_) {
          case 0: // sequential fetch run
            cursor_ = step(cursor_, 4);
            return cursor_;
          case 1: // random jumps over a few cache sizes
            return step(base_, below(4 * span_));
          default: // one line, any byte of it
            return step(base_, below(16));
        }
    }

    std::uint64_t
    below(std::int64_t bound)
    {
        return rng_() % static_cast<std::uint64_t>(bound);
    }

    std::mt19937_64 &rng() { return rng_; }

  private:
    /** @p from + @p delta, saturating instead of wrapping. */
    static std::int64_t
    step(std::int64_t from, std::uint64_t delta)
    {
        const auto d = static_cast<std::int64_t>(delta);
        return from > int64Max - d ? int64Max : from + d;
    }

    void
    startBurst()
    {
        const std::int64_t regions[] = {
            0,
            0x10000,
            -4 * span_,
            -0x7000'0000,
            int64Max - 4 * span_,
            int64Min,
            int64Min + 3 * span_,
        };
        base_ = regions[below(std::size(regions))];
        shape_ = static_cast<int>(below(3));
        cursor_ = step(base_, below(2 * span_)) & ~std::int64_t{3};
        left_ = 1 + static_cast<int>(below(64));
    }

    std::mt19937_64 rng_;
    std::int64_t span_;
    std::int64_t base_ = 0;
    std::int64_t cursor_ = 0;
    int shape_ = 0;
    int left_ = 0;
};

void
expectSameStats(const SetAssocCache &model, const RefCache &ref)
{
    EXPECT_EQ(model.hits(), ref.hits);
    EXPECT_EQ(model.misses(), ref.misses);
    EXPECT_EQ(model.coldMisses(), ref.coldMisses);
    EXPECT_EQ(model.conflictMisses(), ref.conflictMisses);
}

/** Drive both caches with @p ops seeded accesses; count mismatches. */
void
diffCache(std::int64_t lineBytes, std::int64_t lines, int ways,
          int ops)
{
    const std::int64_t size = lineBytes * lines;
    SCOPED_TRACE("line " + std::to_string(lineBytes) + " B, " +
                 std::to_string(lines) + " lines, " +
                 std::to_string(ways) + " ways");
    SetAssocCache model(size, lineBytes, ways);
    RefCache ref(size, lineBytes, ways);
    AddressStream stream(
        static_cast<std::uint64_t>(size * 131 + ways), size);
    int mismatches = 0;
    for (int op = 0; op < ops; ++op) {
        const std::int64_t addr = stream.next();
        const std::uint64_t kind = stream.below(1000);
        if (kind < 700) {
            mismatches += model.access(addr) != ref.access(addr);
        } else if (kind < 990) {
            mismatches +=
                model.writeAccess(addr) != ref.writeAccess(addr);
        } else if (kind < 999) {
            mismatches += model.present(addr) != ref.present(addr);
        } else {
            expectSameStats(model, ref);
            model.reset();
            ref.reset();
        }
    }
    EXPECT_EQ(mismatches, 0);
    expectSameStats(model, ref);
}

TEST(CacheModel, MatchesDivisionModelOnEveryPowerOfTwoGeometry)
{
    for (std::int64_t lineBytes = 16; lineBytes <= 256; lineBytes *= 2)
        for (std::int64_t lines = 4; lines <= 512; lines *= 2)
            for (int ways = 1; ways <= 8 && ways <= lines; ways *= 2)
                diffCache(lineBytes, lines, ways, 20000);
}

TEST(CacheModel, WaysNeedNotBeAPowerOfTwo)
{
    // Only the set count is masked; the way count multiplies, so a
    // 3-way cache with power-of-two sets is still exact.
    for (std::int64_t sets = 1; sets <= 128; sets *= 2)
        diffCache(64, 3 * sets, 3, 20000);
}

TEST(CacheModel, SameLineRepeatsAreHits)
{
    SetAssocCache cache(1024, 64, 2);
    EXPECT_FALSE(cache.access(-1)); // line -1 rounds toward zero: 0.
    EXPECT_TRUE(cache.access(-63));
    EXPECT_TRUE(cache.access(63));
    EXPECT_TRUE(cache.writeAccess(0));
    EXPECT_FALSE(cache.access(-64)); // line -1.
    EXPECT_EQ(cache.hits(), 3u);
    EXPECT_EQ(cache.misses(), 2u);
    // Rounding toward zero makes line -1 share set 7 and tag 0 with
    // line 7, so the two alias, exactly as under the old division.
    EXPECT_TRUE(cache.access(7 * 64));
    // A write miss does not allocate, and the remembered line stays
    // the last one read.
    EXPECT_FALSE(cache.writeAccess(4096));
    EXPECT_TRUE(cache.access(-64));
    cache.reset();
    EXPECT_FALSE(cache.access(-64));
}

/** Drive both BTBs with @p ops seeded branches; count mismatches. */
void
diffBtb(std::size_t entries, int ways, BranchPredictor predictor,
        int ops)
{
    SCOPED_TRACE(std::to_string(entries) + " entries, " +
                 std::to_string(ways) + " ways, " +
                 predictorName(predictor));
    BranchTargetBuffer model(entries, ways, predictor);
    RefBtb ref(entries, ways, predictor);
    std::mt19937_64 rng(entries * 977 + static_cast<std::size_t>(ways) * 31 +
                        static_cast<std::size_t>(predictor));
    // A working set of branches from twice to half the table size,
    // each with its own taken bias, plus wild addresses.
    const std::size_t branches = 1 + rng() % (2 * entries);
    std::vector<std::int64_t> addrs;
    std::vector<std::uint64_t> bias;
    for (std::size_t i = 0; i < branches; ++i) {
        const std::uint64_t pick = rng() % 8;
        std::int64_t addr =
            static_cast<std::int64_t>(rng() % (64 * entries)) * 4;
        if (pick == 0)
            addr = -addr - 4;
        else if (pick == 1)
            addr = int64Max - static_cast<std::int64_t>(rng() % 4096);
        else if (pick == 2)
            addr = int64Min + static_cast<std::int64_t>(rng() % 4096);
        else if (pick == 3)
            addr += static_cast<std::int64_t>(rng() % 4); // unaligned.
        addrs.push_back(addr);
        bias.push_back(rng() % 101);
    }
    int mismatches = 0;
    for (int op = 0; op < ops; ++op) {
        const std::size_t i = rng() % branches;
        const bool taken = rng() % 100 < bias[i];
        const bool predicted = ref.predictTaken(addrs[i]);
        ref.update(addrs[i], taken);
        mismatches += model.predictAndTrain(addrs[i], taken) != predicted;
        if (rng() % 5000 == 0) {
            EXPECT_EQ(model.lookups(), ref.lookups);
            EXPECT_EQ(model.replacements(), ref.replacements);
            model.reset();
            ref.reset();
        }
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(model.lookups(), ref.lookups);
    EXPECT_EQ(model.replacements(), ref.replacements);
}

TEST(BtbModel, MatchesTwoProbeModelOnEveryGeometryAndPredictor)
{
    for (BranchPredictor predictor :
         {BranchPredictor::TwoBit, BranchPredictor::OneBit,
          BranchPredictor::StaticTaken,
          BranchPredictor::StaticNotTaken}) {
        for (std::size_t entries = 2; entries <= 1024; entries *= 2)
            for (int ways : {1, 2, 4})
                if (static_cast<std::size_t>(ways) <= entries)
                    diffBtb(entries, ways, predictor, 20000);
    }
}

TEST(CacheModel, ConstructorRejectsNonPowerOfTwoGeometry)
{
    EXPECT_THROW(SetAssocCache(1024, 48, 1), PanicError); // line size.
    EXPECT_THROW(SetAssocCache(3 * 64, 64, 1), PanicError); // 3 sets.
    EXPECT_THROW(SetAssocCache(6 * 64, 64, 2), PanicError); // 3 sets.
    EXPECT_THROW(SetAssocCache(12 * 64, 64, 4), PanicError); // 3 sets.
    EXPECT_NO_THROW(SetAssocCache(12 * 64, 64, 3)); // 4 sets.
}

TEST(BtbModel, ConstructorRejectsNonPowerOfTwoSetCount)
{
    EXPECT_THROW(BranchTargetBuffer(12, 1), PanicError);
    EXPECT_THROW(BranchTargetBuffer(12, 4), PanicError);
    EXPECT_THROW(BranchTargetBuffer(1000, 2), PanicError);
    EXPECT_NO_THROW(BranchTargetBuffer(12, 3)); // 4 sets.
}

TEST(SimConfigGeometry, FromJsonRejectsNonPowerOfTwo)
{
    for (const char *spec :
         {"{\"cache_size_bytes\": 49152}", "{\"cache_line_bytes\": 48}",
          "{\"cache_assoc\": 3}", "{\"btb_entries\": 1000}",
          "{\"btb_assoc\": 3}"}) {
        SCOPED_TRACE(spec);
        EXPECT_THROW(SimConfig::fromJson(JsonValue::parse(spec)),
                     FatalError);
    }
    // The largest and smallest powers of two still parse.
    SimConfig parsed = SimConfig::fromJson(JsonValue::parse(
        "{\"cache_size_bytes\": 131072, \"cache_line_bytes\": 16,"
        " \"cache_assoc\": 8, \"btb_entries\": 4096,"
        " \"btb_assoc\": 1}"));
    EXPECT_EQ(parsed.cacheSizeBytes, 131072);
    EXPECT_EQ(parsed.cacheAssociativity, 8);
}

} // namespace
} // namespace predilp
